/**
 * @file
 * Stress tests for the lock-free MPSC inbox (net/mpsc_ring.hh) and
 * its integration into Network: per-producer FIFO under many
 * concurrent producers, full-ring back-pressure with a tiny ring,
 * shutdown racing active producers, and the in-order-per-pair
 * delivery assertion at the Network level.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "net/mpsc_ring.hh"
#include "net/network.hh"

namespace dsm {
namespace {

Message
makeMsg(NodeId src, std::uint64_t payload_token)
{
    Message m;
    m.src = src;
    m.dst = 0;
    m.type = MsgType::LockRequest;
    m.replyToken = payload_token;
    return m;
}

TEST(MpscRing, ManyProducersPerProducerFifo)
{
    constexpr int kProducers = 8;
    constexpr int kPerProducer = 20000;
    MpscRing ring(256);

    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&ring, p] {
            for (int i = 0; i < kPerProducer; ++i) {
                const std::uint64_t ticket =
                    ring.push(makeMsg(p, static_cast<std::uint64_t>(i)));
                ASSERT_NE(ticket, 0u);
            }
        });
    }

    std::vector<std::uint64_t> next(kProducers, 0);
    std::uint64_t last_ticket = 0;
    Message out;
    for (int i = 0; i < kProducers * kPerProducer; ++i) {
        ASSERT_TRUE(ring.pop(out));
        // Ticket order is the delivery order.
        ASSERT_GT(out.pairSeq, last_ticket);
        last_ticket = out.pairSeq;
        // And each producer's messages arrive in its send order.
        ASSERT_EQ(out.replyToken, next[out.src]) << "producer "
                                                 << out.src;
        next[out.src]++;
    }
    for (auto &t : producers)
        t.join();
    for (int p = 0; p < kProducers; ++p)
        EXPECT_EQ(next[p], static_cast<std::uint64_t>(kPerProducer));
}

TEST(MpscRing, TinyRingBackpressureLosesNothing)
{
    // Capacity 2: producers must block on the full ring constantly;
    // every message still arrives, in per-producer order.
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 5000;
    MpscRing ring(2);

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&ring, p] {
            for (int i = 0; i < kPerProducer; ++i)
                ring.push(makeMsg(p, static_cast<std::uint64_t>(i)));
        });
    }
    std::vector<std::uint64_t> next(kProducers, 0);
    Message out;
    for (int i = 0; i < kProducers * kPerProducer; ++i) {
        ASSERT_TRUE(ring.pop(out));
        ASSERT_EQ(out.replyToken, next[out.src]);
        next[out.src]++;
    }
    for (auto &t : producers)
        t.join();
}

TEST(MpscRing, AdaptiveSpinLosesNothingAcrossParkAndBurst)
{
    // The adaptive consumer budget (DSM_BLOCKING_DEQ) halves on every
    // futex park and doubles on hot pops: drive it through both
    // extremes — long idle gaps that collapse the budget to zero and
    // dense bursts that restore it — and require exact delivery
    // either way. Tiny capacity keeps the producer blocking on the
    // full ring at the same time.
    constexpr int kBursts = 40;
    constexpr int kPerBurst = 64;
    MpscRing ring(4);
    ring.setAdaptiveSpin(true);

    std::thread producer([&] {
        for (int b = 0; b < kBursts; ++b) {
            for (int i = 0; i < kPerBurst; ++i) {
                ring.push(makeMsg(
                    0, static_cast<std::uint64_t>(b * kPerBurst + i)));
            }
            // Idle gap: the consumer drains, spins out, and parks.
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    });
    Message out;
    for (int i = 0; i < kBursts * kPerBurst; ++i) {
        ASSERT_TRUE(ring.pop(out));
        ASSERT_EQ(out.replyToken, static_cast<std::uint64_t>(i));
    }
    producer.join();
}

TEST(MpscRing, ShutdownRace)
{
    // Producers blast while the consumer drains a little and shuts
    // down mid-stream: no hang, no crash, and everything the consumer
    // saw is a valid prefix per producer.
    for (int round = 0; round < 20; ++round) {
        MpscRing ring(64);
        constexpr int kProducers = 4;
        std::atomic<bool> stop{false};
        std::vector<std::thread> producers;
        for (int p = 0; p < kProducers; ++p) {
            producers.emplace_back([&, p] {
                for (std::uint64_t i = 0; !stop.load(); ++i) {
                    if (ring.push(makeMsg(p, i)) == 0)
                        break; // shut down while we were blocked
                }
            });
        }

        std::vector<std::uint64_t> next(kProducers, 0);
        Message out;
        for (int i = 0; i < 500 + round * 37; ++i) {
            ASSERT_TRUE(ring.pop(out));
            ASSERT_EQ(out.replyToken, next[out.src]);
            next[out.src]++;
        }
        ring.shutdown();
        stop.store(true);
        // Post-shutdown pops drain whatever was published, still in
        // order, and then report exhaustion instead of blocking.
        while (ring.pop(out)) {
            ASSERT_EQ(out.replyToken, next[out.src]);
            next[out.src]++;
        }
        for (auto &t : producers)
            t.join();
    }
}

TEST(MpscRing, ShutdownUnblocksParkedConsumer)
{
    MpscRing ring(8);
    std::thread consumer([&] {
        Message out;
        EXPECT_FALSE(ring.pop(out));
    });
    // Give the consumer time to park before the wake.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ring.shutdown();
    consumer.join();
}

TEST(MpscRing, PeerDownStatusTyped)
{
    MpscRing ring(8);
    Message out;

    // Empty + peer dead: a typed status instead of parking forever.
    ring.setPeerDown(true);
    EXPECT_EQ(ring.popWithStatus(out), RingPop::PeerDown);

    // Messages published before the death still drain first, in order.
    ring.setPeerDown(false);
    ring.push(makeMsg(1, 0));
    ring.push(makeMsg(1, 1));
    ring.setPeerDown(true);
    EXPECT_EQ(ring.popWithStatus(out), RingPop::Ok);
    EXPECT_EQ(out.replyToken, 0u);
    EXPECT_EQ(ring.popWithStatus(out), RingPop::Ok);
    EXPECT_EQ(out.replyToken, 1u);
    EXPECT_EQ(ring.popWithStatus(out), RingPop::PeerDown);

    // Producers are unaffected while the peer is down ("parked
    // outbound traffic"), and plain pop() ignores the flag entirely.
    ring.push(makeMsg(2, 7));
    EXPECT_TRUE(ring.pop(out));
    EXPECT_EQ(out.src, 2);

    // Recovery clears the flag; shutdown then reads as Closed.
    ring.setPeerDown(false);
    ring.shutdown();
    EXPECT_EQ(ring.popWithStatus(out), RingPop::Closed);
}

TEST(MpscRing, PeerDownWakesParkedStatusConsumer)
{
    MpscRing ring(8);
    std::thread consumer([&] {
        Message out;
        EXPECT_EQ(ring.popWithStatus(out), RingPop::PeerDown);
    });
    // Give the consumer time to park before the death flag flips.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ring.setPeerDown(true);
    consumer.join();
}

TEST(NetworkPeerDown, RecvStatusSeesDeathAndRecovery)
{
    CostModel cm;
    Network net(2, cm);
    NodeStats stats;
    net.send(makeMsg(1, 5), stats);
    net.markNodeDown(0);

    Message out;
    // Pre-death traffic drains before the status shows.
    EXPECT_EQ(net.recvStatus(0, out), RingPop::Ok);
    EXPECT_EQ(out.replyToken, 5u);
    EXPECT_EQ(net.recvStatus(0, out), RingPop::PeerDown);

    // Sends to the dead node buffer; recovery drains them.
    net.send(makeMsg(1, 6), stats);
    net.clearNodeDown(0);
    EXPECT_EQ(net.recvStatus(0, out), RingPop::Ok);
    EXPECT_EQ(out.replyToken, 6u);

    net.shutdown();
    EXPECT_EQ(net.recvStatus(0, out), RingPop::Closed);
}

TEST(NetworkPolicyTest, InOrderPerPairUnderContention)
{
    // 7 sender nodes hammer node 0 through the Network (which asserts
    // pairSeq monotonicity per pair on every delivery); the payload
    // token re-checks per-pair FIFO end to end.
    CostModel cm;
    Network net(8, cm);
    constexpr int kPerSender = 15000;

    std::vector<std::thread> senders;
    for (int s = 1; s < 8; ++s) {
        senders.emplace_back([&, s] {
            NodeStats stats;
            for (int i = 0; i < kPerSender; ++i) {
                Message m = makeMsg(s, static_cast<std::uint64_t>(i));
                m.vtSendNs = static_cast<std::uint64_t>(i);
                net.send(std::move(m), stats);
            }
        });
    }
    std::vector<std::uint64_t> next(8, 0);
    Message out;
    for (int i = 0; i < 7 * kPerSender; ++i) {
        ASSERT_TRUE(net.recv(0, out));
        ASSERT_EQ(out.replyToken, next[out.src]);
        next[out.src]++;
    }
    for (auto &t : senders)
        t.join();
    net.shutdown();
    EXPECT_FALSE(net.recv(0, out));
}

} // namespace
} // namespace dsm

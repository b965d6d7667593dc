/**
 * @file
 * Unit tests for the synchronization layer: vector times, distributed
 * lock protocol (manager forwarding, the manager's in-place step for
 * its own requests, orphan replay, queueing, mutual exclusion, read
 * caching), and barriers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "net/network.hh"
#include "sync/barrier_service.hh"
#include "sync/lock_service.hh"
#include "sync/vector_time.hh"
#include "time/thread_context.hh"

namespace dsm {
namespace {

TEST(VectorTime, MergeDominatesSum)
{
    VectorTime a(3), b(3);
    a[0] = 5;
    a[2] = 1;
    b[1] = 4;
    b[2] = 3;
    EXPECT_FALSE(a.dominates(b));
    EXPECT_FALSE(b.dominates(a));
    VectorTime m = a;
    m.mergeMax(b);
    EXPECT_TRUE(m.dominates(a));
    EXPECT_TRUE(m.dominates(b));
    EXPECT_EQ(m.sum(), 5u + 4u + 3u);
    EXPECT_EQ(m[2], 3u);
}

TEST(VectorTime, WireRoundTrip)
{
    VectorTime a(4);
    a[0] = 1;
    a[3] = 99;
    WireWriter w;
    a.encode(w);
    auto bytes = w.take();
    WireReader r(bytes);
    EXPECT_EQ(VectorTime::decode(r), a);
}

TEST(VectorTime, SumIsLinearExtension)
{
    // If a happens-before b (pointwise <=, strictly less somewhere),
    // then sum(a) < sum(b).
    VectorTime a(2), b(2);
    a[0] = 1;
    b[0] = 1;
    b[1] = 2;
    EXPECT_TRUE(b.dominates(a));
    EXPECT_LT(a.sum(), b.sum());
}

/** A little fixture wiring N nodes' lock/barrier services directly. */
class SyncFixture : public ::testing::Test
{
  protected:
    static constexpr int kNodes = 4;

    void
    SetUp() override
    {
        net = std::make_unique<Network>(kNodes, cm);
        for (int i = 0; i < kNodes; ++i) {
            nodes.push_back(std::make_unique<NodeBits>(*net, i));
        }
        for (auto &n : nodes) {
            NodeBits *raw = n.get();
            raw->ep.setHandler([raw](Message &msg) {
                switch (msg.type) {
                  case MsgType::LockRequest:
                  case MsgType::LockForward:
                    raw->locks.handleMessage(msg);
                    break;
                  case MsgType::BarrierArrive:
                    raw->barriers.handleMessage(msg);
                    break;
                  default:
                    FAIL() << "unexpected message";
                }
            });
            raw->ep.start();
        }
    }

    void
    TearDown() override
    {
        for (auto &n : nodes)
            n->ep.stop();
        net->shutdown();
    }

    struct NodeBits
    {
        NodeBits(Network &net, NodeId id)
            : ep(net, id, clock, stats), locks(ep), barriers(ep)
        {}

        VirtualClock clock;
        NodeStats stats;
        /** App-side counter deltas merged back by spawned threads
         *  (read by the main thread after join). */
        NodeStats appStats;
        Endpoint ep;
        LockService locks;
        BarrierService barriers;
    };

    /**
     * Spawn one application thread for node @p i, wrapped in a
     * ThreadContext exactly like Cluster::run's workers: app-side
     * counters go to a private delta (merged into appStats when the
     * thread finishes), so they never race the service thread's
     * writes to the node stats.
     */
    std::thread
    spawnNode(int i, std::function<void()> fn)
    {
        NodeBits *node = nodes[i].get();
        return std::thread([node, i, fn = std::move(fn)] {
            ThreadContext ctx;
            ctx.node = static_cast<NodeId>(i);
            ctx.clock = &node->clock;
            ThreadContext::Scope scope(&ctx);
            fn();
            node->appStats += ctx.stats;
        });
    }

    /** Node @p i takes @p lock in @p mode and releases it, on a
     *  worker thread. */
    void
    takeAndRelease(int i, LockId lock, AccessMode mode)
    {
        spawnNode(i, [&] {
            nodes[i]->locks.acquire(lock, mode);
            nodes[i]->locks.release(lock);
        }).join();
    }

    /** Messages sent cluster-wide: service threads' and workers'. */
    std::uint64_t
    messagesSent() const
    {
        std::uint64_t n = 0;
        for (const auto &node : nodes)
            n += node->stats.messagesSent + node->appStats.messagesSent;
        return n;
    }

    /** Manager steps node @p i ran, on either thread. */
    std::uint64_t
    lockForwards(int i) const
    {
        return nodes[i]->stats.lockForwards +
               nodes[i]->appStats.lockForwards;
    }

    /**
     * Node 1 takes lock 4, which node 0 manages, for write and
     * releases it; node 0 then acquires it in @p mode. The request is
     * at its own manager, so the manager step runs in node 0's thread
     * and forwards straight to node 1: two messages and two transits,
     * where a self-addressed request made three of each.
     */
    void
    expectManagerStepInPlace(AccessMode mode)
    {
        constexpr LockId kLock = 4;
        takeAndRelease(1, kLock, AccessMode::Write);
        // Node 0 starts no earlier than the owner's clock, so the
        // forward lands on an owner that is not ahead of it.
        nodes[0]->clock.advanceTo(nodes[1]->clock.now());
        const std::uint64_t sent = messagesSent();
        const std::uint64_t forwards = lockForwards(0);
        const std::uint64_t start = nodes[0]->clock.now();

        takeAndRelease(0, kLock, mode);

        EXPECT_EQ(messagesSent() - sent, 2u);
        EXPECT_EQ(lockForwards(0) - forwards, 1u);
        // Forward: lock u32, mode u8, origin u16, empty request-info
        // blob (u32 length). Grant: lock u32, mode u8, no payload.
        const std::uint64_t forward_transit =
            cm.transitNs(Message::kHeaderBytes + 4 + 1 + 2 + 4);
        const std::uint64_t grant_transit =
            cm.transitNs(Message::kHeaderBytes + 4 + 1);
        // Handling: the manager step, node 1's forward and its grant,
        // node 0's grant.
        EXPECT_EQ(nodes[0]->clock.now() - start,
                  4 * cm.lockHandlingNs + forward_transit + grant_transit);
    }

    CostModel cm;
    std::unique_ptr<Network> net;
    std::vector<std::unique_ptr<NodeBits>> nodes;
};

TEST_F(SyncFixture, MutualExclusionUnderContention)
{
    // N threads hammer one lock; a plain int counts critical sections.
    constexpr int kIters = 50;
    int counter = 0;
    std::vector<std::thread> threads;
    for (int i = 0; i < kNodes; ++i) {
        threads.push_back(spawnNode(i, [&, i] {
            for (int k = 0; k < kIters; ++k) {
                nodes[i]->locks.acquire(7, AccessMode::Write);
                const int seen = counter;
                std::this_thread::yield();
                counter = seen + 1;
                nodes[i]->locks.release(7);
            }
        }));
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(counter, kNodes * kIters);
}

TEST_F(SyncFixture, LocalReacquireIsFree)
{
    nodes[1]->locks.acquire(3, AccessMode::Write);
    nodes[1]->locks.release(3);
    const auto sent = nodes[1]->stats.messagesSent;
    for (int i = 0; i < 10; ++i) {
        nodes[1]->locks.acquire(3, AccessMode::Write);
        nodes[1]->locks.release(3);
    }
    EXPECT_EQ(nodes[1]->stats.messagesSent, sent);
    EXPECT_GE(nodes[1]->stats.localLockHits, 10u);
}

TEST_F(SyncFixture, ManagerOwnsInitially)
{
    // Lock 2's manager is node 2: its first acquire is message-free.
    nodes[2]->locks.acquire(2, AccessMode::Write);
    nodes[2]->locks.release(2);
    EXPECT_EQ(nodes[2]->stats.messagesSent, 0u);
}

TEST_F(SyncFixture, GrantHooksCarryPayload)
{
    // Owner-side makeGrant payload reaches the requester's applyGrant.
    std::vector<std::byte> seen;
    LockHooks hooks0;
    hooks0.makeGrant = [](LockId, AccessMode, NodeId, WireReader &) {
        WireWriter w;
        w.putU32(0xfeed);
        return w.take();
    };
    nodes[0]->locks.setHooks(std::move(hooks0));

    LockHooks hooks1;
    hooks1.applyGrant = [&](LockId, AccessMode, WireReader &r) {
        WireWriter w;
        w.putU32(r.getU32());
        seen = w.take();
    };
    nodes[1]->locks.setHooks(std::move(hooks1));

    // Lock 0 is managed (and initially owned) by node 0.
    nodes[1]->locks.acquire(0, AccessMode::Write);
    nodes[1]->locks.release(0);
    ASSERT_EQ(seen.size(), 4u);
    WireReader r(seen);
    EXPECT_EQ(r.getU32(), 0xfeedu);
}

TEST_F(SyncFixture, ReadLocksCacheUntilBarrier)
{
    // Node 0 owns lock 1 after an exclusive acquire.
    nodes[1]->locks.acquire(1, AccessMode::Write);
    nodes[1]->locks.release(1);

    // First read acquire on node 2: remote; repeats: cached (free).
    nodes[2]->locks.acquire(1, AccessMode::Read);
    nodes[2]->locks.release(1);
    const auto sent = nodes[2]->stats.messagesSent;
    nodes[2]->locks.acquire(1, AccessMode::Read);
    nodes[2]->locks.release(1);
    EXPECT_EQ(nodes[2]->stats.messagesSent, sent);

    // After a barrier the cache is revalidated (the barrier's
    // post-wait action calls clearReadCaches): next read is remote.
    nodes[2]->locks.clearReadCaches();
    nodes[2]->locks.acquire(1, AccessMode::Read);
    nodes[2]->locks.release(1);
    EXPECT_GT(nodes[2]->stats.messagesSent, sent);
}

TEST_F(SyncFixture, ForwardDedupKeysOnOriginAndToken)
{
    // Regression: every endpoint numbers its calls from the same
    // counter start, so two different origins' requests routinely
    // carry EQUAL reply tokens. The owner-side forward dedup (which
    // exists so a manager's orphan replay after an outage cannot
    // double-grant) must therefore key on (origin, token) — deduping
    // on the bare token silently dropped the second origin's forward
    // and its acquire hung forever.
    nodes[1]->locks.acquire(13, AccessMode::Write); // 13 % 4 = node 1:
                                                    // manager-owned,
                                                    // message-free
    const auto forward = [&](NodeId origin, std::uint64_t token) {
        WireWriter w;
        w.putU32(13);
        w.putU8(static_cast<std::uint8_t>(AccessMode::Read));
        w.putU16(static_cast<std::uint16_t>(origin));
        w.putBlob({});
        Message msg;
        msg.src = 1; // the manager forwarding to itself-as-owner
        msg.dst = 1;
        msg.type = MsgType::LockForward;
        msg.replyToken = token;
        msg.payload = w.take();
        nodes[1]->locks.handleMessage(msg);
    };

    forward(0, 500);
    EXPECT_EQ(nodes[1]->locks.pendingRemoteCount(13), 1u);
    forward(0, 500); // true duplicate (an orphan replay): dropped
    EXPECT_EQ(nodes[1]->locks.pendingRemoteCount(13), 1u);
    forward(2, 500); // same token, DIFFERENT origin: a distinct request
    EXPECT_EQ(nodes[1]->locks.pendingRemoteCount(13), 2u);
    forward(0, 501); // same origin, new token: also distinct
    EXPECT_EQ(nodes[1]->locks.pendingRemoteCount(13), 3u);
    // The queued grants are never released: the fixture tears the
    // cluster down with the lock still held, which is exactly what we
    // want — no reply choreography, just the dedup keying.
}

TEST_F(SyncFixture, ManagersOwnWriteRequestSkipsTheWire)
{
    expectManagerStepInPlace(AccessMode::Write);
}

TEST_F(SyncFixture, ManagersOwnReadRequestSkipsTheWire)
{
    expectManagerStepInPlace(AccessMode::Read);
}

TEST_F(SyncFixture, OrphanReplayOfAnInPlaceForwardIsDeduped)
{
    // The manager's own forward is recorded for orphan replay like any
    // other. Node 0 (lock 4's manager) takes the lock from owner node
    // 1 in place and releases it; then node 1 "recovers". The replay
    // carries the (origin, token) node 1 already granted, so node 1
    // drops it: nothing queues and no second grant is sent.
    constexpr LockId kLock = 4;
    takeAndRelease(1, kLock, AccessMode::Write);
    takeAndRelease(0, kLock, AccessMode::Write);

    const std::uint64_t sent_by_owner = nodes[1]->stats.messagesSent;
    nodes[0]->locks.onPeerRecovered(1);
    EXPECT_EQ(nodes[0]->stats.orphanForwardsReplayed, 1u);

    // Lock 5 is node 1's own: node 0's request for it follows the
    // replay on the 0 -> 1 channel, so once it is granted node 1 has
    // handled the replay.
    takeAndRelease(0, 5, AccessMode::Write);
    EXPECT_EQ(nodes[1]->locks.pendingRemoteCount(kLock), 0u);
    EXPECT_EQ(nodes[1]->stats.messagesSent - sent_by_owner, 1u)
        << "only lock 5's grant";

    // Node 0 still owns lock 4: it takes and releases it locally.
    const std::uint64_t sent = messagesSent();
    takeAndRelease(0, kLock, AccessMode::Write);
    EXPECT_EQ(messagesSent(), sent);
}

TEST_F(SyncFixture, BarrierBlocksUntilAllArrive)
{
    std::atomic<int> arrived{0};
    std::atomic<int> departed{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kNodes; ++i) {
        threads.push_back(spawnNode(i, [&, i] {
            arrived.fetch_add(1);
            nodes[i]->barriers.wait(9);
            // Everyone must have arrived before anyone departs.
            EXPECT_EQ(arrived.load(), kNodes);
            departed.fetch_add(1);
        }));
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(departed.load(), kNodes);
}

TEST_F(SyncFixture, BarrierReusableAcrossGenerations)
{
    for (int round = 0; round < 3; ++round) {
        std::vector<std::thread> threads;
        for (int i = 0; i < kNodes; ++i) {
            threads.push_back(
                spawnNode(i, [&, i] { nodes[i]->barriers.wait(4); }));
        }
        for (auto &t : threads)
            t.join();
    }
    for (int i = 0; i < kNodes; ++i)
        EXPECT_EQ(nodes[i]->appStats.barriersEntered, 3u);
}

TEST_F(SyncFixture, BarrierHooksMergeAndDistribute)
{
    // Manager (node 0) sums arrival payloads and broadcasts the total.
    std::atomic<std::uint32_t> merged{0};
    BarrierHooks mgr;
    mgr.mergeArrival = [&](BarrierId, NodeId, WireReader &r) {
        merged.fetch_add(r.getU32());
    };
    mgr.makeDepart = [&](BarrierId, NodeId) {
        WireWriter w;
        w.putU32(merged.load());
        return w.take();
    };

    std::vector<std::uint32_t> got(kNodes, 0);
    for (int i = 0; i < kNodes; ++i) {
        BarrierHooks h = i == 0 ? mgr : BarrierHooks{};
        h.makeArrival = [i](BarrierId) {
            WireWriter w;
            w.putU32(1u << i);
            return w.take();
        };
        h.applyDepart = [&, i](BarrierId, WireReader &r) {
            got[i] = r.getU32();
        };
        if (i == 0) {
            h.mergeArrival = mgr.mergeArrival;
            h.makeDepart = mgr.makeDepart;
        }
        nodes[i]->barriers.setHooks(std::move(h));
    }

    std::vector<std::thread> threads;
    for (int i = 0; i < kNodes; ++i)
        threads.push_back(
            spawnNode(i, [&, i] { nodes[i]->barriers.wait(2); }));
    for (auto &t : threads)
        t.join();
    for (int i = 0; i < kNodes; ++i)
        EXPECT_EQ(got[i], 0b1111u) << "node " << i;
}

// ---------------------------------------------------------------------
// Per-lock adaptive fairness bound (lockFairnessAdaptive): each
// lock's hand-off bound seeds at 4 (no static k armed), doubles while
// local runs complete with no remote waiter queued, and halves every
// time the bound forces a remote grant.

TEST(AdaptiveFairness, SeedsGrowsAndShrinks)
{
    CostModel cm;
    Network net(2, cm);
    VirtualClock clocks[2];
    NodeStats stats[2];
    Endpoint ep0(net, 0, clocks[0], stats[0]);
    Endpoint ep1(net, 1, clocks[1], stats[1]);
    LockService locks0(ep0, /*threads_per_node=*/2,
                       /*local_handoff_bound=*/0,
                       /*adaptive_fairness=*/true);
    LockService locks1(ep1, 1, 0, true);
    ep0.setHandler([&](Message &msg) { locks0.handleMessage(msg); });
    ep1.setHandler([&](Message &msg) { locks1.handleMessage(msg); });
    ep0.start();
    ep1.start();

    // Untouched locks report the seed, never the static bound of 0.
    EXPECT_EQ(locks0.currentFairnessBound(0), 4u);

    NodeStats app;
    std::mutex appMu;
    const auto worker = [&](int node, int tid,
                            std::function<void()> fn) {
        return std::thread([&, node, tid, fn = std::move(fn)] {
            ThreadContext ctx;
            ctx.node = static_cast<NodeId>(node);
            ctx.threadId = tid;
            ctx.clock = node == 0 ? &clocks[0] : &clocks[1];
            ThreadContext::Scope scope(&ctx);
            fn();
            std::lock_guard<std::mutex> g(appMu);
            app += ctx.stats;
        });
    };

    // Phase 1 — grow: two node-0 threads ping-pong with no remote
    // interest. Every run of hand-offs that ends at a free release
    // doubles the bound (4 -> 8 -> ... -> 64 cap).
    {
        std::vector<std::thread> ts;
        for (int tid = 0; tid < 2; ++tid) {
            ts.push_back(worker(0, tid, [&] {
                for (int k = 0; k < 60; ++k) {
                    locks0.acquire(0, AccessMode::Write);
                    std::this_thread::yield();
                    locks0.release(0);
                }
            }));
        }
        for (auto &t : ts)
            t.join();
    }
    const std::uint32_t grown = locks0.currentFairnessBound(0);
    EXPECT_GT(grown, 4u);
    EXPECT_LE(grown, 64u);
    {
        std::lock_guard<std::mutex> g(appMu);
        EXPECT_GE(app.fairnessBoundGrows, 1u);
        EXPECT_EQ(app.fairnessBoundShrinks, 0u);
    }

    // Phase 2 — shrink, on a fresh lock still at the seed bound of 4,
    // driven in lockstep so no schedule can change the outcome.
    // Node-0 thread 0 takes grant 1; node 1's request then queues at
    // the owner, and only after that does thread 1 start. Each holder
    // of grants 1-4 releases only once its sibling is parked, and
    // re-acquires only after the sibling took the lock. So grants 1-4
    // are local hand-offs with the remote queued throughout, and the
    // release of grant 4 must force the remote grant (halving the
    // bound to 2). Thread 0's parked acquire then goes through the
    // manager, and its network grant restarts the run without growth.
    {
        std::atomic<int> granted{0};
        const auto waitUntil = [](auto ready) {
            while (!ready())
                std::this_thread::yield();
        };
        const auto localGrant = [&](int n) {
            locks0.acquire(2, AccessMode::Write);
            granted.store(n);
            waitUntil([&] { return locks0.localWaiterCount(2) == 1; });
            locks0.release(2);
        };
        std::thread t0 = worker(0, 0, [&] {
            localGrant(1);
            waitUntil([&] { return granted.load() == 2; });
            localGrant(3);
            waitUntil([&] { return granted.load() == 4; });
            locks0.acquire(2, AccessMode::Write);
            locks0.release(2);
        });
        waitUntil([&] { return granted.load() == 1; });
        std::thread remote = worker(1, 0, [&] {
            locks1.acquire(2, AccessMode::Write);
            locks1.release(2);
        });
        waitUntil([&] { return locks0.pendingRemoteCount(2) == 1; });
        std::thread t1 = worker(0, 1, [&] {
            localGrant(2);
            waitUntil([&] { return granted.load() == 3; });
            localGrant(4);
        });
        t0.join();
        t1.join();
        remote.join();
    }
    {
        std::lock_guard<std::mutex> g(appMu);
        EXPECT_EQ(app.fairnessBoundShrinks, 1u);
        EXPECT_EQ(app.remoteHandoffsForced, 1u);
    }
    EXPECT_EQ(locks0.currentFairnessBound(2), 2u);

    ep0.stop();
    ep1.stop();
    net.shutdown();
}

// With adaptiveness off, the per-lock view is just the static k.
TEST(AdaptiveFairness, StaticBoundReportedWhenOff)
{
    CostModel cm;
    Network net(1, cm);
    VirtualClock clock;
    NodeStats stats;
    Endpoint ep(net, 0, clock, stats);
    LockService locks(ep, 1, /*local_handoff_bound=*/7, false);
    EXPECT_EQ(locks.currentFairnessBound(9), 7u);
    net.shutdown();
}

} // namespace
} // namespace dsm

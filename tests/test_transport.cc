/**
 * @file
 * The tier-1 transport's unit surface: frame-codec round trips under
 * adversarial chunkings (partial reads, short writes, torn length
 * prefixes), oversized/malformed-frame rejection, socket-pair RPC
 * choreography over Unix-domain and TCP streams, retransmit recovery
 * under send-side fault injection, and the regression guards for
 * same-address-space assumptions (frames own value bytes; a socket
 * cluster's final memory is bit-identical to the ring tier's).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <thread>

#include "core/cluster.hh"
#include "core/shared_array.hh"
#include "driver/proc_launcher.hh"
#include "net/endpoint.hh"
#include "net/frame.hh"
#include "net/socket_transport.hh"
#include "net/serde.hh"

using namespace dsm;

namespace {

Message
makeMessage(NodeId src, NodeId dst, MsgType type,
            std::vector<std::byte> payload)
{
    Message m;
    m.src = src;
    m.dst = dst;
    m.type = type;
    m.isReply = type == MsgType::LockGrant;
    m.replyToken = 0xfeedULL + static_cast<std::uint64_t>(dst);
    m.vtSendNs = 123456;
    m.vtArriveNs = 234567;
    m.payload = std::move(payload);
    return m;
}

void
expectSameMessage(const Message &got, const Message &want)
{
    EXPECT_EQ(got.src, want.src);
    EXPECT_EQ(got.dst, want.dst);
    EXPECT_EQ(got.type, want.type);
    EXPECT_EQ(got.isReply, want.isReply);
    EXPECT_EQ(got.replyToken, want.replyToken);
    EXPECT_EQ(got.vtSendNs, want.vtSendNs);
    EXPECT_EQ(got.vtArriveNs, want.vtArriveNs);
    ASSERT_EQ(got.payload.size(), want.payload.size());
    EXPECT_EQ(std::memcmp(got.payload.data(), want.payload.data(),
                          want.payload.size()),
              0);
    // pairSeq never travels: the receiver's ring stamps it at push.
    EXPECT_EQ(got.pairSeq, 0u);
}

} // namespace

// ---------------------------------------------------------------------
// Frame codec: encode/decode round trips.

TEST(FrameCodec, DataFrameSurvivesEveryChunking)
{
    std::vector<std::byte> payload(37);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::byte>(i * 7 + 1);
    const Message msg =
        makeMessage(2, 5, MsgType::DiffBatchRequest, payload);
    const std::vector<std::byte> wire = encodeDataFrame(msg);

    // Split the wire bytes at every possible boundary, including in
    // the middle of the length prefix (the torn-prefix case).
    for (std::size_t cut = 0; cut <= wire.size(); ++cut) {
        FrameDecoder dec;
        Frame frame;
        dec.feed(std::span<const std::byte>(wire.data(), cut));
        if (cut < wire.size())
            EXPECT_FALSE(dec.next(frame)) << "cut at " << cut;
        dec.feed(std::span<const std::byte>(wire.data() + cut,
                                            wire.size() - cut));
        ASSERT_TRUE(dec.next(frame)) << "cut at " << cut;
        EXPECT_EQ(frame.kind, FrameKind::Data);
        expectSameMessage(frame.msg, msg);
        EXPECT_FALSE(dec.next(frame));
        EXPECT_EQ(dec.buffered(), 0u);
        EXPECT_FALSE(dec.poisoned());
    }
}

TEST(FrameCodec, RandomStreamsPropertyRoundTrip)
{
    // Property test: any sequence of frames, fed in any chunking,
    // decodes to the identical sequence. Seeded, so a failure is
    // reproducible.
    std::mt19937_64 rng(20260808);
    for (int round = 0; round < 30; ++round) {
        std::vector<Message> sent;
        std::vector<std::byte> stream;
        const auto append = [&stream](std::vector<std::byte> bytes) {
            stream.insert(stream.end(), bytes.begin(), bytes.end());
        };
        append(encodeHelloFrame(3, 8));
        const int msgs = 1 + static_cast<int>(rng() % 40);
        for (int i = 0; i < msgs; ++i) {
            std::vector<std::byte> payload(rng() % 512);
            for (auto &b : payload)
                b = static_cast<std::byte>(rng());
            const auto type = static_cast<MsgType>(
                1 + rng() % (static_cast<int>(MsgType::NumTypes) - 1));
            sent.push_back(makeMessage(3, 1, type, std::move(payload)));
            append(encodeDataFrame(sent.back()));
        }
        append(encodeGoodbyeFrame(3, 1));
        append(encodeGoodbyeFrame(3, 2));

        FrameDecoder dec;
        std::size_t fed = 0;
        std::vector<Frame> got;
        Frame frame;
        while (fed < stream.size()) {
            const std::size_t n =
                std::min(stream.size() - fed,
                         static_cast<std::size_t>(1 + rng() % 97));
            dec.feed(std::span<const std::byte>(stream.data() + fed, n));
            fed += n;
            while (dec.next(frame))
                got.push_back(frame);
        }
        ASSERT_FALSE(dec.poisoned());
        ASSERT_EQ(got.size(), sent.size() + 3u);
        EXPECT_EQ(got.front().kind, FrameKind::Hello);
        EXPECT_EQ(got.front().node, 3);
        EXPECT_EQ(got.front().nnodes, 8);
        for (std::size_t i = 0; i < sent.size(); ++i) {
            ASSERT_EQ(got[1 + i].kind, FrameKind::Data);
            expectSameMessage(got[1 + i].msg, sent[i]);
        }
        EXPECT_EQ(got[got.size() - 2].round, 1);
        EXPECT_EQ(got.back().kind, FrameKind::Goodbye);
        EXPECT_EQ(got.back().round, 2);
        EXPECT_EQ(dec.buffered(), 0u);
    }
}

TEST(FrameCodec, OversizedLengthPrefixPoisonsWithoutAllocating)
{
    // A corrupt length prefix above the cap must poison the decoder
    // immediately — never be treated as "wait for 4 GiB of body".
    FrameDecoder dec;
    const std::uint32_t huge = kMaxFrameBytes + 1;
    std::byte prefix[4];
    std::memcpy(prefix, &huge, sizeof(huge));
    dec.feed(std::span<const std::byte>(prefix, 4));
    Frame frame;
    EXPECT_FALSE(dec.next(frame));
    EXPECT_TRUE(dec.poisoned());

    // Poison is sticky: a subsequently fed well-formed frame must be
    // refused, because stream framing is already lost.
    const auto good = encodeHelloFrame(0, 2);
    dec.feed(std::span<const std::byte>(good.data(), good.size()));
    EXPECT_FALSE(dec.next(frame));
    EXPECT_TRUE(dec.poisoned());
}

TEST(FrameCodec, MalformedBodiesPoison)
{
    const auto poisonsAfter = [](std::vector<std::byte> wire,
                                 const char *what) {
        FrameDecoder dec;
        dec.feed(std::span<const std::byte>(wire.data(), wire.size()));
        Frame frame;
        EXPECT_FALSE(dec.next(frame)) << what;
        EXPECT_TRUE(dec.poisoned()) << what;
    };

    // Hello with a corrupted magic word.
    auto hello = encodeHelloFrame(1, 4);
    hello[5] ^= std::byte{0xff}; // first magic byte (after the prefix
                                 // and kind)
    poisonsAfter(std::move(hello), "bad magic");

    // Goodbye with an out-of-protocol round.
    auto goodbye = encodeGoodbyeFrame(1, 2);
    goodbye.back() = std::byte{7};
    poisonsAfter(std::move(goodbye), "bad round");

    // Data frame whose type byte is out of range.
    auto data = encodeDataFrame(
        makeMessage(0, 1, MsgType::LockRequest, {}));
    data[4 + 1 + 2 * sizeof(NodeId)] =
        std::byte{0xee}; // the type byte
    poisonsAfter(std::move(data), "bad msg type");

    // Truncated body: length prefix claims fewer bytes than the
    // smallest legal hello body.
    auto short_hello = encodeHelloFrame(1, 4);
    const std::uint32_t lied = 3;
    std::memcpy(short_hello.data(), &lied, sizeof(lied));
    short_hello.resize(4 + lied);
    poisonsAfter(std::move(short_hello), "short body");
}

TEST(FrameCodec, EncodedFrameOwnsItsBytes)
{
    // Same-address-space regression guard: the encoded frame must be
    // a deep copy of the message. If encoding ever captured a pointer
    // into the sender's buffers, clobbering and freeing the original
    // after encode would corrupt the wire bytes.
    std::vector<std::byte> payload(256, std::byte{0xab});
    Message msg = makeMessage(0, 1, MsgType::HomeDiffFlush, payload);
    std::vector<std::byte> wire = encodeDataFrame(msg);
    std::fill(msg.payload.begin(), msg.payload.end(), std::byte{0x00});
    msg.payload = std::vector<std::byte>(); // frees the allocation

    FrameDecoder dec;
    dec.feed(std::span<const std::byte>(wire.data(), wire.size()));
    Frame frame;
    ASSERT_TRUE(dec.next(frame));
    ASSERT_EQ(frame.msg.payload.size(), payload.size());
    EXPECT_EQ(std::memcmp(frame.msg.payload.data(), payload.data(),
                          payload.size()),
              0);
}

// ---------------------------------------------------------------------
// Socket-pair choreography: two SocketTransports in one process — the
// frame path, reader threads and receiver-side bypass are exactly the
// forked layout, minus the fork.

namespace {

struct SocketPairHarness
{
    explicit SocketPairHarness(SocketKind kind,
                               FaultInjector *injector = nullptr)
        : dir(makeRendezvousDir())
    {
        for (int i = 0; i < 2; ++i) {
            transports.push_back(std::make_unique<SocketTransport>(
                i, 2, cm, kind, dir));
            if (injector)
                transports.back()->setFaultInjector(injector);
        }
        std::thread dial([&] { transports[1]->connectPeers(5000); });
        transports[0]->connectPeers(5000);
        dial.join();
        for (int i = 0; i < 2; ++i) {
            eps.push_back(std::make_unique<Endpoint>(
                *transports[i], i, clocks[i], stats[i]));
        }
    }

    ~SocketPairHarness()
    {
        std::thread finish([&] { transports[1]->finishRun(); });
        transports[0]->finishRun();
        finish.join();
        for (auto &ep : eps)
            ep->stop();
        eps.clear();
        transports.clear();
        removeRendezvousDir(dir);
    }

    CostModel cm;
    std::string dir;
    std::vector<std::unique_ptr<SocketTransport>> transports;
    VirtualClock clocks[2];
    NodeStats stats[2];
    std::vector<std::unique_ptr<Endpoint>> eps;
};

void
runRpcSmoke(SocketPairHarness &h, int rounds,
            MsgType request = MsgType::LockRequest,
            MsgType response = MsgType::LockGrant)
{
    h.eps[1]->setHandler([&h, response](Message &msg) {
        WireWriter w;
        WireReader r(msg.payload);
        w.putU32(r.getU32() * 2);
        h.eps[1]->reply(msg.src, response, w.take(), msg.replyToken);
    });
    h.eps[0]->setHandler([](Message &) { FAIL(); });
    h.eps[0]->start();
    h.eps[1]->start();

    for (int i = 0; i < rounds; ++i) {
        WireWriter w;
        w.putU32(static_cast<std::uint32_t>(i));
        Message reply = h.eps[0]->call(1, request, w.take());
        WireReader r(reply.payload);
        ASSERT_EQ(r.getU32(), static_cast<std::uint32_t>(i) * 2)
            << "round " << i;
    }
}

} // namespace

TEST(SocketPair, RpcRoundTripsOverUnixStream)
{
    SocketPairHarness h(SocketKind::Unix);
    runRpcSmoke(h, 500);
    // Every request and reply crossed the transport.
    EXPECT_GE(h.transports[0]->totalMessages(), 500u);
    EXPECT_GE(h.transports[1]->totalMessages(), 500u);
    EXPECT_GE(h.stats[0].messagesReceived, 500u);
}

TEST(SocketPair, RpcRoundTripsOverTcpLoopback)
{
    SocketPairHarness h(SocketKind::Tcp);
    runRpcSmoke(h, 200);
    EXPECT_GE(h.transports[0]->totalMessages(), 200u);
}

TEST(SocketPair, RetransmitRecoversInjectedDrops)
{
    // The PR 6 fault plumbing rides the socket tier unchanged: the
    // send-side injector discards frames before the wire, and the
    // endpoint's deadline/retransmit/dedup choreography recovers
    // every RPC. Drops repeat per attempt until kAttemptImmunity, so
    // delivery is certain.
    FaultInjector injector(0xD15C0, 0.30);
    SocketPairHarness h(SocketKind::Unix, &injector);
    h.eps[0]->setFaultsEnabled(true);
    h.eps[1]->setFaultsEnabled(true);
    // Tight real-time retransmit clock: the virtual-clock deadline
    // charge stays modeled, but the waiting happens in wall time.
    h.eps[0]->setRetransmitTimeouts(1'000'000, 8'000'000);
    h.eps[1]->setRetransmitTimeouts(1'000'000, 8'000'000);
    // Diff RPCs are the droppable shape (requester owns the round
    // trip end to end); lock traffic is chain-routed and immune.
    runRpcSmoke(h, 300, MsgType::DiffBatchRequest,
                MsgType::DiffBatchReply);
    // With a 30% drop rate some requests or replies were certainly
    // lost and recovered; the deadline-path counter proves it engaged.
    EXPECT_GE(h.stats[0].retransmissions, 1u);
}

TEST(SocketPair, MarkNodeDownSurfacesPeerDownLocally)
{
    // The socket tier owns exactly one inbox; marking *this* node
    // down must surface RingPop::PeerDown to its service loop (the
    // degraded-mode dequeue contract), and clearing it must restore
    // normal timeouts. Remote marks are an in-process-only feature
    // and assert on the socket tier.
    CostModel cm;
    const std::string dir = makeRendezvousDir();
    {
        SocketTransport only(0, 1, cm, SocketKind::Unix, dir);
        Message out;
        EXPECT_EQ(only.recvTimed(0, out, 1'000'000), RingPop::Timeout);
        only.markNodeDown(0);
        // The status-aware dequeue refuses to park on a dead peer.
        EXPECT_EQ(only.recvStatus(0, out), RingPop::PeerDown);
        only.clearNodeDown(0);
        EXPECT_EQ(only.recvTimed(0, out, 1'000'000), RingPop::Timeout);
    }
    removeRendezvousDir(dir);
}

// ---------------------------------------------------------------------
// End-to-end: a forked socket cluster must land bit-identical memory
// to the in-process ring cluster — the conformance anchor in
// miniature, exercised regardless of DSM_TRANSPORT.

namespace {

std::vector<std::byte>
runCounterApp(const std::string &transport)
{
    ClusterConfig cc;
    cc.nprocs = 2;
    cc.runtime = RuntimeConfig::parse("LRC-diff");
    cc.transport = transport;
    Cluster cluster(cc);
    cluster.run([](Runtime &rt) {
        auto arr = SharedArray<int>::alloc(rt, 64);
        rt.barrier(0);
        for (int turn = 0; turn < 2; ++turn) {
            rt.acquire(1, AccessMode::Write);
            arr.set(7, arr.get(7) + 1 + rt.self());
            rt.release(1);
            rt.barrier(1 + turn);
        }
        rt.acquire(1, AccessMode::Read);
        (void)arr.get(7);
        rt.release(1);
        rt.barrier(9);
    });
    const std::byte *mem = cluster.memory(0, 0);
    return std::vector<std::byte>(mem, mem + 64 * sizeof(int));
}

} // namespace

TEST(SocketCluster, ForkedRunMatchesRingBitForBit)
{
    const std::vector<std::byte> ring = runCounterApp("ring");
    const std::vector<std::byte> socket = runCounterApp("socket");
    ASSERT_EQ(ring.size(), socket.size());
    EXPECT_EQ(std::memcmp(ring.data(), socket.data(), ring.size()), 0);
}

TEST(SocketCluster, AppExceptionPropagatesFromChildren)
{
    ClusterConfig cc;
    cc.nprocs = 2;
    cc.runtime = RuntimeConfig::parse("EC-diff");
    cc.transport = "socket";
    Cluster cluster(cc);
    EXPECT_THROW(cluster.run([](Runtime &rt) {
        rt.barrier(0);
        // Symmetric SPMD throw: every rank fails the same way, the
        // launcher collects the dumps and rethrows in the parent.
        throw std::runtime_error("deliberate");
    }),
                 std::runtime_error);
}

/** A socket run that arms an in-process-only feature moves to the
 *  ring, and says so once on stderr. */
TEST(SocketCluster, InProcessOnlyFallbackWarnsOnce)
{
    ClusterConfig cc;
    cc.nprocs = 2;
    cc.runtime = RuntimeConfig::parse("LRC-diff");
    cc.transport = "socket";
    cc.checkpointEvery = 1;
    testing::internal::CaptureStderr();
    Cluster cluster(cc);
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(cluster.config().transport, "ring");
    EXPECT_EQ(err,
              "warn: transport 'socket' falls back to 'ring': "
              "checkpointing runs in-process only\n");
}

/**
 * @file
 * Protocol tests for the LRC runtime: lazy invalidation at acquires
 * and barriers, access-miss fetches (diffs and timestamps), multiple
 * concurrent writers per page, interval/vector bookkeeping.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/cluster.hh"
#include "core/shared_array.hh"
#include "net/network.hh"

namespace dsm {
namespace {

ClusterConfig
lrcConfig(const std::string &name, int nprocs = 4,
          std::size_t page_size = 1024)
{
    ClusterConfig cc;
    cc.nprocs = nprocs;
    cc.arenaBytes = 1u << 20;
    cc.pageSize = page_size;
    cc.runtime = RuntimeConfig::parse(name);
    // Per-node scripted protocol test: roles key off rt.self(), so the
    // scenario only makes sense with one app thread per node (SMP
    // coverage lives in the worker-parametrized app/conformance/smp
    // suites). Pin T=1 so a DSM_THREADS sweep cannot redefine it.
    cc.threadsPerNode = 1;
    return cc;
}

class LrcConfigTest : public ::testing::TestWithParam<std::string>
{};

/** Lock acquire makes *all* shared data consistent (no binding). */
TEST_P(LrcConfigTest, AcquireCoversAllSharedData)
{
    Cluster cluster(lrcConfig(GetParam(), 2));
    cluster.run([](Runtime &rt) {
        auto a = SharedArray<int>::alloc(rt, 64);
        auto b = SharedArray<int>::alloc(rt, 64);
        rt.barrier(0);
        if (rt.self() == 0) {
            rt.acquire(1, AccessMode::Write);
            a.set(3, 33);
            b.set(5, 55);
            rt.release(1);
        }
        rt.barrier(1);
        if (rt.self() == 1) {
            rt.acquire(1, AccessMode::Write);
            // Both arrays are consistent after one acquire.
            ASSERT_EQ(a.get(3), 33);
            ASSERT_EQ(b.get(5), 55);
            rt.release(1);
        }
        rt.barrier(2);
    });
}

/** Causal chain through different locks: A -(L1)-> B -(L2)-> C must
 *  deliver A's writes to C. */
TEST_P(LrcConfigTest, CausalChainAcrossLocks)
{
    Cluster cluster(lrcConfig(GetParam(), 3));
    cluster.run([](Runtime &rt) {
        auto a = SharedArray<int>::alloc(rt, 16);
        rt.barrier(0);
        if (rt.self() == 0) {
            rt.acquire(1, AccessMode::Write);
            a.set(0, 100);
            rt.release(1);
        }
        rt.barrier(1);
        if (rt.self() == 1) {
            rt.acquire(1, AccessMode::Write);
            ASSERT_EQ(a.get(0), 100);
            a.set(1, a.get(0) + 1);
            rt.release(1);
            rt.acquire(2, AccessMode::Write);
            rt.release(2);
        }
        rt.barrier(2);
        if (rt.self() == 2) {
            rt.acquire(2, AccessMode::Write);
            ASSERT_EQ(a.get(0), 100);
            ASSERT_EQ(a.get(1), 101);
            rt.release(2);
        }
        rt.barrier(3);
    });
}

/** The multiple-writer protocol: two nodes write disjoint halves of
 *  the same page concurrently; both sets of writes survive the merge
 *  (no ping-pong, no lost updates). */
TEST_P(LrcConfigTest, MultiWriterPageMerges)
{
    Cluster cluster(lrcConfig(GetParam(), 2, 1024));
    cluster.run([](Runtime &rt) {
        auto a = SharedArray<int>::alloc(rt, 256); // exactly one page
        rt.barrier(0);
        const int self = rt.self();
        // Concurrent writers, disjoint words, same page.
        for (int i = 0; i < 128; ++i)
            a.set(self * 128 + i, self * 1000 + i);
        rt.barrier(1);
        for (int i = 0; i < 128; ++i) {
            ASSERT_EQ(a.get(i), i);
            ASSERT_EQ(a.get(128 + i), 1000 + i);
        }
        rt.barrier(2);
    });
}

/** Barrier distributes write notices globally. */
TEST_P(LrcConfigTest, BarrierPropagatesToAll)
{
    Cluster cluster(lrcConfig(GetParam(), 4));
    cluster.run([](Runtime &rt) {
        auto a = SharedArray<int>::alloc(rt, 64);
        rt.barrier(0);
        if (rt.self() == 2)
            a.set(7, 77);
        rt.barrier(1);
        ASSERT_EQ(a.get(7), 77);
        rt.barrier(2);
    });
}

/** Repeated producer/consumer rounds: intervals accumulate and the
 *  consumer always sees the newest value. */
TEST_P(LrcConfigTest, ProducerConsumerRounds)
{
    Cluster cluster(lrcConfig(GetParam(), 2));
    cluster.run([](Runtime &rt) {
        auto a = SharedArray<int>::alloc(rt, 8);
        rt.barrier(0);
        for (int round = 1; round <= 5; ++round) {
            if (rt.self() == 0)
                a.set(0, round);
            rt.barrier(2 * round - 1);
            ASSERT_EQ(a.get(0), round);
            rt.barrier(2 * round);
        }
    });
}

/** Migratory data under locks (the IS bucket pattern). */
TEST_P(LrcConfigTest, MigratoryCounterRing)
{
    Cluster cluster(lrcConfig(GetParam(), 4));
    RunResult result = cluster.run([](Runtime &rt) {
        auto a = SharedArray<int>::alloc(rt, 64);
        rt.barrier(0);
        for (int round = 0; round < 8; ++round) {
            rt.acquire(5, AccessMode::Write);
            // Each node increments every word once per turn; the lock
            // serializes, the protocol must deliver the predecessor's
            // writes.
            if (round % rt.nprocs() == static_cast<unsigned>(rt.self())
                % rt.nprocs()) {
                for (int i = 0; i < 64; ++i)
                    a.set(i, a.get(i) + 1);
            }
            rt.release(5);
            rt.barrier(1 + round);
        }
        for (int i = 0; i < 64; ++i)
            ASSERT_EQ(a.get(i), 8);
        rt.barrier(100);
    });
    EXPECT_GT(result.total.pagesInvalidated, 0u);
    EXPECT_GT(result.total.accessMisses, 0u);
}

/** Stale pages are only refreshed on access (laziness): acquiring an
 *  unrelated lock does not fetch data, the later read does. */
TEST_P(LrcConfigTest, FetchIsLazy)
{
    Cluster cluster(lrcConfig(GetParam(), 2));
    cluster.run([](Runtime &rt) {
        auto a = SharedArray<int>::alloc(rt, 64);
        rt.barrier(0);
        if (rt.self() == 0) {
            for (int i = 0; i < 64; ++i)
                a.set(i, 9);
        }
        rt.barrier(1);
        if (rt.self() == 1) {
            const auto misses_before = rt.stats().accessMisses;
            rt.acquire(3, AccessMode::Write);
            rt.release(3);
            // No data was touched: no access misses yet.
            EXPECT_EQ(rt.stats().accessMisses, misses_before);
            ASSERT_EQ(a.get(0), 9); // now the miss happens
            EXPECT_GT(rt.stats().accessMisses, misses_before);
        }
        rt.barrier(2);
    });
}

/** Sub-word stores are trapped at word granularity. */
TEST_P(LrcConfigTest, SubWordStores)
{
    Cluster cluster(lrcConfig(GetParam(), 2));
    cluster.run([](Runtime &rt) {
        GlobalAddr base = rt.sharedAlloc(64, 8, 4, "bytes");
        rt.barrier(0);
        if (rt.self() == 0) {
            rt.write<std::uint8_t>(base + 13, 0x5a);
            rt.write<std::uint16_t>(base + 30, 0xbeef);
        }
        rt.barrier(1);
        if (rt.self() == 1) {
            ASSERT_EQ(rt.read<std::uint8_t>(base + 13), 0x5a);
            ASSERT_EQ(rt.read<std::uint16_t>(base + 30), 0xbeef);
        }
        rt.barrier(2);
    });
}

INSTANTIATE_TEST_SUITE_P(Configs, LrcConfigTest,
                         ::testing::Values("LRC-ci", "LRC-time",
                                           "LRC-diff"),
                         [](const auto &info) {
                             std::string n = info.param;
                             for (char &c : n) {
                                 if (c == '-')
                                     c = '_';
                             }
                             return n;
                         });

TEST(LrcRuntimeMisc, BindLockIsEcOnly)
{
    ClusterConfig cc = lrcConfig("LRC-diff", 1);
    Cluster cluster(cc);
    EXPECT_DEATH(
        {
            cluster.run([](Runtime &rt) {
                GlobalAddr a = rt.sharedAlloc(16);
                rt.bindLock(1, {{a, 16}});
            });
        },
        "EC-only");
}

TEST(LrcRuntimeMisc, StatsReflectMechanisms)
{
    auto run = [](const std::string &name) {
        Cluster cluster(lrcConfig(name, 2));
        return cluster.run([](Runtime &rt) {
            auto arr = SharedArray<int>::alloc(rt, 64);
            rt.barrier(0);
            if (rt.self() == 0) {
                for (int i = 0; i < 64; ++i)
                    arr.set(i, i);
            }
            rt.barrier(1);
            if (rt.self() == 1)
                ASSERT_EQ(arr.get(10), 10);
            rt.barrier(2);
        });
    };
    RunResult ci = run("LRC-ci");
    EXPECT_GT(ci.total.dirtyStores, 0u);
    EXPECT_GT(ci.total.tsRunsSent, 0u);
    EXPECT_EQ(ci.total.twinsCreated, 0u);

    RunResult time = run("LRC-time");
    EXPECT_GT(time.total.twinsCreated, 0u);
    EXPECT_GT(time.total.tsRunsSent, 0u);
    EXPECT_EQ(time.total.diffsCreated, 0u);

    RunResult diff = run("LRC-diff");
    EXPECT_GT(diff.total.twinsCreated, 0u);
    EXPECT_GT(diff.total.diffsCreated, 0u);
    EXPECT_GT(diff.total.writeNoticesSent, 0u);
}

/**
 * Write-notice piggybacking: an access-miss reply that carries data
 * (and records) for intervals the requester has not yet heard of must
 * prevent the later arrival of those write notices from invalidating
 * the page again.
 *
 * Choreography (4 nodes, one shared page; phases sequenced with a
 * plain process atomic so no extra DSM synchronization leaks records):
 *   1. C writes word 8 under L2            -> interval (C,1)
 *   2. B writes word 4 under L1            -> interval (B,1)
 *   3. D acquires L1 from B                -> D knows (B,1) only
 *   4. B acquires L2 from C, reads word 8  -> B's copy + store hold
 *      (C,1), B's log holds its record
 *   5. A acquires L1 from D (learns (B,1) but NOT (C,1)), reads
 *      word 4 -> fetches from B, whose reply carries (C,1)'s data and
 *      piggybacks its record
 *   6. A acquires L2 from B: the (C,1) notice arrives, finds the copy
 *      already covering it, and the page stays valid — word 8 is
 *      readable with no second miss.
 */
RunResult
runNoticeChoreography(const std::string &config, std::uint64_t *a_misses)
{
    ClusterConfig cc = lrcConfig(config, 4);
    // The choreography below sequences nodes through captured host
    // atomics and reports misses through a captured pointer — both
    // require one address space, so this test stays on the in-process
    // transport regardless of DSM_TRANSPORT.
    cc.transport = "ring";
    Cluster cluster(cc);
    std::atomic<int> phase{0};
    auto reach = [&phase](int p) { phase.store(p); };
    auto await = [&phase](int p) {
        while (phase.load() < p)
            std::this_thread::yield();
    };

    RunResult result = cluster.run([&](Runtime &rt) {
        auto arr = SharedArray<int>::alloc(rt, 64);
        rt.barrier(0);
        switch (rt.self()) {
          case 2: // C
            rt.acquire(2, AccessMode::Write);
            arr.set(8, 42);
            rt.release(2);
            reach(1);
            break;
          case 1: // B
            await(1);
            rt.acquire(1, AccessMode::Write);
            arr.set(4, 7);
            rt.release(1);
            reach(2);
            await(3);
            rt.acquire(2, AccessMode::Write);
            EXPECT_EQ(arr.get(8), 42);
            rt.release(2);
            reach(4);
            break;
          case 3: // D
            await(2);
            rt.acquire(1, AccessMode::Write);
            rt.release(1);
            reach(3);
            break;
          case 0: { // A
            await(4);
            rt.acquire(1, AccessMode::Write);
            EXPECT_EQ(arr.get(4), 7);
            rt.release(1);
            const std::uint64_t misses_before = rt.stats().accessMisses;
            EXPECT_EQ(misses_before, 1u);
            rt.acquire(2, AccessMode::Write);
            EXPECT_EQ(arr.get(8), 42);
            rt.release(2);
            if (a_misses)
                *a_misses = rt.stats().accessMisses;
            reach(5);
            break;
          }
        }
        await(5);
    });
    return result;
}

TEST(LrcNoticePiggyback, DiffReplyOutrunsNotice)
{
    std::uint64_t a_misses = 0;
    RunResult r = runNoticeChoreography("LRC-diff", &a_misses);
    // The diff reply carried (C,1)'s data and record: the later
    // notice found the copy current and the page valid.
    EXPECT_EQ(a_misses, 1u);
    EXPECT_GE(r.perNode[0].reinvalidationsAvoided, 1u);
    EXPECT_GE(r.perNode[1].noticesPiggybacked, 1u);
}

TEST(LrcNoticePiggyback, TimestampCapLiftedVsSeed)
{
    // LRC-time is where notices that travel only with grants would
    // re-invalidate: without the piggybacked records a responder would
    // have to hold back the (C,1) stamps, beyond the requester's
    // vector, and the later notice would force a second miss on the
    // same page. The reply carries them with their record instead.
    std::uint64_t a_misses = 0;
    RunResult r = runNoticeChoreography("LRC-time", &a_misses);
    EXPECT_EQ(a_misses, 1u);
    EXPECT_GE(r.perNode[0].reinvalidationsAvoided, 1u);
}

// ---------------------------------------------------------------------
// A grant-side diff leaves a concurrent writer's word intact.
//
// Choreography (3 nodes, homeless LRC-diff): node A inflates its
// vector time with remote acquires of C-managed locks (each request
// closes the previous interval), then writes words 0 and 4 of page p
// under its own lock L1. Node B concurrently writes word 1 of p under
// its own lock L2 (both acquires are local: no messages, no record
// exchange), then requests L1, so A cuts its diff of p on its service
// thread at grant time. Node C then collects both records (L2 then L1)
// and reads p. Diffs apply in vtSum order, so A's diff lands after
// B's. A word-exact diff carries only words 0 and 4; a run that
// bridged word 1 would carry A's stale zero there and clobber B's 42.
TEST(LrcWordExactDiff, GrantSideDiffLeavesConcurrentWordIntact)
{
    Cluster cluster(lrcConfig("LRC-diff", 3));
    cluster.run([](Runtime &rt) {
        // 4 pages of ints: page 0 is the contended page p, pages 1-3
        // absorb A's vector-time inflation writes.
        auto a = SharedArray<int>::alloc(rt, 1024, 4, "exact");
        const int self = rt.self();
        rt.barrier(0);
        // Lock managers (lock % 3): L1=3 -> A, L2=4 -> B, the
        // inflation locks 5/8/11 -> C.
        if (self == 0) {
            // Inflate vt[A] past B's: every remote request closes the
            // previous interval (the grants from C close only empty
            // intervals, so vt[C] stays zero).
            for (LockId l : {5, 8, 11}) {
                rt.acquire(l, AccessMode::Write);
                a.set(256 * (l == 5 ? 1 : l == 8 ? 2 : 3), 7);
                rt.release(l);
            }
            rt.acquire(3, AccessMode::Write); // local: no close
            a.set(0, 1);
            a.set(4, 2);
            rt.release(3);
            // Idle past B's L1 request: the barrier arrival below
            // would close the open {q3, p} interval early. The
            // grant-side close must happen on our service thread when
            // B's request lands.
            std::this_thread::sleep_for(std::chrono::milliseconds(600));
        } else if (self == 1) {
            // Real-time ordering only (no causal edge — that would
            // leak A's records here or B's record to A early): A must
            // hold L1 before our request arrives so the grant-side
            // close covers A's writes to p.
            std::this_thread::sleep_for(std::chrono::milliseconds(300));
            rt.acquire(4, AccessMode::Write); // local: no messages
            a.set(1, 42);
            rt.release(4);
            rt.acquire(3, AccessMode::Write); // closes {p}, vtSum 1
            rt.release(3);
        } else {
            // C joins last, collects both records through the lock
            // chain, and reads the contested word.
            std::this_thread::sleep_for(std::chrono::milliseconds(900));
            rt.acquire(4, AccessMode::Write); // B's record: p @ vtSum 1
            rt.release(4);
            rt.acquire(3, AccessMode::Write); // A's record: p @ vtSum 3
            // EXPECT, not ASSERT: returning early would skip the
            // barrier below and leave the other nodes waiting forever.
            EXPECT_EQ(a.get(1), 42)
                << "A's diff carried word 1 with its stale zero and "
                   "clobbered B's concurrent write";
            EXPECT_EQ(a.get(0), 1);
            EXPECT_EQ(a.get(4), 2);
            rt.release(3);
        }
        rt.barrier(1);
    });
}

// ---------------------------------------------------------------------
// Barrier departures stay within their own vector.
//
// The barrier manager (node 0) builds the departures one by one on its
// service thread. Its own departure can reach its app thread through
// the reply bypass while the others are still being built, and that
// app thread can close its next interval in between. The harness below
// wires three LRC nodes over a transport that forces this interleaving
// at barrier 1: after sending node 0's departure, the manager's service
// thread waits until node 0 has sent its barrier-2 arrival (so record
// (0,1) is in the manager's log) before building the other two.

/** The ring transport, forwarded whole: a gate overrides the calls
 *  it orders. */
class RingForwarder : public Transport
{
  public:
    RingForwarder(int nnodes, const CostModel &cm) : inner(nnodes, cm) {}

    void send(Message &&msg, NodeStats &stats) override
    {
        inner.send(std::move(msg), stats);
    }
    bool recv(NodeId node, Message &out) override
    {
        return inner.recv(node, out);
    }
    RingPop recvStatus(NodeId node, Message &out) override
    {
        return inner.recvStatus(node, out);
    }
    RingPop recvTimed(NodeId node, Message &out,
                      std::uint64_t timeout_ns) override
    {
        return inner.recvTimed(node, out, timeout_ns);
    }
    void markNodeDown(NodeId node) override { inner.markNodeDown(node); }
    void clearNodeDown(NodeId node) override { inner.clearNodeDown(node); }
    void setFaultInjector(FaultInjector *injector) override
    {
        inner.setFaultInjector(injector);
    }
    void setReplyReceiver(NodeId node, ReplyReceiver *receiver) override
    {
        inner.setReplyReceiver(node, receiver);
    }
    void noteDispatched(NodeId dst, NodeId src) override
    {
        inner.noteDispatched(dst, src);
    }
    void setAdaptiveInboxSpin(bool on) override
    {
        inner.setAdaptiveInboxSpin(on);
    }
    void shutdown() override { inner.shutdown(); }
    int nnodes() const override { return inner.nnodes(); }
    const CostModel &costModel() const override
    {
        return inner.costModel();
    }
    std::uint64_t totalMessages() const override
    {
        return inner.totalMessages();
    }

  protected:
    Network inner;
};

/** The ring transport, plus the forced interleaving described above. */
class DepartureGate final : public RingForwarder
{
  public:
    using RingForwarder::RingForwarder;

    void
    send(Message &&msg, NodeStats &stats) override
    {
        const bool manager_arrival =
            msg.type == MsgType::BarrierArrive && msg.src == 0;
        // Barrier 1 is node 0's second arrival. Decide before sending:
        // the bypassed departure can let node 0 send its third arrival
        // before this thread takes the lock below.
        bool gate_depart = false;
        if (msg.type == MsgType::BarrierDepart && msg.dst == 0) {
            std::lock_guard<std::mutex> g(mu);
            gate_depart = managerArrivals == 2;
        }
        inner.send(std::move(msg), stats);
        std::unique_lock<std::mutex> g(mu);
        if (manager_arrival) {
            ++managerArrivals;
            cv.notify_all();
        }
        if (gate_depart) {
            gateHeld = cv.wait_for(g, std::chrono::seconds(10),
                                   [&] { return managerArrivals == 3; });
        }
    }

    /** Block until node 0 has sent @p n barrier arrivals. */
    void
    awaitManagerArrivals(int n)
    {
        std::unique_lock<std::mutex> g(mu);
        cv.wait(g, [&] { return managerArrivals >= n; });
    }

    /** Did node 0's next arrival (not the timeout) open the gate? */
    bool
    interleaved()
    {
        std::lock_guard<std::mutex> g(mu);
        return gateHeld;
    }

  private:
    std::mutex mu;
    std::condition_variable cv;
    int managerArrivals = 0;
    bool gateHeld = false;
};

/** One LRC node wired the way Cluster wires it, on any transport. */
struct GateNode
{
    GateNode(const ClusterConfig &cc, Transport &net, NodeId id)
        : arena(cc.arenaBytes, cc.pageSize), ep(net, id, clock, stats),
          locks(ep), barriers(ep)
    {
        Runtime::Deps deps;
        deps.self = id;
        deps.nprocs = cc.nprocs;
        deps.arena = &arena;
        deps.endpoint = &ep;
        deps.locks = &locks;
        deps.barriers = &barriers;
        deps.regions = &regions;
        deps.nodeLocks = &nlocks;
        deps.cluster = &cc;
        rt = std::make_unique<LrcRuntime>(deps);
        ep.setHandler([this](Message &msg) {
            if (msg.type == MsgType::BarrierArrive)
                barriers.handleMessage(msg);
            else
                rt->handleMessage(msg);
        });
    }

    VirtualClock clock;
    NodeStats stats;
    NodeLocks nlocks;
    SharedArena arena;
    RegionTable regions;
    Endpoint ep;
    LockService locks;
    BarrierService barriers;
    std::unique_ptr<LrcRuntime> rt;
};

TEST(LrcBarrierDepart, RecordsStayWithinTheDepartureVector)
{
    constexpr int kNodes = 3;
    ClusterConfig cc = lrcConfig("LRC-diff", kNodes);
    DepartureGate net(kNodes, cc.cost);
    std::vector<std::unique_ptr<GateNode>> nodes;
    for (int i = 0; i < kNodes; ++i)
        nodes.push_back(std::make_unique<GateNode>(cc, net, i));
    for (auto &n : nodes)
        n->ep.start();

    std::vector<std::thread> workers;
    for (int i = 0; i < kNodes; ++i) {
        workers.emplace_back([&, i] {
            // App-side counters go to this private context, so the
            // node stats hold exactly the service thread's departures.
            ThreadContext ctx;
            ctx.node = i;
            ctx.worker = i;
            ctx.numWorkers = kNodes;
            ctx.clock = &nodes[i]->clock;
            ThreadContext::Scope scope(&ctx);
            Runtime &rt = *nodes[i]->rt;
            auto a = SharedArray<int>::alloc(rt, 64);
            rt.barrier(0);
            // Node 0 arrives first, so its departure is built first.
            if (i != 0)
                net.awaitManagerArrivals(2);
            rt.barrier(1);
            if (i == 0)
                a.set(0, 1); // interval (0,1), closed by the next arrival
            rt.barrier(2);
        });
    }
    for (auto &t : workers)
        t.join();
    for (auto &n : nodes)
        n->ep.stop();
    net.shutdown();

    ASSERT_TRUE(net.interleaved());
    // Record (0,1) belongs to barrier 2: its departures to nodes 1 and
    // 2 carry it once each. A barrier-1 departure that leaked it would
    // make barrier 2 send it again.
    EXPECT_EQ(nodes[0]->stats.writeNoticesSent, 2u);
}

// ---------------------------------------------------------------------
// The barrier-GC trigger counts only records within the node's vector.
//
// The barrier manager (node 0) merges each arrival's interval records
// into its log when the arrival lands, which can be before node 0 runs
// its own pre-barrier GC check. Counting those records would let node
// 0 validate one barrier early, alone, and only when node 1 happened
// to arrive first. The gate below forces that order at every barrier:
// node 0 enters a barrier only once node 1's arrival at it has been
// dispatched on node 0. Node 0 gets no reply bypass, so every message
// node 1 sends it passes its inbox in order.

/** The ring transport, plus node 1's arrivals counted as node 0
 *  dispatches them. */
class ArrivalFirstGate final : public RingForwarder
{
  public:
    using RingForwarder::RingForwarder;

    void
    send(Message &&msg, NodeStats &stats) override
    {
        if (msg.src != 1 || msg.dst != 0) {
            inner.send(std::move(msg), stats);
            return;
        }
        // Held across the push, so the queue below keeps inbox order.
        std::lock_guard<std::mutex> g(mu);
        queued.push_back(msg.type == MsgType::BarrierArrive);
        inner.send(std::move(msg), stats);
    }

    void
    setReplyReceiver(NodeId node, ReplyReceiver *receiver) override
    {
        inner.setReplyReceiver(node, node == 0 ? nullptr : receiver);
    }

    void
    noteDispatched(NodeId dst, NodeId src) override
    {
        inner.noteDispatched(dst, src);
        if (dst != 0 || src != 1)
            return;
        std::lock_guard<std::mutex> g(mu);
        if (queued.front())
            ++arrivalsDispatched;
        queued.pop_front();
        cv.notify_all();
    }

    /** Block until node 0 has dispatched @p n arrivals of node 1. */
    void
    awaitArrivals(int n)
    {
        std::unique_lock<std::mutex> g(mu);
        cv.wait(g, [&] { return arrivalsDispatched >= n; });
    }

  private:
    std::mutex mu;
    std::condition_variable cv;
    /** Node 1's undispatched messages to node 0: is each an arrival? */
    std::deque<bool> queued;
    int arrivalsDispatched = 0;
};

TEST(LrcBarrierGc, TriggerIgnoresRecordsThatArriveAtTheBarrier)
{
    // Node 0 writes a word of pages B and C once, before barrier 0, so
    // barrier GC keeps (validates) them rather than discarding them
    // (DESIGN.md §10). Node 1 then rewrites A, B and C in each of 13
    // rounds (one interval each), node 0 reads A in every round, and
    // GC triggers at 7 records, node 0's one included. A fully
    // rewritten 4 KiB page brings a ride-along over 4 KiB, so B and C
    // ride along on A's misses in rounds 1-4 and are skipped from
    // round 5 on. Both nodes validate at the end of rounds 6 and 13
    // (barriers 12 and 26); a validation fetches B, and C rides along.
    constexpr int kNodes = 2;
    constexpr int kRounds = 13;
    constexpr int kPageInts = 1024;
    const auto value = [](int round, int page, int i) {
        return round * 100000 + page * 10000 + i;
    };
    for (const std::string name : {"LRC-diff", "LRC-time"}) {
        SCOPED_TRACE(name);
        ClusterConfig cc = lrcConfig(name, kNodes, 4096);
        cc.gcIntervalThreshold = 7;
        ArrivalFirstGate net(kNodes, cc.cost);
        std::vector<std::unique_ptr<GateNode>> nodes;
        for (int i = 0; i < kNodes; ++i)
            nodes.push_back(std::make_unique<GateNode>(cc, net, i));
        for (auto &n : nodes)
            n->ep.start();

        std::vector<ThreadContext> ctx(kNodes);
        std::vector<std::thread> workers;
        for (int i = 0; i < kNodes; ++i) {
            workers.emplace_back([&, i] {
                ctx[i].node = i;
                ctx[i].worker = i;
                ctx[i].numWorkers = kNodes;
                ctx[i].clock = &nodes[i]->clock;
                ThreadContext::Scope scope(&ctx[i]);
                Runtime &rt = *nodes[i]->rt;
                auto a = SharedArray<int>::alloc(rt, 3 * kPageInts);
                const auto barrier = [&](BarrierId b) {
                    if (i == 0)
                        net.awaitArrivals(static_cast<int>(b) + 1);
                    rt.barrier(b);
                };
                const auto expect_page = [&](int page, int round) {
                    std::vector<int> got(kPageInts);
                    a.load(static_cast<std::size_t>(page) * kPageInts,
                           got.data(), kPageInts);
                    int wrong = 0;
                    for (int w = 0; w < kPageInts; ++w)
                        wrong += got[w] != value(round, page, w);
                    EXPECT_EQ(wrong, 0)
                        << "page " << page << ", round " << round;
                };
                if (i == 0) {
                    a.set(kPageInts, -1);
                    a.set(2 * kPageInts, -1);
                }
                barrier(0);
                std::vector<int> words(3 * kPageInts);
                for (int round = 1; round <= kRounds; ++round) {
                    if (i == 1) {
                        for (int w = 0; w < 3 * kPageInts; ++w)
                            words[w] = value(round, w / kPageInts,
                                             w % kPageInts);
                        a.store(0, words.data(), words.size());
                    }
                    barrier(2 * round - 1);
                    if (i == 0)
                        expect_page(0, round);
                    barrier(2 * round);
                }
                if (i == 0) {
                    for (int page = 0; page < 3; ++page)
                        expect_page(page, kRounds);
                }
            });
        }
        for (auto &t : workers)
            t.join();
        for (auto &n : nodes)
            n->ep.stop();
        net.shutdown();

        const NodeStats &s = ctx[0].stats;
        const bool diffing = name == "LRC-diff";
        EXPECT_EQ(s.accessMisses, 13u);
        // A miss per round, and one fetch per validation.
        EXPECT_EQ(diffing ? s.diffRequestsSent : s.tsRequestsSent, 15u);
        EXPECT_EQ(s.piggybacksSkipped, 18u);
        EXPECT_EQ(diffing ? s.diffPagesPiggybacked : s.tsPagesPiggybacked,
                  10u);
        EXPECT_EQ(s.gcRounds, 2u);
        EXPECT_EQ(ctx[1].stats.gcRounds, 2u);
    }
}

} // namespace
} // namespace dsm

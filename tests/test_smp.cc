/**
 * @file
 * SMP-node tests: the threads-per-node axis opened by the layered
 * concurrency refactor.
 *
 *  - Intra-node lock hand-off: a lock contended only by threads of one
 *    node transfers through the local waiter queue — zero network
 *    messages, counted by intraNodeLockHandoffs.
 *  - Same-node concurrent writers: one twin per (page, interval)
 *    regardless of how many sibling threads store to the page, and no
 *    write is lost.
 *  - An EC read hold does not exclude a sibling's write hold, so the
 *    read copy is ordered against the sibling's stores by the memory
 *    shards: each copy sees one whole store.
 *  - T=1 parity: with threadsPerNode == 1 (and the satellite policy
 *    knobs pinned to their legacy values) the deterministic protocol
 *    counters of the barrier-separated apps are bit-identical to the
 *    pre-refactor golden frozen in tests/data/t1_parity_golden.txt.
 *    (Exec times and traffic byte counts are schedule-dependent even
 *    in the seed — the centralized managers serve real arrival order —
 *    so the golden pins exactly the counters that are stable across
 *    seed runs.)
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/cluster.hh"
#include "core/shared_array.hh"
#include "driver/experiment.hh"

namespace dsm {
namespace {

// ---------------------------------------------------------------------
// Intra-node hand-off bypasses the network.

TEST(SmpNodes, IntraNodeHandoffZeroMessages)
{
    // One node, four threads hammering one write lock: every acquire
    // is either the local fast path or a hand-off from a sibling;
    // nothing may send a protocol message. (A raw atomic start gate
    // keeps all four threads in the contention window — the run is so
    // short that without it the first thread can finish before its
    // siblings are even scheduled.)
    ClusterConfig cc;
    cc.nprocs = 1;
    cc.threadsPerNode = 4;
    cc.arenaBytes = 1u << 20;
    cc.pageSize = 1024;
    cc.runtime = RuntimeConfig::parse("LRC-diff");
    Cluster cluster(cc);

    constexpr int kIters = 2000;
    std::atomic<int> gate{0};
    RunResult r = cluster.run([&](Runtime &rt) {
        auto a = SharedArray<std::uint64_t>::alloc(rt, 8, 4, "ctr");
        gate.fetch_add(1);
        while (gate.load() < 4)
            std::this_thread::yield();
        for (int i = 0; i < kIters; ++i) {
            rt.acquire(5, AccessMode::Write);
            a.set(0, a.get(0) + 1);
            std::this_thread::yield();
            rt.release(5);
        }
    });

    // messagesSent counts protocol traffic (networkMessages would
    // also see the teardown shutdown self-message).
    EXPECT_EQ(r.total.messagesSent, 0u)
        << "single-node lock traffic must never reach the network";
    EXPECT_GT(r.total.intraNodeLockHandoffs, 0u)
        << "contended sibling acquires must be served by hand-off";
    EXPECT_EQ(r.total.locksAcquired,
              static_cast<std::uint64_t>(4 * kIters));
    const std::uint64_t *v = reinterpret_cast<const std::uint64_t *>(
        cluster.memory(0, 0));
    EXPECT_EQ(*v, static_cast<std::uint64_t>(4 * kIters));
}

TEST(SmpNodes, HandoffShortCircuitsAfterRemoteFetch)
{
    // Two nodes x two threads. Lock 1 is managed by node 1 but used
    // only by node 0's threads: the first acquire crosses the network
    // once; every transfer after that is intra-node. Message traffic
    // must not scale with the iteration count.
    ClusterConfig cc;
    cc.nprocs = 2;
    cc.threadsPerNode = 2;
    cc.arenaBytes = 1u << 20;
    cc.pageSize = 1024;
    cc.runtime = RuntimeConfig::parse("LRC-diff");
    Cluster cluster(cc);

    constexpr int kIters = 100;
    std::atomic<bool> taken{false};
    RunResult r = cluster.run([&](Runtime &rt) {
        auto a = SharedArray<std::uint64_t>::alloc(rt, 8, 4, "ctr");
        rt.barrier(0);
        if (rt.self() == 0) {
            for (int i = 0; i < kIters; ++i) {
                rt.acquire(1, AccessMode::Write);
                a.set(1, a.get(1) + 1);
                // The first holder keeps the lock until its sibling
                // has parked behind it, so at least one transfer is a
                // hand-off whatever the host schedule.
                if (!taken.exchange(true)) {
                    while (rt.lockService().localWaiterCount(1) != 1)
                        std::this_thread::yield();
                }
                rt.release(1);
            }
        }
        rt.barrier(1);
    });

    EXPECT_GT(r.total.intraNodeLockHandoffs, 0u);
    // 2 barriers + one manager round trip for the first acquire: far
    // below one message pair per acquire.
    EXPECT_LT(r.networkMessages, static_cast<std::uint64_t>(kIters));
    const std::uint64_t *v = reinterpret_cast<const std::uint64_t *>(
        cluster.memory(0, 8));
    EXPECT_EQ(*v, static_cast<std::uint64_t>(2 * kIters));
}

// ---------------------------------------------------------------------
// Bounded local priority: a remote requester is served within k local
// hand-offs (the sharing-policy fairness bound).

TEST(SmpNodes, BoundedHandoffServesRemoteRequester)
{
    // Node 0's two workers monopolize lock 2 (managed by node 0) in a
    // tight hand-off loop; node 1's worker 0 requests it once the
    // local chain is running. Under pure local-first hand-off the
    // remote request can wait out the entire batch; with
    // lockLocalHandoffBound = 4 the release that would start the 5th
    // consecutive hand-off with the request queued must serve node 1
    // instead. The hammering only stops after the remote was served,
    // so the lock is contended for the whole window.
    constexpr int kBound = 4;
    constexpr int kMaxIters = 500000;
    ClusterConfig cc;
    cc.nprocs = 2;
    cc.threadsPerNode = 2;
    cc.arenaBytes = 1u << 20;
    cc.pageSize = 1024;
    cc.runtime = RuntimeConfig::parse("LRC-diff");
    cc.lockLocalHandoffBound = kBound;
    // Cross-node choreography via captured host atomics (done /
    // queuedAt / servedAt) needs one address space; pin to the
    // in-process transport.
    cc.transport = "ring";
    Cluster cluster(cc);

    std::atomic<std::uint64_t> done{0};   // node 0 releases so far
    std::atomic<std::int64_t> queuedAt{-1};
    std::atomic<std::int64_t> servedAt{-1};
    std::atomic<bool> remoteDone{false};

    RunResult r = cluster.run([&](Runtime &rt) {
        auto a = SharedArray<std::uint64_t>::alloc(rt, 8, 4, "ctr");
        rt.barrier(0);
        if (rt.self() == 0) {
            for (int i = 0; i < kMaxIters && !remoteDone.load(); ++i) {
                rt.acquire(2, AccessMode::Write);
                a.set(0, a.get(0) + 1);
                // Hold the lock until the sibling has provably
                // parked: every release is then a decision point with
                // a local waiter present, so the remote can only be
                // served through the fairness bound — never through
                // an idle-lock drain the host scheduler happens to
                // open up. While holding, record when the remote
                // request lands in the pending queue (the moment the
                // fairness clock starts).
                for (;;) {
                    if (queuedAt.load() < 0 &&
                        rt.lockService().pendingRemoteCount(2) > 0) {
                        queuedAt.store(
                            static_cast<std::int64_t>(done.load()));
                    }
                    if (rt.lockService().localWaiterCount(2) > 0 ||
                        remoteDone.load()) {
                        break;
                    }
                    std::this_thread::yield();
                }
                rt.release(2);
                done.fetch_add(1);
            }
        } else if (rt.threadId() == 0) {
            // Wait until the reacquire loop on node 0 is hot, then
            // request once.
            while (done.load() < 50)
                std::this_thread::yield();
            rt.acquire(2, AccessMode::Write);
            servedAt.store(static_cast<std::int64_t>(done.load()));
            a.set(1, 1);
            rt.release(2);
            remoteDone.store(true);
        }
        rt.barrier(1);
    });

    ASSERT_GE(servedAt.load(), 0)
        << "the remote requester was never served";
    EXPECT_GE(r.total.remoteHandoffsForced, 1u)
        << "the fairness bound must have forced the grant";
    // From the moment the request is queued at node 0 it waits out at
    // most k further local grants; the slack covers the probe lag and
    // the release already in flight. (A request that arrives in the
    // instants between the holder's last probe and its release is
    // served before the probe can see it — an even tighter bound —
    // so the timing claim is checked whenever the probe caught it.)
    if (queuedAt.load() >= 0) {
        EXPECT_LE(servedAt.load() - queuedAt.load(), kBound + 8)
            << "the remote request waited out "
            << servedAt.load() - queuedAt.load() << " local grants";
    }
    // The warm-up monopolization itself: at least 50 uncontested-by-
    // remotes local grants ran back to back before the request came
    // in (on a one-core host these may all be fast-path barges past
    // the parked sibling — still local grants, still the run the
    // bound caps).
    EXPECT_GE(r.total.maxLocalHandoffRun,
              static_cast<std::uint64_t>(kBound));
}

// ---------------------------------------------------------------------
// Same-node concurrent writers share one twin per (page, interval).

TEST(SmpNodes, SiblingWritersShareOneTwin)
{
    // One node, four threads, one page: every thread stores to its own
    // quarter between barriers. Only the first faulting store of each
    // interval may create a twin; with 2 barrier-separated intervals
    // that is at most 2 twins, and every word must survive.
    ClusterConfig cc;
    cc.nprocs = 1;
    cc.threadsPerNode = 4;
    cc.arenaBytes = 1u << 20;
    cc.pageSize = 1024;
    cc.runtime = RuntimeConfig::parse("LRC-diff");
    Cluster cluster(cc);

    constexpr int kWords = 256; // one 1024-byte page of ints
    RunResult r = cluster.run([&](Runtime &rt) {
        auto a = SharedArray<int>::alloc(rt, kWords, 4, "page");
        const int t = rt.threadId();
        const int lo = t * kWords / 4;
        const int hi = (t + 1) * kWords / 4;
        rt.barrier(0);
        for (int i = lo; i < hi; ++i)
            a.set(i, 1000 + i);
        rt.barrier(1);
        for (int i = lo; i < hi; ++i)
            a.set(i, a.get(i) + 1);
        rt.barrier(2);
    });

    EXPECT_LE(r.total.twinsCreated, 2u)
        << "sibling writers must share the page's twin, not race "
           "to create their own";
    const int *got =
        reinterpret_cast<const int *>(cluster.memory(0, 0));
    for (int i = 0; i < kWords; ++i)
        ASSERT_EQ(got[i], 1001 + i) << "word " << i;
}

// ---------------------------------------------------------------------
// EC reads under a read hold vs a sibling's stores under the write
// hold (the pattern of SOR's boundary rows).

TEST(SmpNodes, EcReadHoldCopiesWholeSiblingStores)
{
    // One node, two threads, one bound range. Thread 1 takes the read
    // hold first; thread 0's write acquire does not wait on it
    // (LockService::acquire), so both hold lock 3 at once. Thread 0
    // then rewrites the whole range with generation g in one bulk
    // store per g while thread 1 copies it in one bulk load per
    // round. The shards serialize the two copies, so every load sees
    // a single generation.
    ClusterConfig cc;
    cc.nprocs = 1;
    cc.threadsPerNode = 2;
    cc.arenaBytes = 1u << 20;
    cc.pageSize = 1024;
    cc.runtime = RuntimeConfig::parse("EC-diff");
    // The choreography uses captured host atomics: one address space.
    cc.transport = "ring";
    Cluster cluster(cc);

    constexpr int kInts = 256;
    constexpr int kGens = 2000;
    std::atomic<bool> readerIn{false};
    std::atomic<bool> writerDone{false};
    std::atomic<int> loads{0};
    std::atomic<int> torn{0};
    cluster.run([&](Runtime &rt) {
        auto a = SharedArray<int>::alloc(rt, kInts, 4, "row");
        rt.bindLock(3, {a.wholeRange()});
        rt.barrier(0);
        if (rt.threadId() == 1) {
            rt.acquire(3, AccessMode::Read);
            readerIn.store(true);
            std::vector<int> got(kInts);
            do {
                a.load(0, got.data(), kInts);
                for (int v : got) {
                    if (v != got[0]) {
                        torn.fetch_add(1);
                        break;
                    }
                }
                loads.fetch_add(1);
            } while (!writerDone.load());
            rt.release(3);
        } else {
            while (!readerIn.load())
                std::this_thread::yield();
            rt.acquire(3, AccessMode::Write);
            std::vector<int> gen(kInts);
            for (int g = 1; g <= kGens; ++g) {
                std::fill(gen.begin(), gen.end(), g);
                a.store(0, gen.data(), kInts);
            }
            writerDone.store(true);
            rt.release(3);
        }
        rt.barrier(1);
    });

    EXPECT_GT(loads.load(), 0);
    EXPECT_EQ(torn.load(), 0)
        << "a read copy mixed two of the sibling's stores";
    const int *got =
        reinterpret_cast<const int *>(cluster.memory(0, 0));
    for (int i = 0; i < kInts; ++i)
        ASSERT_EQ(got[i], kGens) << "word " << i;
}

// ---------------------------------------------------------------------
// T=1 parity against the pre-refactor golden.

std::map<std::string, std::uint64_t>
loadGolden()
{
    const std::string path =
        std::string(DSM_SOURCE_DIR) + "/tests/data/t1_parity_golden.txt";
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing golden file " << path;
    std::map<std::string, std::uint64_t> golden;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        const auto split = line.rfind(' ');
        const auto eq = line.rfind('=');
        golden[line.substr(0, split) + " " +
               line.substr(split + 1, eq - split - 1)] =
            std::stoull(line.substr(eq + 1));
    }
    return golden;
}

TEST(SmpNodes, T1ParityAgainstPreRefactorGolden)
{
    // The refactor must be observationally invisible at the old
    // scenario point: threadsPerNode == 1. SOR and SOR+ are the
    // barrier-separated apps whose protocol counters are reproducible
    // run to run even in the seed; the golden lists exactly those.
    const auto golden = loadGolden();
    ASSERT_FALSE(golden.empty());

    AppParams params = AppParams::testScale();
    ClusterConfig cc;
    cc.nprocs = 8;
    cc.arenaBytes = 16u << 20;
    cc.pageSize = 4096;
    cc.threadsPerNode = 1;
    // Sharing-policy knobs pinned to their legacy values, so a
    // policy CI leg's environment (DSM_LOCK_FAIRNESS,
    // DSM_HOME_LAST_WRITER, DSM_HOME_DEFER, DSM_HOME_PINGPONG)
    // cannot perturb the golden counters (a last-writer migration
    // changes SOR's home-flush count).
    cc.lockLocalHandoffBound = 0;
    cc.homeMigrateLastWriter = 0;
    cc.homePingPongLimit = 0;
    cc.homeFlushDefer = 0;

    for (const std::string &app : {std::string("SOR"),
                                   std::string("SOR+")}) {
        for (const RuntimeConfig &config : RuntimeConfig::all()) {
            for (int home = 0; home <= 1; ++home) {
                if (home &&
                    !(config.model == Model::LRC &&
                      config.collect == CollectMethod::Diffing)) {
                    continue;
                }
                ClusterConfig run_cc = cc;
                run_cc.homeBasedLrc = home != 0;
                ExperimentResult r =
                    runExperiment(app, config, params, run_cc);
                const std::string key_base =
                    app + " " + config.name() + " home=" +
                    std::to_string(home) + " ";
                int compared = 0;
                for (const auto &[name, value] : r.run.total.items()) {
                    auto it = golden.find(key_base + name);
                    if (it == golden.end())
                        continue; // schedule-dependent counter
                    // Homeless LRC's invalidation/miss pair wobbles
                    // by one when a piggybacked write notice lands
                    // before vs after the app's next access — a host
                    // scheduling artifact (shows up only under an
                    // oversubscribed ctest -j), not a protocol
                    // divergence. Everything else must match exactly.
                    const bool scheduleCoupled =
                        name == "pagesInvalidated" ||
                        name == "accessMisses";
                    if (scheduleCoupled) {
                        const auto lo = it->second > 2
                            ? it->second - 2 : 0;
                        EXPECT_GE(value, lo)
                            << key_base << name
                            << " diverged from the pre-refactor golden";
                        EXPECT_LE(value, it->second + 2)
                            << key_base << name
                            << " diverged from the pre-refactor golden";
                    } else {
                        EXPECT_EQ(value, it->second)
                            << key_base << name
                            << " diverged from the pre-refactor golden";
                    }
                    ++compared;
                }
                EXPECT_GT(compared, 10) << key_base;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Equal-worker topologies agree on final memory for every protocol.

TEST(SmpNodes, TopologiesAgreeOnFinalState)
{
    // 8x1, 4x2, 2x4 and 1x8 run the same 8-worker program; node 0's
    // collected state must be bit-identical across topologies for each
    // protocol (the collector is worker 0 in every one).
    constexpr int kWords = 512;
    auto kernel = [](Runtime &rt) {
        const bool ec =
            rt.clusterConfig().runtime.model == Model::EC;
        const int np = rt.nworkers();
        const int self = rt.worker();
        auto a = SharedArray<std::int64_t>::alloc(rt, kWords, 4, "grid");
        if (ec) {
            for (int p = 0; p < np; ++p) {
                const int lo = p * kWords / np;
                const int hi = (p + 1) * kWords / np;
                rt.bindLock(static_cast<LockId>(10 + p),
                            {a.range(lo, hi - lo)});
            }
        }
        rt.barrier(0);
        const int lo = self * kWords / np;
        const int hi = (self + 1) * kWords / np;
        for (int step = 0; step < 4; ++step) {
            if (ec)
                rt.acquire(static_cast<LockId>(10 + self),
                           AccessMode::Write);
            for (int i = lo; i < hi; ++i)
                a.set(i, (step + 1) * 1000 + i * 7);
            if (ec)
                rt.release(static_cast<LockId>(10 + self));
            rt.barrier(1 + step);
        }
        if (rt.worker() == 0) {
            for (int p = 0; p < np && ec; ++p) {
                rt.acquire(static_cast<LockId>(10 + p),
                           AccessMode::Read);
                rt.release(static_cast<LockId>(10 + p));
            }
            for (int i = 0; i < kWords; ++i)
                a.get(i);
        }
        rt.barrier(99);
    };

    for (const char *config : {"EC-diff", "LRC-diff", "LRC-time"}) {
        for (int home = 0; home <= 1; ++home) {
            if (home && std::string(config) != "LRC-diff")
                continue;
            std::vector<std::byte> reference;
            for (auto [np, t] : {std::pair{8, 1}, std::pair{4, 2},
                                 std::pair{2, 4}, std::pair{1, 8}}) {
                ClusterConfig cc;
                cc.nprocs = np;
                cc.threadsPerNode = t;
                cc.arenaBytes = 1u << 20;
                cc.pageSize = 1024;
                cc.runtime = RuntimeConfig::parse(config);
                cc.homeBasedLrc = home != 0;
                cc.homeMigrateThreshold = 4;
                Cluster cluster(cc);
                cluster.run(kernel);
                std::vector<std::byte> state(kWords * 8);
                std::memcpy(state.data(), cluster.memory(0, 0),
                            state.size());
                if (reference.empty()) {
                    reference = state;
                } else {
                    ASSERT_EQ(state, reference)
                        << config << " home=" << home << " at " << np
                        << "x" << t;
                }
            }
        }
    }
}

} // namespace
} // namespace dsm

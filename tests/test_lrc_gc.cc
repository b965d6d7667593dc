/**
 * @file
 * Long-run tests for the fast-path memory pipeline: barrier-time
 * garbage collection of interval records and stored diffs (memory
 * stays bounded across many epochs), the batched diff-fetch protocol
 * (fewer request messages for the same final memory image), and the
 * routing of a homeless miss to its undominated writers (each missing
 * diff crosses the wire once).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/cluster.hh"
#include "core/shared_array.hh"
#include "mem/diff.hh"

namespace dsm {
namespace {

constexpr int kPagesTouched = 4;
constexpr int kIntsPerPage = 256; // 1024-byte pages
constexpr int kEpochs = 40;

ClusterConfig
gcConfig(const std::string &name, int nprocs)
{
    ClusterConfig cc;
    cc.nprocs = nprocs;
    cc.arenaBytes = 1u << 20;
    cc.pageSize = 1024;
    cc.runtime = RuntimeConfig::parse(name);
    // Per-node scripted protocol test: roles key off rt.self(), so the
    // scenario only makes sense with one app thread per node (SMP
    // coverage lives in the worker-parametrized app/conformance/smp
    // suites). Pin T=1 so a DSM_THREADS sweep cannot redefine it.
    cc.threadsPerNode = 1;
    return cc;
}

/**
 * Alternating producer/consumer over several pages, one interval per
 * node per epoch: the interval log grows steadily unless GC runs.
 */
void
epochWorkload(Runtime &rt)
{
    auto a = SharedArray<int>::alloc(rt, kPagesTouched * kIntsPerPage);
    rt.barrier(0);
    for (int round = 1; round <= kEpochs; ++round) {
        const int writer = round % rt.nprocs();
        if (rt.self() == writer) {
            for (int p = 0; p < kPagesTouched; ++p)
                a.set(p * kIntsPerPage + (round % kIntsPerPage),
                      round * 100 + p);
        }
        rt.barrier(2 * round - 1);
        for (int p = 0; p < kPagesTouched; ++p) {
            ASSERT_EQ(a.get(p * kIntsPerPage + (round % kIntsPerPage)),
                      round * 100 + p);
        }
        rt.barrier(2 * round);
    }
}

/** White-box log sizes read straight off the live runtimes. Only
 *  meaningful when the workers ran in this address space, so every
 *  test using these helpers pins cc.transport = "ring" — under a
 *  process-per-node transport the launcher-side runtimes stay
 *  pristine and the bounds would pass (or fail) vacuously. */
std::size_t
totalRecords(Cluster &cluster)
{
    std::size_t total = 0;
    for (int n = 0; n < cluster.nprocs(); ++n) {
        total += dynamic_cast<const LrcRuntime &>(cluster.runtime(n))
                     .intervalRecordCount();
    }
    return total;
}

std::size_t
totalStoredDiffs(Cluster &cluster)
{
    std::size_t total = 0;
    for (int n = 0; n < cluster.nprocs(); ++n) {
        total += dynamic_cast<const LrcRuntime &>(cluster.runtime(n))
                     .diffStoreSize();
    }
    return total;
}

TEST(LrcGc, IntervalAndDiffLogsStayBoundedAcrossEpochs)
{
    ClusterConfig cc = gcConfig("LRC-diff", 2);
    cc.gcAtBarriers = true;
    cc.gcIntervalThreshold = 16;
    cc.transport = "ring"; // white-box log inspection below
    Cluster cluster(cc);
    RunResult result = cluster.run(epochWorkload);

    // GC actually fired and reclaimed storage on every node.
    EXPECT_GT(result.total.gcRounds, 0u);
    EXPECT_GT(result.total.gcRecordsReclaimed, 0u);
    EXPECT_GT(result.total.gcDiffsReclaimed, 0u);

    // What remains is bounded by the threshold plus the records of the
    // epochs since the last collection — far below the ~2 records per
    // epoch an unbounded log accumulates.
    EXPECT_LE(totalRecords(cluster),
              2 * (cc.gcIntervalThreshold + 8));
    EXPECT_LT(totalStoredDiffs(cluster),
              2 * kPagesTouched * (cc.gcIntervalThreshold + 8));
}

TEST(LrcGc, AblationLogsGrowWithoutGc)
{
    ClusterConfig cc = gcConfig("LRC-diff", 2);
    cc.gcAtBarriers = false;
    cc.transport = "ring"; // white-box log inspection below
    Cluster cluster(cc);
    RunResult result = cluster.run(epochWorkload);

    EXPECT_EQ(result.total.gcRounds, 0u);
    EXPECT_EQ(result.total.gcRecordsReclaimed, 0u);
    // Every epoch leaves one interval record per node in every log.
    EXPECT_GE(totalRecords(cluster), 2u * kEpochs);
}

TEST(LrcGc, TimestampingRecordsArePrunedToo)
{
    ClusterConfig cc = gcConfig("LRC-time", 2);
    cc.gcAtBarriers = true;
    cc.gcIntervalThreshold = 16;
    cc.transport = "ring"; // white-box log inspection below
    Cluster cluster(cc);
    RunResult result = cluster.run(epochWorkload);

    EXPECT_GT(result.total.gcRounds, 0u);
    EXPECT_GT(result.total.gcRecordsReclaimed, 0u);
    EXPECT_LE(totalRecords(cluster),
              2 * (cc.gcIntervalThreshold + 8));
}

TEST(LrcGc, SingleNodePrunesItsOwnLog)
{
    ClusterConfig cc = gcConfig("LRC-diff", 1);
    cc.gcAtBarriers = true;
    cc.gcIntervalThreshold = 8;
    cc.transport = "ring"; // white-box log inspection below
    Cluster cluster(cc);
    cluster.run([](Runtime &rt) {
        auto a = SharedArray<int>::alloc(rt, 64);
        rt.barrier(0);
        for (int round = 1; round <= 30; ++round) {
            a.set(round % 64, round);
            rt.barrier(round);
        }
    });
    EXPECT_LE(totalRecords(cluster), cc.gcIntervalThreshold + 2);
}

// ---------------------------------------------------------------------
// Batched diff fetches.

constexpr int kFanOutRounds = 6;

/** One writer dirties several pages; every other node then reads them
 *  all. With batching, the first access miss piggybacks the remaining
 *  invalid pages into the same request pair. */
void
fanOutWorkload(Runtime &rt)
{
    auto a = SharedArray<int>::alloc(rt, kPagesTouched * kIntsPerPage);
    rt.barrier(0);
    for (int round = 1; round <= kFanOutRounds; ++round) {
        if (rt.self() == 0) {
            for (int p = 0; p < kPagesTouched; ++p)
                a.set(p * kIntsPerPage, round * 10 + p);
        }
        rt.barrier(2 * round - 1);
        for (int p = 0; p < kPagesTouched; ++p)
            ASSERT_EQ(a.get(p * kIntsPerPage), round * 10 + p);
        rt.barrier(2 * round);
    }
}

TEST(LrcBatch, BatchingCutsDiffRequestMessages)
{
    // Without cross-page piggybacking every miss is its own round trip
    // per (page, writer): both readers miss each of the writer's pages
    // once per round — the seed protocol's request count.
    constexpr std::uint64_t kUnbatchedRequests =
        2 * kPagesTouched * kFanOutRounds;
    for (const std::string name : {"LRC-diff", "LRC-time"}) {
        SCOPED_TRACE(name);
        const bool diffing = name == "LRC-diff";
        const auto requests = [&](const RunResult &r) {
            return diffing ? r.total.diffRequestsSent
                           : r.total.tsRequestsSent;
        };
        const auto piggybacked = [&](const RunResult &r) {
            return diffing ? r.total.diffPagesPiggybacked
                           : r.total.tsPagesPiggybacked;
        };

        ClusterConfig on = gcConfig(name, 3);
        on.batchDiffFetch = true;
        Cluster cluster_on(on);
        RunResult with_batch = cluster_on.run(fanOutWorkload);

        ClusterConfig off = gcConfig(name, 3);
        off.batchDiffFetch = false;
        Cluster cluster_off(off);
        RunResult without_batch = cluster_off.run(fanOutWorkload);

        // Both configurations converge to the same data (asserted
        // inside the workload); batching must do it with fewer request
        // messages.
        EXPECT_GT(piggybacked(with_batch), 0u);
        EXPECT_LT(requests(with_batch), requests(without_batch));
        EXPECT_EQ(requests(without_batch), kUnbatchedRequests);
        EXPECT_LT(with_batch.total.messagesSent,
                  without_batch.total.messagesSent);
        EXPECT_EQ(piggybacked(without_batch), 0u);
    }
}

TEST(LrcBatch, MultiWriterPagesStayCorrectUnderBatching)
{
    ClusterConfig cc = gcConfig("LRC-diff", 2);
    cc.batchDiffFetch = true;
    Cluster cluster(cc);
    cluster.run([](Runtime &rt) {
        auto a = SharedArray<int>::alloc(rt, 2 * kIntsPerPage);
        rt.barrier(0);
        const int self = rt.self();
        // Concurrent writers on disjoint halves of two pages.
        for (int p = 0; p < 2; ++p) {
            for (int i = 0; i < kIntsPerPage / 2; ++i) {
                a.set(p * kIntsPerPage + self * (kIntsPerPage / 2) + i,
                      self * 10000 + p * 1000 + i);
            }
        }
        rt.barrier(1);
        for (int p = 0; p < 2; ++p) {
            for (int i = 0; i < kIntsPerPage / 2; ++i) {
                ASSERT_EQ(a.get(p * kIntsPerPage + i), p * 1000 + i);
                ASSERT_EQ(a.get(p * kIntsPerPage + kIntsPerPage / 2 + i),
                          10000 + p * 1000 + i);
            }
        }
        rt.barrier(2);
    });
}

// ---------------------------------------------------------------------
// Routing a homeless miss: only the undominated pending writers are
// asked, and each diff the requester lacks is shipped by one of them.

/** Wire bytes of a diff of one changed word. */
constexpr std::uint64_t kOneWordDiffBytes =
    Diff::kHeaderBytes + Diff::kRunHeaderBytes + Diff::kWordBytes;

/**
 * A write chain under lock 0: nodes 1, 2 and 3 each write their own
 * word of one page in that order, so each writer's record knows every
 * earlier one. Node 0 then takes lock 0 and reads all three words.
 * Turns are sequenced with a host atomic, so no extra DSM
 * synchronization leaks records.
 */
RunResult
runWriteChain(const std::string &config)
{
    ClusterConfig cc = gcConfig(config, 4);
    // Host-atomic phases need one address space.
    cc.transport = "ring";
    Cluster cluster(cc);
    std::atomic<int> phase{0};
    return cluster.run([&](Runtime &rt) {
        auto a = SharedArray<int>::alloc(rt, 64);
        rt.barrier(0);
        const int self = rt.self();
        const int turn = self == 0 ? 3 : self - 1;
        while (phase.load() < turn)
            std::this_thread::yield();
        rt.acquire(0, AccessMode::Write);
        if (self == 0) {
            for (int w = 1; w <= 3; ++w)
                EXPECT_EQ(a.get(w), 10 * w);
        } else {
            a.set(self, 10 * self);
        }
        rt.release(0);
        phase.store(turn + 1);
        while (phase.load() < 4)
            std::this_thread::yield();
    });
}

TEST(LrcRouting, ChainAsksOnlyTheLastWriter)
{
    RunResult r = runWriteChain("LRC-diff");
    // Node 3's record knows (1,1) and (2,1), node 2's knows (1,1): the
    // last writer alone holds every diff the reader lacks. Asking all
    // pending writers took 3 and 2 requests.
    EXPECT_EQ(r.perNode[0].diffRequestsSent, 1u);
    EXPECT_EQ(r.perNode[3].diffRequestsSent, 1u);
    EXPECT_EQ(r.perNode[2].diffRequestsSent, 1u);
    // Needed diffs: (1,1) at node 2; (1,1), (2,1) at node 3; all three
    // at node 0. Each crosses the wire once (was 10 diffs, 200 B).
    EXPECT_EQ(r.total.diffBytesSent, 6 * kOneWordDiffBytes);
    EXPECT_EQ(r.total.diffsDiscarded, 0u);

    // Timestamp responders send current page bytes, not stored diffs:
    // that mode still asks every pending writer.
    RunResult ts = runWriteChain("LRC-time");
    EXPECT_EQ(ts.perNode[0].tsRequestsSent, 3u);
    EXPECT_EQ(ts.perNode[3].tsRequestsSent, 2u);
}

TEST(LrcRouting, ConcurrentWritersShipTheSharedDiffOnce)
{
    Cluster cluster(gcConfig("LRC-diff", 4));
    RunResult r = cluster.run([](Runtime &rt) {
        auto a = SharedArray<int>::alloc(rt, 64);
        rt.barrier(0);
        const int self = rt.self();
        if (self == 1)
            a.set(1, 10);
        rt.barrier(1);
        if (self >= 2) {
            EXPECT_EQ(a.get(1), 10);
            a.set(self, 10 * self);
        }
        rt.barrier(2);
        if (self == 0) {
            for (int w = 1; w <= 3; ++w)
                EXPECT_EQ(a.get(w), 10 * w);
        }
    });
    // Nodes 2 and 3 both applied (1,1) before writing, so node 0 asks
    // only them (was all three), and (1,1) comes from node 2 alone.
    EXPECT_EQ(r.perNode[0].diffRequestsSent, 2u);
    // (1,1) to nodes 2 and 3, then (1,1), (2,1), (3,1) to node 0 (was
    // 7 diffs, 140 B).
    EXPECT_EQ(r.total.diffBytesSent, 5 * kOneWordDiffBytes);
    EXPECT_EQ(r.total.diffsDiscarded, 0u);
}

TEST(LrcRouting, DominatedResponderLeavesPiggybackedPageToItsServer)
{
    // Node 1 writes page 1, then node 2 takes lock 0 from it and writes
    // pages 1 and 2 in one interval while node 1, after the grant,
    // writes page 0: on page 0 the two writers are concurrent, on page
    // 1 node 2's record knows (1,1). Node 0's miss on page 0 asks both
    // and piggybacks page 1, where node 1 is dominated: node 2 alone
    // ships (1,1) there.
    ClusterConfig cc = gcConfig("LRC-diff", 4);
    cc.batchDiffFetch = true;
    cc.transport = "ring"; // host-atomic phases below
    Cluster cluster(cc);
    std::atomic<int> phase{0};
    const auto await = [&phase](int p) {
        while (phase.load() < p)
            std::this_thread::yield();
    };
    RunResult r = cluster.run([&](Runtime &rt) {
        auto a = SharedArray<int>::alloc(rt, 2 * kIntsPerPage);
        rt.barrier(0);
        if (rt.self() == 1) {
            rt.acquire(0, AccessMode::Write);
            a.set(kIntsPerPage + 1, 11);
            rt.release(0);
            phase.store(1);
            await(2);
            a.set(1, 1);
        } else if (rt.self() == 2) {
            await(1);
            rt.acquire(0, AccessMode::Write);
            a.set(kIntsPerPage + 2, 12);
            a.set(2, 2);
            rt.release(0);
            phase.store(2);
        }
        rt.barrier(1);
        if (rt.self() == 0) {
            EXPECT_EQ(a.get(1), 1);
            EXPECT_EQ(a.get(2), 2);
            EXPECT_EQ(a.get(kIntsPerPage + 1), 11);
            EXPECT_EQ(a.get(kIntsPerPage + 2), 12);
        }
    });
    EXPECT_EQ(r.perNode[0].diffRequestsSent, 2u);
    EXPECT_EQ(r.perNode[0].diffPagesPiggybacked, 1u);
    // (1,1) of page 1 to node 2, then four diffs to node 0, each once.
    EXPECT_EQ(r.total.diffBytesSent, 5 * kOneWordDiffBytes);
    EXPECT_EQ(r.total.diffsDiscarded, 0u);
}

TEST(LrcRouting, SmpNodesAskEveryPendingWriter)
{
    // Two app threads per node. Node 1 writes word A under locks 1 and
    // 5 (both managed by node 1). Node 2's thread 0 requests lock 1,
    // which closes node 2's interval; before the grant lands, thread 1
    // writes word B. So node 2's next record knows (1,1) while its copy
    // of the page lacks it. Node 3 learns (1,1) through lock 5 and
    // overwrites A. Nodes 2 and 3 both dominate node 1; routing would
    // leave (1,1) to node 2, apply node 3's A, and apply node 1's
    // older A in a retry. Asking every pending writer applies all
    // three in one round, in happens-before order.
    constexpr int kA = 1;
    constexpr int kB = 60;
    ClusterConfig cc = gcConfig("LRC-diff", 4);
    cc.threadsPerNode = 2;
    cc.transport = "ring"; // host-atomic phases below
    Cluster cluster(cc);
    std::atomic<int> phase{0};
    const auto await = [&phase](int p) {
        while (phase.load() < p)
            std::this_thread::yield();
    };
    RunResult r = cluster.run([&](Runtime &rt) {
        auto a = SharedArray<int>::alloc(rt, 64);
        rt.barrier(0);
        const int node = rt.self();
        const int t = rt.threadId();
        if (node == 1 && t == 0) {
            rt.acquire(1, AccessMode::Write);
            rt.acquire(5, AccessMode::Write);
            a.set(kA, 1);
            phase.store(1);
            // Node 2's request is queued here: its interval is closed.
            while (rt.lockService().pendingRemoteCount(1) == 0)
                std::this_thread::yield();
            phase.store(2);
            await(3);
            rt.release(1);
            rt.release(5);
        } else if (node == 2 && t == 0) {
            await(1);
            rt.acquire(1, AccessMode::Write);
            rt.release(1);
        } else if (node == 2 && t == 1) {
            await(2);
            a.set(kB, 2);
            phase.store(3);
        } else if (node == 3 && t == 0) {
            await(1);
            rt.acquire(5, AccessMode::Write);
            a.set(kA, 3);
            rt.release(5);
        }
        rt.barrier(1);
        if (node == 0 && t == 0) {
            EXPECT_EQ(a.get(kA), 3);
            EXPECT_EQ(a.get(kB), 2);
        }
    });
    // One round to nodes 1, 2 and 3; each ships only its own diff.
    EXPECT_EQ(r.perNode[0].diffRequestsSent, 3u);
    EXPECT_EQ(r.total.diffsDiscarded, 0u);
}

} // namespace
} // namespace dsm

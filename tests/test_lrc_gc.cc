/**
 * @file
 * Long-run tests for the fast-path memory pipeline: barrier-time
 * garbage collection of interval records and stored diffs (memory
 * stays bounded across many epochs), the batched diff-fetch protocol
 * (fewer request messages for the same final memory image), and the
 * routing of a homeless miss to its undominated writers (each missing
 * diff crosses the wire once), the trim of diff replies, which invalid
 * pages ride along on a miss, and which pages barrier GC discards.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <limits>
#include <thread>

#include "core/cluster.hh"
#include "core/shared_array.hh"
#include "mem/diff.hh"
#include "mem/word_ts.hh"

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
    // The row's maximum: no log reaches it, so no GC round runs.
    cc.gcIntervalThreshold = std::numeric_limits<int>::max();
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

// ---------------------------------------------------------------------
// Trimming a diff reply: each stored diff ships without the words that
// a later diff of the same writer in the same reply rewrites.

/** Wire bytes of a diff with no run left, what trimming one one-word
 *  run off a diff saves, and a diff of two separate words. */
constexpr std::uint64_t kEmptyDiffBytes = Diff::kHeaderBytes;
constexpr std::uint64_t kWordRunBytes =
    Diff::kRunHeaderBytes + Diff::kWordBytes;
constexpr std::uint64_t kTwoWordDiffBytes =
    Diff::kHeaderBytes + 2 * kWordRunBytes;

TEST(LrcTrim, ReplyShipsEachWordOnce)
{
    // Node 1 writes word A in each of four epochs and word B in the
    // first; node 0 then reads both with one request.
    constexpr int kA = 1;
    constexpr int kB = 5;
    ClusterConfig cc = gcConfig("LRC-diff", 2);
    Cluster cluster(cc);
    RunResult r = cluster.run([](Runtime &rt) {
        auto a = SharedArray<int>::alloc(rt, 64);
        rt.barrier(0);
        for (int epoch = 1; epoch <= 4; ++epoch) {
            if (rt.self() == 1) {
                a.set(kA, 100 * epoch);
                if (epoch == 1)
                    a.set(kB, 7);
            }
            rt.barrier(epoch);
        }
        if (rt.self() == 0) {
            EXPECT_EQ(a.get(kA), 400);
            EXPECT_EQ(a.get(kB), 7);
        }
    });
    EXPECT_EQ(r.perNode[0].diffRequestsSent, 1u);
    EXPECT_EQ(r.perNode[0].diffsApplied, 4u);
    // The reply's four entries: B alone, two bare headers, A. Shipping
    // A in all four took 92 B.
    EXPECT_EQ(r.total.diffBytesSent,
              2 * kOneWordDiffBytes + 2 * kEmptyDiffBytes);
    EXPECT_EQ(r.total.diffBytesTrimmed, 3 * kWordRunBytes);
    EXPECT_EQ(r.total.diffsDiscarded, 0u);
}

TEST(LrcTrim, ServerReshipsTrimmedDiffsExactly)
{
    // Epoch 1: node 1 writes A and B (interval x1) while node 2 writes
    // E (y1). Epoch 2: node 3 reads the page, so its copy holds x1 and
    // y1. Epochs 3 and 4: node 1 writes A, C and E (x2), then A (x3).
    // Epoch 5: node 2 fetches them trimmed (x1 keeps B, x2 keeps C and
    // E) and writes D (y2), so its record knows x3 and it serves node
    // 1's diffs. Epoch 6: node 0 gets x1, x2, x3, y1 and y2 from node
    // 2; node 3, whose copy holds x1, gets x2, x3 and y2. E's last
    // writer is x2, which node 2's reply lists before y1: trimming x2
    // against node 2's own diffs would leave E at y1's value. No epoch
    // reads a word another node writes in it.
    constexpr int kA = 1, kB = 5, kC = 9, kD = 13, kE = 17;
    ClusterConfig cc = gcConfig("LRC-diff", 4);
    Cluster cluster(cc);
    RunResult r = cluster.run([](Runtime &rt) {
        auto a = SharedArray<int>::alloc(rt, 64);
        const int self = rt.self();
        const auto expect_all = [&](int d) {
            EXPECT_EQ(a.get(kA), 31) << "node " << self;
            EXPECT_EQ(a.get(kB), 12) << "node " << self;
            EXPECT_EQ(a.get(kC), 23) << "node " << self;
            EXPECT_EQ(a.get(kD), d) << "node " << self;
            EXPECT_EQ(a.get(kE), 25) << "node " << self;
        };
        rt.barrier(0);
        if (self == 1) {
            a.set(kA, 11);
            a.set(kB, 12);
        } else if (self == 2) {
            a.set(kE, 52);
        }
        rt.barrier(1);
        if (self == 3) {
            EXPECT_EQ(a.get(kA), 11);
            EXPECT_EQ(a.get(kB), 12);
            EXPECT_EQ(a.get(kE), 52);
        }
        rt.barrier(2);
        if (self == 1) {
            a.set(kA, 21);
            a.set(kC, 23);
            a.set(kE, 25);
        }
        rt.barrier(3);
        if (self == 1)
            a.set(kA, 31);
        rt.barrier(4);
        if (self == 2) {
            expect_all(0);
            a.set(kD, 42);
        }
        rt.barrier(5);
        if (self == 0 || self == 3)
            expect_all(42);
    });
    // Node 3 asks nodes 1 and 2, then node 2; node 1 asks node 2 for
    // y1 before it writes E; node 2 asks node 1; node 0 asks node 2
    // only.
    EXPECT_EQ(r.perNode[0].diffRequestsSent, 1u);
    EXPECT_EQ(r.perNode[1].diffRequestsSent, 1u);
    EXPECT_EQ(r.perNode[2].diffRequestsSent, 1u);
    EXPECT_EQ(r.perNode[3].diffRequestsSent, 3u);
    EXPECT_EQ(r.perNode[0].diffsApplied, 5u);
    EXPECT_EQ(r.perNode[2].diffsApplied, 3u);
    EXPECT_EQ(r.perNode[3].diffsApplied, 5u);
    // Node 1 ships x1 whole to node 3 (A, B), then x1 (B), x2 (C, E)
    // and x3 (A) to node 2, leaving A out twice.
    EXPECT_EQ(r.perNode[1].diffBytesSent,
              2 * kTwoWordDiffBytes + 2 * kOneWordDiffBytes);
    EXPECT_EQ(r.perNode[1].diffBytesTrimmed, 2 * kWordRunBytes);
    // Node 2 ships y1 to nodes 1 and 3; x1 (B), x2 (C, E), x3, y1 and
    // y2 to node 0; x2 (C, E), x3 and y2 to node 3. What it stored
    // trimmed needs no further trim.
    EXPECT_EQ(r.perNode[2].diffBytesSent,
              2 * kTwoWordDiffBytes + 8 * kOneWordDiffBytes);
    EXPECT_EQ(r.perNode[2].diffBytesTrimmed, 0u);
    EXPECT_EQ(r.total.diffsDiscarded, 0u);
}

// ---------------------------------------------------------------------
// Which pages ride along on a miss: on an access miss, another invalid
// page rides along only while the reply bytes it received that way
// since this node last missed on it or wrote it stay below the cost
// of one miss, 13,125 B under the paper's constants (DESIGN.md §10).
// Node 1 rewrites every word of pages A, B and C in each round; node
// 0 reads A. A fully rewritten 4 KiB page brings a ride-along 4,126 B
// of diff entry or 4,112 B of timestamp run, so B and C ride along in
// rounds 1-4 and are skipped from round 5 on.

constexpr int kRiderPageInts = 1024; // 4 KiB pages
constexpr int kPageA = 0, kPageB = 1, kPageC = 2;

/** The bytes each mode's byte counter (diffBytesSent, tsBytesSent)
 *  charges for one fully rewritten page. */
constexpr std::uint64_t kFullPageDiffBytes =
    Diff::kHeaderBytes + Diff::kRunHeaderBytes + 4 * kRiderPageInts;
constexpr std::uint64_t kFullPageTsBytes =
    TsRunWire::kHeaderBytes + 4 * kRiderPageInts;

struct RiderScript
{
    int rounds;
    /** The round in which node 0 also reads B after A (0: never). */
    int readB = 0;
    /** The round in which node 0 writes C's first word after reading
     *  A (0: never); node 1 reads it back before the next rewrite. */
    int writeC = 0;
    /** Barrier GC threshold in interval records (0: the default,
     *  which no script reaches). With a threshold, node 0 reads
     *  nothing in the rounds the threshold divides and in the rounds
     *  before them, and reads all three pages after the last
     *  barrier. */
    int gcThreshold = 0;
};

int
riderValue(int round, int page, int i)
{
    return round * 100000 + page * 10000 + i;
}

RunResult
runRiders(const std::string &config, const RiderScript &script)
{
    ClusterConfig cc = gcConfig(config, 2);
    cc.pageSize = 4096;
    if (script.gcThreshold > 0)
        cc.gcIntervalThreshold =
            static_cast<std::uint32_t>(script.gcThreshold);
    Cluster cluster(cc);
    return cluster.run([&](Runtime &rt) {
        auto a = SharedArray<int>::alloc(rt, 3 * kRiderPageInts);
        const auto expect_page = [&](int page, int round) {
            std::vector<int> got(kRiderPageInts);
            a.load(static_cast<std::size_t>(page) * kRiderPageInts,
                   got.data(), kRiderPageInts);
            int wrong = 0;
            for (int i = 0; i < kRiderPageInts; ++i)
                wrong += got[i] != riderValue(round, page, i);
            EXPECT_EQ(wrong, 0) << "page " << page << ", round " << round;
        };
        rt.barrier(0);
        std::vector<int> words(3 * kRiderPageInts);
        for (int round = 1; round <= script.rounds; ++round) {
            if (rt.self() == 1) {
                if (round == script.writeC + 1 && script.writeC > 0) {
                    EXPECT_EQ(a.get(kPageC * kRiderPageInts), -1);
                }
                for (int page = 0; page < 3; ++page) {
                    for (int i = 0; i < kRiderPageInts; ++i) {
                        words[page * kRiderPageInts + i] =
                            riderValue(round, page, i);
                    }
                }
                a.store(0, words.data(), words.size());
            }
            rt.barrier(2 * round - 1);
            const int gc_phase =
                script.gcThreshold > 0 ? round % script.gcThreshold : 1;
            const bool gc_round =
                gc_phase == 0 || gc_phase + 1 == script.gcThreshold;
            if (rt.self() == 0 && !gc_round) {
                expect_page(kPageA, round);
                if (round == script.readB)
                    expect_page(kPageB, round);
                if (round == script.writeC)
                    a.set(kPageC * kRiderPageInts, -1);
            }
            rt.barrier(2 * round);
        }
        if (script.gcThreshold > 0 && rt.self() == 0) {
            for (int page : {kPageA, kPageB, kPageC})
                expect_page(page, script.rounds);
        }
    });
}

/** The per-mode counters the LrcPiggyback tests pin. */
struct RiderCounts
{
    bool diffing;
    std::uint64_t
    piggybacked(const NodeStats &s) const
    {
        return diffing ? s.diffPagesPiggybacked : s.tsPagesPiggybacked;
    }
    std::uint64_t
    requests(const NodeStats &s) const
    {
        return diffing ? s.diffRequestsSent : s.tsRequestsSent;
    }
    std::uint64_t
    bytes(const NodeStats &s) const
    {
        return diffing ? s.diffBytesSent : s.tsBytesSent;
    }
    /** Bytes of @p n fully rewritten pages. */
    std::uint64_t
    pages(std::uint64_t n) const
    {
        return n * (diffing ? kFullPageDiffBytes : kFullPageTsBytes);
    }
};

TEST(LrcPiggyback, RidersStopAtTheCostOfOneMiss)
{
    for (const std::string name : {"LRC-diff", "LRC-time"}) {
        SCOPED_TRACE(name);
        const RiderCounts c{name == "LRC-diff"};
        RunResult r = runRiders(name, {.rounds = 8});
        EXPECT_EQ(r.perNode[0].accessMisses, 8u);
        EXPECT_EQ(c.requests(r.perNode[0]), 8u);
        // B and C ride along in rounds 1-4, then stay out.
        EXPECT_EQ(c.piggybacked(r.perNode[0]), 8u);
        EXPECT_EQ(r.perNode[0].piggybacksSkipped, 8u);
        EXPECT_EQ(r.total.piggybackWrongSkips, 0u);
        // A in every round, B and C in four (every round took 24).
        EXPECT_EQ(c.bytes(r.perNode[1]), c.pages(16));
        EXPECT_EQ(r.total.diffBytesTrimmed, 0u);
    }
}

TEST(LrcPiggyback, AWrongSkipRestoresTheBatchAndDoublesTheBound)
{
    // Node 0 reads B in round 6: a miss on a page the rule skips. C
    // rides along in that fetch, and B's bound doubles to 26,250 B, so
    // B rides along in rounds 7-13 and stays out from round 14 on.
    for (const std::string name : {"LRC-diff", "LRC-time"}) {
        SCOPED_TRACE(name);
        const RiderCounts c{name == "LRC-diff"};
        RunResult r = runRiders(name, {.rounds = 15, .readB = 6});
        EXPECT_EQ(r.perNode[0].accessMisses, 16u);
        EXPECT_EQ(c.requests(r.perNode[0]), 16u);
        EXPECT_EQ(r.total.piggybackWrongSkips, 1u);
        // Rounds 1-4: B and C; round 6: C; rounds 7-13: B.
        EXPECT_EQ(c.piggybacked(r.perNode[0]), 16u);
        // Rounds 5 and 6 (A's miss): B and C; rounds 7-13: C; rounds
        // 14 and 15: B and C.
        EXPECT_EQ(r.perNode[0].piggybacksSkipped, 15u);
        // A in 15 rounds, B and C in rounds 1-4, B in rounds 7-13, and
        // the wrong skip's fetch brings B and C two intervals each.
        // Its diff reply ships round 5's entries as bare headers.
        if (c.diffing) {
            EXPECT_EQ(c.bytes(r.perNode[1]),
                      c.pages(32) + 2 * Diff::kHeaderBytes);
            EXPECT_EQ(r.total.diffBytesTrimmed,
                      2 * (kFullPageDiffBytes - Diff::kHeaderBytes));
        } else {
            EXPECT_EQ(c.bytes(r.perNode[1]), c.pages(32));
        }
    }
}

TEST(LrcPiggyback, AWriteKeepsThePageRiding)
{
    // Node 0 writes C in round 3, after C rode along on A's miss: the
    // close zeroes C's count, so C rides along in rounds 4-7 too. B
    // stays out from round 5 on.
    for (const std::string name : {"LRC-diff", "LRC-time"}) {
        SCOPED_TRACE(name);
        const RiderCounts c{name == "LRC-diff"};
        RunResult r = runRiders(name, {.rounds = 9, .writeC = 3});
        EXPECT_EQ(r.perNode[0].accessMisses, 9u);
        // Node 1's read of node 0's word of C.
        EXPECT_EQ(r.perNode[1].accessMisses, 1u);
        EXPECT_EQ(c.requests(r.perNode[1]), 1u);
        EXPECT_EQ(c.piggybacked(r.perNode[0]), 4u + 7u);
        EXPECT_EQ(r.perNode[0].piggybacksSkipped, 5u + 2u);
        EXPECT_EQ(r.total.piggybackWrongSkips, 0u);
        EXPECT_EQ(c.bytes(r.perNode[1]), c.pages(9 + 4 + 7));
        // One word of C, as a diff or as a timestamp run.
        EXPECT_EQ(c.bytes(r.perNode[0]),
                  c.diffing ? kOneWordDiffBytes
                            : TsRunWire::kHeaderBytes + Diff::kWordBytes);
    }
}

TEST(LrcPiggyback, GcDiscardsSkippedPagesAndAMissFetchesThemWhole)
{
    // Barrier GC prunes at the end of rounds 6 and 12. Node 0 reads A
    // in rounds 1-4 and 7-10, so B and C ride along in rounds 1-4. The
    // validation at round 6 fetches A alone: B and C were never
    // written or missed by node 0, so it discards them when the round
    // completes, and from then on they are no candidates (no skips in
    // rounds 7-10). The validation at round 12 fetches A alone again.
    // After the last barrier node 0 reads A with no miss and misses on
    // B: one request to its keeper, node 1, brings B and C whole. The
    // discard zeroed what B and C had received riding along, so that
    // miss is no wrong skip, and C rides along.
    for (const std::string name : {"LRC-diff", "LRC-time"}) {
        SCOPED_TRACE(name);
        const RiderCounts c{name == "LRC-diff"};
        RunResult r = runRiders(name, {.rounds = 12, .gcThreshold = 6});
        EXPECT_EQ(r.perNode[0].accessMisses, 9u);
        EXPECT_EQ(c.requests(r.perNode[0]), 10u);
        EXPECT_EQ(r.perNode[0].gcRounds, 2u);
        EXPECT_EQ(r.perNode[1].gcRounds, 2u);
        EXPECT_EQ(r.perNode[0].gcPagesDiscarded, 2u);
        EXPECT_EQ(r.perNode[1].gcPagesDiscarded, 0u);
        EXPECT_EQ(r.perNode[0].wholePageFetches, 2u);
        // Rounds 1-4: B and C.
        EXPECT_EQ(c.piggybacked(r.perNode[0]), 8u);
        EXPECT_EQ(r.perNode[0].piggybacksSkipped, 0u);
        EXPECT_EQ(r.total.piggybackWrongSkips, 0u);
        // A in 8 rounds, B and C in rounds 1-4, and two intervals of A
        // in each validation. A diff reply ships the older entry of a
        // rewritten page as a bare header. The whole copies are no
        // diff or timestamp bytes. Validating B and C as well took 22
        // pages and 14 headers.
        EXPECT_EQ(c.bytes(r.perNode[1]),
                  c.pages(18) + (c.diffing ? 2 * Diff::kHeaderBytes : 0));
    }
}

// ---------------------------------------------------------------------
// Discarding unused pages at barrier GC: a node validates only the
// invalid pages it keeps (ever written, or missed since its previous
// GC round) and discards the rest; a miss on a discarded page installs
// its keeper's committed copy (DESIGN.md §10).

/** Each of @p words copied into @p a from index @p first. */
void
storeWords(SharedArray<int> &a, std::size_t first, int n,
           const std::function<int(int)> &value)
{
    std::vector<int> words(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        words[static_cast<std::size_t>(i)] = value(i);
    a.store(first, words.data(), words.size());
}

/** How many of @p n words of @p a from @p first differ from value. */
int
wrongWords(SharedArray<int> &a, std::size_t first, int n,
           const std::function<int(int)> &value)
{
    std::vector<int> got(static_cast<std::size_t>(n));
    a.load(first, got.data(), got.size());
    int wrong = 0;
    for (int i = 0; i < n; ++i)
        wrong += got[static_cast<std::size_t>(i)] != value(i);
    return wrong;
}

ClusterConfig
discardConfig(const std::string &name, int nprocs, int gc_threshold)
{
    ClusterConfig cc = gcConfig(name, nprocs);
    cc.pageSize = 4096;
    cc.gcIntervalThreshold = static_cast<std::uint32_t>(gc_threshold);
    return cc;
}

TEST(LrcDiscard, ADiscardedPageReadsTheKeepersCopy)
{
    // Node 1 rewrites page A in each of 8 rounds, one interval and one
    // barrier each; GC runs at 3 records, at barriers 4 and 7. Node 0
    // never reads A before the end: it discards A at barrier 4 and
    // drops its notices again at barrier 7. Its one miss installs node
    // 1's copy, which covers every notice, so no diff or timestamp
    // request follows. Validating A took one fetch per GC round.
    for (const std::string name : {"LRC-diff", "LRC-time", "LRC-ci"}) {
        SCOPED_TRACE(name);
        const RiderCounts c{name == "LRC-diff"};
        Cluster cluster(discardConfig(name, 2, 3));
        RunResult r = cluster.run([](Runtime &rt) {
            auto a = SharedArray<int>::alloc(rt, kRiderPageInts);
            rt.barrier(0);
            for (int round = 1; round <= 8; ++round) {
                if (rt.self() == 1) {
                    storeWords(a, 0, kRiderPageInts, [&](int i) {
                        return riderValue(round, kPageA, i);
                    });
                }
                rt.barrier(round);
            }
            if (rt.self() == 0) {
                EXPECT_EQ(wrongWords(a, 0, kRiderPageInts, [](int i) {
                              return riderValue(8, kPageA, i);
                          }),
                          0);
            }
        });
        EXPECT_EQ(r.perNode[0].gcRounds, 2u);
        EXPECT_EQ(r.perNode[0].gcPagesDiscarded, 1u);
        EXPECT_EQ(r.perNode[0].wholePageFetches, 1u);
        EXPECT_EQ(r.perNode[0].accessMisses, 1u);
        EXPECT_EQ(c.requests(r.perNode[0]), 0u);
        EXPECT_EQ(c.bytes(r.perNode[1]), 0u);
        EXPECT_EQ(r.perNode[1].gcPagesDiscarded, 0u);
    }
}

TEST(LrcDiscard, KeeperCopyPlusALaterDiffOfAnotherWriter)
{
    // Node 1 rewrites its half of page A in round 1, node 2 the other
    // half in round 2; GC runs at 2 records, at barrier 3. Node 0
    // discards A with node 2, the writer of its newest notice, as
    // keeper. Node 1 then rewrites its half twice (rounds 4 and 6), and
    // node 2 reads A in between. So node 2's copy holds node 1's
    // round-4 interval, and node 0's miss installs it and asks node 1
    // for the round-6 interval alone. Each round has one writer, so
    // every fetch sees the same intervals on every schedule.
    constexpr int kHalf = kRiderPageInts / 2;
    const auto half_value = [](int writer, int round) {
        return [=](int i) { return riderValue(round, writer, i); };
    };
    for (const std::string name : {"LRC-diff", "LRC-time", "LRC-ci"}) {
        SCOPED_TRACE(name);
        const RiderCounts c{name == "LRC-diff"};
        Cluster cluster(discardConfig(name, 3, 2));
        RunResult r = cluster.run([&](Runtime &rt) {
            auto a = SharedArray<int>::alloc(rt, kRiderPageInts);
            const int self = rt.self();
            const auto write_half = [&](int round) {
                storeWords(a, static_cast<std::size_t>(self - 1) * kHalf,
                           kHalf, half_value(self, round));
            };
            rt.barrier(0);
            for (int round = 1; round <= 6; ++round) {
                // The writer of each round; node 0 stands for none.
                constexpr int kWriter[] = {0, 1, 2, 0, 1, 0, 1};
                if (self != 0 && self == kWriter[round])
                    write_half(round);
                if (self == 2 && round == 5) {
                    EXPECT_EQ(wrongWords(a, 0, kHalf, half_value(1, 4)),
                              0);
                }
                rt.barrier(round);
            }
            if (self == 0) {
                EXPECT_EQ(wrongWords(a, 0, kHalf, half_value(1, 6)), 0);
                EXPECT_EQ(wrongWords(a, kHalf, kHalf, half_value(2, 2)),
                          0);
            }
        });
        EXPECT_EQ(r.perNode[0].gcRounds, 1u);
        EXPECT_EQ(r.perNode[0].gcPagesDiscarded, 1u);
        EXPECT_EQ(r.perNode[0].wholePageFetches, 1u);
        EXPECT_EQ(r.perNode[0].accessMisses, 1u);
        EXPECT_EQ(c.requests(r.perNode[0]), 1u);
        // Node 1's half once per interval a node fetched: round 1 to
        // node 2 on its round-2 write fault, round 4 to node 2's read
        // and round 6 to node 0. Asking node 1 from below the keeper's
        // copy would ship round 4 again, and node 2's half.
        const std::uint64_t half_bytes =
            c.diffing ? Diff::kHeaderBytes + Diff::kRunHeaderBytes +
                            4 * kHalf
                      : TsRunWire::kHeaderBytes + 4 * kHalf;
        EXPECT_EQ(c.bytes(r.perNode[1]), 3 * half_bytes);
    }
}

TEST(LrcDiscard, AnOpenIntervalServesOnlyCommittedBytes)
{
    // Node 1 rewrites page A in rounds 1-4; GC at barrier 4 discards
    // it at node 0. In round 5 node 1 writes word X, and node 0's miss
    // on word Y reaches node 1 while that interval is open; node 1
    // then writes X's old value back and writes word Z. The copy node
    // 1 serves is its twin, so node 0 never holds the transient X: the
    // close finds X unchanged and sends no new value for it.
    constexpr int kX = 10, kY = 20, kZ = 30;
    for (const std::string name : {"LRC-diff", "LRC-time"}) {
        SCOPED_TRACE(name);
        ClusterConfig cc = discardConfig(name, 2, 3);
        cc.transport = "ring"; // host-atomic phases below
        Cluster cluster(cc);
        std::atomic<int> phase{0};
        const auto await = [&phase](int p) {
            while (phase.load() < p)
                std::this_thread::yield();
        };
        RunResult r = cluster.run([&](Runtime &rt) {
            auto a = SharedArray<int>::alloc(rt, kRiderPageInts);
            rt.barrier(0);
            for (int round = 1; round <= 4; ++round) {
                if (rt.self() == 1) {
                    storeWords(a, 0, kRiderPageInts, [&](int i) {
                        return riderValue(round, kPageA, i);
                    });
                }
                rt.barrier(round);
            }
            if (rt.self() == 1) {
                a.set(kX, -7);
                phase.store(1);
                await(2);
                a.set(kX, riderValue(4, kPageA, kX));
                a.set(kZ, 555);
            } else {
                await(1);
                EXPECT_EQ(a.get(kY), riderValue(4, kPageA, kY));
                phase.store(2);
            }
            rt.barrier(5);
            if (rt.self() == 0) {
                EXPECT_EQ(a.get(kX), riderValue(4, kPageA, kX));
                EXPECT_EQ(a.get(kZ), 555);
            }
        });
        EXPECT_EQ(r.perNode[0].gcPagesDiscarded, 1u);
        EXPECT_EQ(r.perNode[0].wholePageFetches, 1u);
    }
}

TEST(LrcDiscard, AWrittenPageIsNeverDiscarded)
{
    // Round 1: node 1 writes word 1 of page A and page B, node 2 word
    // 2 of A. Rounds 2-5: node 1 rewrites B. GC at 4 records runs at
    // barrier 4. Node 2 wrote A, so it keeps A and validates it (one
    // request) though it never reads it, and discards B. Node 0
    // discards both, with node 2 as A's keeper: its copy must hold
    // node 1's word, or node 0 would read a stale one.
    for (const std::string name : {"LRC-diff", "LRC-time", "LRC-ci"}) {
        SCOPED_TRACE(name);
        const RiderCounts c{name == "LRC-diff"};
        Cluster cluster(discardConfig(name, 3, 4));
        RunResult r = cluster.run([](Runtime &rt) {
            auto a = SharedArray<int>::alloc(rt, 2 * kRiderPageInts);
            const int self = rt.self();
            rt.barrier(0);
            for (int round = 1; round <= 5; ++round) {
                if (self == 1) {
                    if (round == 1)
                        a.set(1, 11);
                    a.set(kRiderPageInts + round, round);
                } else if (self == 2 && round == 1) {
                    a.set(2, 22);
                }
                rt.barrier(round);
            }
            if (self == 0) {
                EXPECT_EQ(a.get(1), 11);
                EXPECT_EQ(a.get(2), 22);
            }
        });
        EXPECT_EQ(r.perNode[2].gcRounds, 1u);
        EXPECT_EQ(r.perNode[2].gcPagesDiscarded, 1u);
        EXPECT_EQ(c.requests(r.perNode[2]), 1u);
        EXPECT_EQ(r.perNode[0].gcPagesDiscarded, 2u);
        EXPECT_EQ(r.perNode[0].wholePageFetches, 1u);
        EXPECT_EQ(r.perNode[0].accessMisses, 1u);
    }
}

/** Words [first, first + n) of page A, each holding its riderValue of
 *  @p round. */
struct WordRange
{
    int first;
    int n;
    int round;
};

/** How many of page A's words differ from round 1's rewrite of the
 *  whole page with the ranges of @p later written over it. */
int
wrongWordsOfA(SharedArray<int> &a, std::initializer_list<WordRange> later)
{
    return wrongWords(a, 0, kRiderPageInts, [&](int i) {
        int round = 1;
        for (const WordRange &w : later) {
            if (i >= w.first && i < w.first + w.n)
                round = w.round;
        }
        return riderValue(round, kPageA, i);
    });
}

void
storeRange(SharedArray<int> &a, const WordRange &w)
{
    storeWords(a, static_cast<std::size_t>(w.first), w.n, [&](int i) {
        return riderValue(w.round, kPageA, w.first + i);
    });
}

TEST(LrcDiscard, AMissAsksTheWriterBehindAWholeCopy)
{
    // Node 1 (W) rewrites page A in round 1, and node 0 (R) writes a
    // word of page B so that GC runs at barrier 2 (2 records). R reads
    // A in round 2 and keeps it; node 2 (I) discards A with keeper W.
    // W rewrites A's first quarter in round 3. In round 4 I writes the
    // last quarter: its fault installs W's copy, so I's store lacks
    // W's round-3 diff. In round 5 R misses on A with notices from W
    // and I. I's record knows W's round 3, but I wrote a whole copy,
    // so its record dominates nothing and R asks both. Asked alone, I
    // could not send W's words.
    constexpr WordRange kWQ1{0, kRiderPageInts / 4, 3};
    constexpr WordRange kIQ4{3 * kRiderPageInts / 4, kRiderPageInts / 4, 4};
    ClusterConfig cc = discardConfig("LRC-diff", 3, 2);
    Cluster cluster(cc);
    RunResult r = cluster.run([&](Runtime &rt) {
        auto a = SharedArray<int>::alloc(rt, 2 * kRiderPageInts);
        const int self = rt.self();
        rt.barrier(0);
        if (self == 1)
            storeRange(a, {0, kRiderPageInts, 1});
        if (self == 0)
            a.set(kRiderPageInts, 1);
        rt.barrier(1);
        if (self == 0) {
            EXPECT_EQ(wrongWordsOfA(a, {}), 0);
        }
        rt.barrier(2);
        if (self == 1)
            storeRange(a, kWQ1);
        rt.barrier(3);
        if (self == 2)
            storeRange(a, kIQ4);
        rt.barrier(4);
        if (self == 0) {
            EXPECT_EQ(wrongWordsOfA(a, {kWQ1, kIQ4}), 0);
        }
    });
    EXPECT_EQ(r.perNode[0].gcRounds, 1u);
    EXPECT_EQ(r.perNode[0].gcPagesDiscarded, 0u);
    EXPECT_EQ(r.perNode[2].gcPagesDiscarded, 2u);
    EXPECT_EQ(r.perNode[2].wholePageFetches, 1u);
    EXPECT_EQ(r.perNode[0].accessMisses, 2u);
    // One request in round 2, and one to each writer in round 5.
    EXPECT_EQ(r.perNode[0].diffRequestsSent, 3u);
}

TEST(LrcDiscard, AWholeCopyShipsNoEntryFromBelowIt)
{
    // Barriers 1 and 2 as above, without B: GC at 1 record discards A
    // at node 2 (I). Round 3 is ordered by host-atomic phases. Node 1
    // (W) rewrites A's first quarter and closes that interval with an
    // acquire. I installs W's copy, which holds it, though I's vector
    // does not, writes A's last quarter, and grants lock 2 to node 0
    // (R), which so learns I's interval alone. W writes A's second
    // quarter and grants lock 1 to I, whose miss stores that diff. R's
    // miss now asks I about W from below I's copy: I must not send W's
    // second-quarter diff, or R would take W's interval as applied
    // without its first quarter. After the barrier R asks W for both.
    constexpr WordRange kWQ1{0, kRiderPageInts / 4, 3};
    constexpr WordRange kWQ2{kRiderPageInts / 4, kRiderPageInts / 4, 5};
    constexpr WordRange kIQ4{3 * kRiderPageInts / 4, kRiderPageInts / 4, 4};
    // Lock l is managed by node l % 3, which holds it first.
    constexpr LockId kToI = 1, kToR = 2, kCloseW = 3;
    ClusterConfig cc = discardConfig("LRC-diff", 3, 1);
    cc.transport = "ring"; // host-atomic phases below
    Cluster cluster(cc);
    std::atomic<int> phase{0};
    const auto await = [&phase](int p) {
        while (phase.load() < p)
            std::this_thread::yield();
    };
    RunResult r = cluster.run([&](Runtime &rt) {
        auto a = SharedArray<int>::alloc(rt, kRiderPageInts);
        const int self = rt.self();
        rt.barrier(0);
        if (self == 1)
            storeRange(a, {0, kRiderPageInts, 1});
        rt.barrier(1);
        if (self == 0) {
            EXPECT_EQ(wrongWordsOfA(a, {}), 0);
        }
        rt.barrier(2);
        if (self == 1) {
            storeRange(a, kWQ1);
            rt.acquire(kCloseW);
            rt.release(kCloseW);
            phase.store(1);
            await(3);
            rt.acquire(kToI);
            storeRange(a, kWQ2);
            rt.release(kToI);
            phase.store(4);
        } else if (self == 2) {
            await(1);
            rt.acquire(kToR);
            storeRange(a, kIQ4);
            rt.release(kToR);
            phase.store(2);
            await(4);
            rt.acquire(kToI);
            EXPECT_EQ(a.get(kWQ2.first),
                      riderValue(kWQ2.round, kPageA, kWQ2.first));
            rt.release(kToI);
            phase.store(5);
        } else {
            await(2);
            rt.acquire(kToR);
            rt.release(kToR);
            phase.store(3);
            await(5);
            EXPECT_EQ(a.get(kIQ4.first),
                      riderValue(kIQ4.round, kPageA, kIQ4.first));
        }
        rt.barrier(3);
        if (self == 0) {
            EXPECT_EQ(wrongWordsOfA(a, {kWQ1, kWQ2, kIQ4}), 0);
        }
    });
    EXPECT_EQ(r.perNode[0].gcRounds, 1u);
    EXPECT_EQ(r.perNode[2].gcPagesDiscarded, 1u);
    EXPECT_EQ(r.perNode[2].wholePageFetches, 1u);
    EXPECT_EQ(r.perNode[0].diffRequestsSent, 3u);
    // I's quarter, once.
    EXPECT_EQ(r.perNode[2].diffBytesSent,
              Diff::kHeaderBytes + Diff::kRunHeaderBytes + 4 * kIQ4.n);
}

TEST(LrcDiscard, HomeBasedGcFetchesNothing)
{
    // Home-based LRC: node 1 rewrites pages A (homed at node 0) and B
    // (homed at node 1) in each of 8 rounds; GC runs at 3 records.
    // The homes hold every page current, so a GC round validates
    // nothing: the only round trip is node 0's miss on B at the end.
    // Validating B took one round trip per GC round.
    ClusterConfig cc = discardConfig("LRC-diff", 2, 3);
    cc.homeBasedLrc = true;
    cc.homeMigrateThreshold = 0;
    Cluster cluster(cc);
    RunResult r = cluster.run([](Runtime &rt) {
        auto a = SharedArray<int>::alloc(rt, 2 * kRiderPageInts);
        rt.barrier(0);
        for (int round = 1; round <= 8; ++round) {
            if (rt.self() == 1) {
                a.set(0, round);
                a.set(kRiderPageInts, round);
            }
            rt.barrier(round);
        }
        if (rt.self() == 0) {
            EXPECT_EQ(a.get(0), 8);
            EXPECT_EQ(a.get(kRiderPageInts), 8);
        }
    });
    EXPECT_EQ(r.perNode[0].gcRounds, 2u);
    EXPECT_EQ(r.perNode[0].accessMisses, 1u);
    EXPECT_EQ(r.perNode[0].pageFetchRoundTrips, 1u);
    EXPECT_EQ(r.perNode[1].pageFetchRoundTrips, 0u);
    EXPECT_EQ(r.total.gcPagesDiscarded, 0u);
}

} // namespace
} // namespace dsm

/**
 * @file
 * Home-based LRC invariants:
 *  - no node ever stores a diff (homes apply flushes in place, clients
 *    fetch full copies), across dozens of epochs;
 *  - an access miss on a remotely homed page costs exactly one
 *    request/reply round trip, counter-asserted;
 *  - a deliberately skewed access pattern migrates the home past the
 *    threshold and stays correct before, during and after the move;
 *  - the pages one dispatch migrates reach each peer as a single
 *    HomeMigrate batch, and a stale entry inside a batch is skipped
 *    whole;
 *  - the sharing-policy layer: migrate-to-last-writer follows an
 *    alternating writer chain, the ping-pong cap pins a pathologically
 *    migrating page, and the deferred-flush policy merges a run of
 *    interval closes into one HomeDiffFlush per home;
 *  - read misses against a moving home (migration churn, and the
 *    reply bypass reordering replies past HomeMigrate broadcasts and
 *    forwarded lock grants) return exact values.
 */

#include <gtest/gtest.h>

#include "core/cluster.hh"
#include "core/shared_array.hh"

namespace dsm {
namespace {

ClusterConfig
homeConfig(int nprocs, std::uint32_t migrate_threshold)
{
    ClusterConfig cc;
    cc.nprocs = nprocs;
    cc.arenaBytes = 1u << 20;
    cc.pageSize = 1024;
    cc.runtime = RuntimeConfig::parse("LRC-diff");
    cc.homeBasedLrc = true;
    cc.homeMigrateThreshold = migrate_threshold;
    // Per-node scripted protocol test: roles key off rt.self(), so the
    // scenario only makes sense with one app thread per node (SMP
    // coverage lives in the worker-parametrized app/conformance/smp
    // suites). Pin T=1 so a DSM_THREADS sweep cannot redefine it.
    cc.threadsPerNode = 1;
    return cc;
}

/** White-box handle on a node's live protocol state. Only meaningful
 *  when the workers ran in this address space: under a process-per-
 *  node transport the launcher-side runtimes never execute the app,
 *  so every test that inspects lrcOf() pins cc.transport = "ring"
 *  (otherwise the assertions would pass vacuously on pristine
 *  state). */
LrcRuntime &
lrcOf(Cluster &cluster, NodeId node)
{
    auto *lrc = dynamic_cast<LrcRuntime *>(&cluster.runtime(node));
    EXPECT_NE(lrc, nullptr);
    return *lrc;
}

/** 44 epochs of cross-node producing and consuming: the diff store
 *  stays empty on every node, while the same run in homeless mode
 *  does store diffs. */
TEST(HomeLrc, DiffStoreStaysEmptyAcrossEpochs)
{
    constexpr int kEpochs = 44;
    constexpr int kWords = 1024; // 4 pages of 1024 bytes
    auto run = [&](bool home) {
        ClusterConfig cc = homeConfig(4, 0);
        cc.homeBasedLrc = home;
        cc.transport = "ring"; // white-box lrcOf() inspection below
        auto cluster = std::make_unique<Cluster>(cc);
        cluster->run([&](Runtime &rt) {
            auto a = SharedArray<int>::alloc(rt, kWords, 4, "epochs");
            const int np = rt.nprocs();
            const int self = rt.self();
            const int chunk = kWords / np;
            rt.barrier(0);
            for (int e = 0; e < kEpochs; ++e) {
                // Write my chunk, then read my right neighbour's.
                for (int i = 0; i < chunk; ++i)
                    a.set(self * chunk + i, e * 100 + self + i);
                rt.barrier(1 + 2 * e);
                const int peer = (self + 1) % np;
                for (int i = 0; i < chunk; i += 7)
                    ASSERT_EQ(a.get(peer * chunk + i),
                              e * 100 + peer + i);
                rt.barrier(2 + 2 * e);
            }
        });
        return cluster;
    };

    auto home_cluster = run(true);
    std::size_t homeless_diffs = 0;
    {
        auto homeless_cluster = run(false);
        for (int n = 0; n < 4; ++n)
            homeless_diffs +=
                lrcOf(*homeless_cluster, n).diffStoreSize();
    }
    for (int n = 0; n < 4; ++n) {
        EXPECT_EQ(lrcOf(*home_cluster, n).diffStoreSize(), 0u)
            << "node " << n << " stored diffs in home mode";
    }
    EXPECT_GT(homeless_diffs, 0u)
        << "homeless control run should have stored diffs";
}

/** Every cold miss on a remotely homed page is exactly one
 *  request/reply pair: pageFetchRoundTrips == accessMisses on the
 *  consumer, one per epoch. */
TEST(HomeLrc, OneRoundTripPerColdMiss)
{
    constexpr int kEpochs = 40;
    ClusterConfig cc = homeConfig(2, 0); // migration off
    cc.gcAtBarriers = false; // keep proactive GC fetches out of the count
    cc.transport = "ring";   // white-box lrcOf() inspection below
    Cluster cluster(cc);
    RunResult result = cluster.run([&](Runtime &rt) {
        // One page (256 ints x 4 bytes = 1024 = page 0, homed at 0).
        auto a = SharedArray<int>::alloc(rt, 256, 4, "page0");
        rt.barrier(0);
        for (int e = 0; e < kEpochs; ++e) {
            if (rt.self() == 0) {
                for (int i = 0; i < 256; ++i)
                    a.set(i, e * 1000 + i);
            }
            rt.barrier(1 + 2 * e);
            if (rt.self() == 1) {
                ASSERT_EQ(a.get(17), e * 1000 + 17);
                ASSERT_EQ(a.get(255), e * 1000 + 255);
            }
            rt.barrier(2 + 2 * e);
        }
    });

    ASSERT_EQ(lrcOf(cluster, 1).pageHomeOf(0), 0);
    const NodeStats &consumer = result.perNode[1];
    EXPECT_EQ(consumer.accessMisses,
              static_cast<std::uint64_t>(kEpochs));
    EXPECT_EQ(consumer.pageFetchRoundTrips, consumer.accessMisses)
        << "every miss must be exactly one request/reply pair";
    // The producer writes its own homed page: no misses, no fetches.
    EXPECT_EQ(result.perNode[0].pageFetchRoundTrips, 0u);
    EXPECT_EQ(result.total.diffRequestsSent, 0u)
        << "home mode must never run the homeless diff protocol";
}

/** Skewed access: node 1 writes and node 2 reads a page homed at node
 *  0. Past the threshold the home migrates off node 0, and the data
 *  stays correct through and after the move. */
TEST(HomeLrc, MigratesUnderSkewedAccess)
{
    constexpr int kEpochs = 16;
    ClusterConfig cc = homeConfig(4, 4);
    cc.transport = "ring"; // white-box lrcOf() inspection below
    Cluster cluster(cc);
    RunResult result = cluster.run([&](Runtime &rt) {
        auto a = SharedArray<int>::alloc(rt, 256, 4, "skew");
        rt.barrier(0);
        for (int e = 0; e < kEpochs; ++e) {
            if (rt.self() == 1) {
                for (int i = 0; i < 256; ++i)
                    a.set(i, e * 10 + i);
            }
            rt.barrier(1 + 2 * e);
            if (rt.self() == 2) {
                for (int i = 0; i < 256; i += 13)
                    ASSERT_EQ(a.get(i), e * 10 + i);
            }
            rt.barrier(2 + 2 * e);
        }
    });

    EXPECT_GE(result.total.homeMigrations, 1u)
        << "the skewed accessor should have pulled the home over";
    // All nodes agree on the final mapping, and it moved off node 0.
    const NodeId final_home = lrcOf(cluster, 0).pageHomeOf(0);
    EXPECT_NE(final_home, 0);
    for (int n = 1; n < 4; ++n)
        EXPECT_EQ(lrcOf(cluster, n).pageHomeOf(0), final_home);
    for (int n = 0; n < 4; ++n)
        EXPECT_EQ(lrcOf(cluster, n).diffStoreSize(), 0u);
}

/** One migration batch per dispatch: node 1 writes four pages homed
 *  at node 0 without fetching them, so the single flush of its
 *  interval close is each page's first remote access and, at threshold
 *  1, all four pages migrate while node 0 handles that flush. Each peer
 *  gets the whole batch in one HomeMigrate, so node 0 sends exactly
 *  two messages more than over the same script at threshold 0. The
 *  new home's copies must equal the run without migration. */
TEST(HomeLrc, MigrationBatchSendsOneMessagePerPeer)
{
    constexpr int kPages = 4;
    constexpr int kNodes = 3;
    constexpr int kInts = 256; // one 1024-byte page
    RunResult result;
    auto run = [&](std::uint32_t threshold) {
        ClusterConfig cc = homeConfig(kNodes, threshold);
        cc.transport = "ring"; // white-box lrcOf() inspection below
        Cluster cluster(cc);
        result = cluster.run([&](Runtime &rt) {
            // Round-robin homes put pages 0, 3, 6 and 9 at node 0.
            auto a = SharedArray<int>::alloc(rt, kInts * kNodes * kPages,
                                             4, "batch");
            rt.barrier(0);
            if (rt.self() == 1) {
                for (int p = 0; p < kPages; ++p) {
                    for (int i = 0; i < kInts; ++i)
                        a.set((kNodes * p) * kInts + i, 1000 * p + i);
                }
            }
            rt.barrier(1);
        });
        EXPECT_EQ(result.perNode[1].accessMisses, 0u)
            << "the writes must not fetch before the close";
        std::vector<std::byte> bytes;
        for (int p = 0; p < kPages; ++p) {
            const PageId page = static_cast<PageId>(kNodes * p);
            for (int n = 0; n < kNodes; ++n) {
                EXPECT_EQ(lrcOf(cluster, n).pageHomeOf(page),
                          threshold > 0 ? 1 : 0)
                    << "node " << n << ", page " << page;
            }
            const std::byte *src = cluster.memory(1, page * 1024u);
            bytes.insert(bytes.end(), src, src + 1024);
        }
        return bytes;
    };

    const std::vector<std::byte> static_bytes = run(0);
    const RunResult stays = result;
    const std::vector<std::byte> migrated_bytes = run(1);
    const RunResult moved = result;

    EXPECT_EQ(stays.total.homeMigrations, 0u);
    EXPECT_EQ(moved.total.homeMigrations,
              static_cast<std::uint64_t>(kPages));
    EXPECT_EQ(moved.perNode[0].messagesSent -
                  stays.perNode[0].messagesSent,
              static_cast<std::uint64_t>(kNodes - 1))
        << "one HomeMigrate per peer must carry the whole batch";
    EXPECT_EQ(migrated_bytes, static_bytes);
}

/** A stale entry inside a migration batch (an epoch the receiver
 *  already holds) is skipped, its full payload included, and the
 *  entries after it still apply. */
TEST(HomeLrc, StaleBatchEntryIsSkippedWhole)
{
    constexpr int kNodes = 3;
    ClusterConfig cc = homeConfig(kNodes, 0);
    cc.transport = "ring"; // white-box lrcOf() inspection below
    Cluster cluster(cc);
    LrcRuntime &rt = lrcOf(cluster, 1);
    const auto entry = [](WireWriter &w, PageId page, NodeId home,
                          std::uint32_t epoch, bool full) {
        w.putU32(page);
        w.putU16(static_cast<std::uint16_t>(home));
        w.putU32(epoch);
        w.putU8(full ? 1 : 0);
    };
    const auto deliver = [&](WireWriter &w) {
        Message msg;
        msg.src = 0;
        msg.dst = 1;
        msg.type = MsgType::HomeMigrate;
        msg.payload = w.take();
        rt.handleMessage(msg);
    };

    // Node 1 already knows page 0's second migration, to node 2.
    WireWriter newer;
    entry(newer, 0, 2, 2, false);
    deliver(newer);
    ASSERT_EQ(rt.pageHomeOf(0), 2);

    // The first migration, which named node 1 the new home, is now
    // stale; a fresh entry for page 3 follows it in the same batch.
    WireWriter batch;
    entry(batch, 0, 1, 1, true);
    VectorTime(kNodes).encode(batch);
    batch.putU32(1); // one word-sum run: start, length, value
    batch.putU32(0);
    batch.putU32(4);
    batch.putU64(7);
    const std::vector<std::byte> copy(cc.pageSize, std::byte{0x5a});
    batch.putBytes(copy.data(), copy.size());
    entry(batch, 3, 2, 1, false);
    deliver(batch);

    EXPECT_EQ(rt.pageHomeOf(0), 2);
    EXPECT_EQ(rt.pageHomeOf(3), 2);
    EXPECT_EQ(*cluster.memory(1, 0), std::byte{0})
        << "the stale entry's copy must not be installed";
}

// ---------------------------------------------------------------------
// Sharing-policy layer.

/** Alternating writers (the migratory pattern): nodes 1 and 2 take
 *  turns rewriting a page homed at node 0. The access-count policy is
 *  off; only the migrate-to-last-writer classifier can move the home,
 *  and it must, while the data stays correct through every move. */
TEST(HomeLrc, LastWriterPolicyFollowsMigratoryWriter)
{
    constexpr int kEpochs = 12;
    ClusterConfig cc = homeConfig(3, 0); // access-count policy off
    cc.homeMigrateLastWriter = 1;
    cc.homeWriterSwitchThreshold = 2;
    cc.homePingPongLimit = 0; // uncapped: pure follow-the-writer
    cc.transport = "ring";    // white-box lrcOf() inspection below
    Cluster cluster(cc);
    RunResult result = cluster.run([&](Runtime &rt) {
        auto a = SharedArray<int>::alloc(rt, 256, 4, "mig");
        rt.barrier(0);
        for (int e = 0; e < kEpochs; ++e) {
            const int writer = 1 + e % 2;
            if (rt.self() == writer) {
                for (int i = 0; i < 256; ++i)
                    a.set(i, e * 1000 + i);
            }
            rt.barrier(1 + 2 * e);
            if (rt.self() != writer) {
                for (int i = 0; i < 256; i += 11)
                    ASSERT_EQ(a.get(i), e * 1000 + i);
            }
            rt.barrier(2 + 2 * e);
        }
    });

    EXPECT_GE(result.total.lastWriterMigrations, 1u)
        << "alternating writers must classify the page migratory";
    EXPECT_GE(result.total.homeMigrations,
              result.total.lastWriterMigrations);
    // The final mapping is consistent everywhere.
    const NodeId final_home = lrcOf(cluster, 0).pageHomeOf(0);
    for (int n = 1; n < 3; ++n)
        EXPECT_EQ(lrcOf(cluster, n).pageHomeOf(0), final_home);
}

/** Same alternating pattern with a ping-pong budget of 2: the page
 *  migrates at most twice, further policy firings are suppressed, and
 *  the pinned page still serves every reader correctly. */
TEST(HomeLrc, PingPongCapPinsHome)
{
    constexpr int kEpochs = 14;
    ClusterConfig cc = homeConfig(3, 0);
    cc.homeMigrateLastWriter = 1;
    cc.homeWriterSwitchThreshold = 2;
    cc.homePingPongLimit = 2;
    Cluster cluster(cc);
    RunResult result = cluster.run([&](Runtime &rt) {
        auto a = SharedArray<int>::alloc(rt, 256, 4, "pin");
        rt.barrier(0);
        for (int e = 0; e < kEpochs; ++e) {
            const int writer = 1 + e % 2;
            if (rt.self() == writer) {
                for (int i = 0; i < 256; ++i)
                    a.set(i, e * 1000 + i);
            }
            rt.barrier(1 + 2 * e);
            if (rt.self() != writer) {
                for (int i = 0; i < 256; i += 17)
                    ASSERT_EQ(a.get(i), e * 1000 + i);
            }
            rt.barrier(2 + 2 * e);
        }
    });

    EXPECT_LE(result.total.homeMigrations, 2u)
        << "the ping-pong cap must pin the page after two moves";
    EXPECT_GE(result.total.homeMigrationsSuppressed, 1u)
        << "the suppressed migrations should be counted";
}

/** Deferred-flush merging: node 1 closes four intervals on a remotely
 *  homed page (three via remote acquires of fresh locks, one at the
 *  barrier) with no communication that would force a flush in
 *  between. With DSM_HOME_DEFER the four payloads ride one
 *  HomeDiffFlush; eagerly they are four messages. Both runs must
 *  leave identical bytes at the home. */
TEST(HomeLrc, DeferredFlushesMergePerHome)
{
    RunResult result;
    auto run = [&](bool defer) {
        ClusterConfig cc = homeConfig(2, 0);
        cc.homeFlushDefer = defer ? 1 : 0;
        auto cluster = std::make_unique<Cluster>(cc);
        result = cluster->run([&](Runtime &rt) {
            auto a = SharedArray<int>::alloc(rt, 256, 4, "defer");
            rt.barrier(0);
            if (rt.self() == 1) {
                // Each remote acquire (locks 2, 4, 6 start owned by
                // their manager, node 0) closes the previous
                // interval; with the deferred policy the request
                // carries no records, so the flush payloads pile up
                // per home until the barrier arrival sends them as
                // one message.
                for (int k = 0; k < 4; ++k) {
                    for (int i = k * 64; i < (k + 1) * 64; ++i)
                        a.set(i, 7000 + i);
                    if (k < 3) {
                        rt.acquire(static_cast<LockId>(2 + 2 * k),
                                   AccessMode::Write);
                        rt.release(static_cast<LockId>(2 + 2 * k));
                    }
                }
            }
            rt.barrier(1);
            if (rt.self() == 0) {
                for (int i = 0; i < 256; ++i)
                    ASSERT_EQ(a.get(i), 7000 + i);
            }
            rt.barrier(2);
        });
        std::vector<std::byte> bytes(1024);
        std::memcpy(bytes.data(), cluster->memory(0, 0), bytes.size());
        return bytes;
    };

    const std::vector<std::byte> eager_bytes = run(false);
    const RunResult eager = result;
    const std::vector<std::byte> deferred_bytes = run(true);
    const RunResult deferred = result;

    EXPECT_EQ(deferred_bytes, eager_bytes);
    EXPECT_GE(deferred.total.homeFlushesDeferred, 3u)
        << "three closes should have merged into the pending flush";
    EXPECT_LT(deferred.total.homeFlushesSent,
              eager.total.homeFlushesSent)
        << "merging must reduce flush messages";
    EXPECT_EQ(deferred.total.homeFlushesSent, 1u);
}

/** Migration churn: an alternating writer pair drives
 *  migrate-to-last-writer hand-offs while a reader misses on the
 *  page every round. A deposed home's copy must never shadow the
 *  current home's flushes. */
TEST(HomeLrc, MigrationChurnKeepsReadsExact)
{
    constexpr int kInts = 256; // one page
    constexpr int kRounds = 24;
    ClusterConfig cc = homeConfig(3, 0);
    cc.homeMigrateLastWriter = 1;
    cc.homeWriterSwitchThreshold = 2;
    cc.homePingPongLimit = 0; // unbounded: keep the home moving
    Cluster cluster(cc);
    RunResult result = cluster.run([&](Runtime &rt) {
        auto a = SharedArray<int>::alloc(rt, kInts, 4, "churn");
        const int self = rt.self();
        rt.barrier(0);
        for (int round = 0; round < kRounds; ++round) {
            // Writers 0 and 1 alternate under the lock (the migratory
            // pattern: each round switches the page's last writer).
            const int writer = round % 2;
            rt.acquire(7, AccessMode::Write);
            if (self == writer) {
                for (int i = 0; i < kInts; i += 4)
                    a.set(i, round * 1000 + i);
            }
            rt.release(7);
            rt.barrier(1 + 2 * round);
            if (self == 2) {
                rt.acquire(7, AccessMode::Read);
                for (int i = 0; i < kInts; i += 16)
                    ASSERT_EQ(a.get(i), round * 1000 + i)
                        << "round " << round << " index " << i;
                rt.release(7);
            }
            rt.barrier(2 + 2 * round);
        }
    });
    EXPECT_GT(result.total.homeMigrations, 0u)
        << "the churn never migrated a home — the test lost its point";
}

/** Reply bypass vs HomeMigrate/LockForward ordering: a bypassed reply
 *  can overtake earlier non-reply messages (migration broadcasts,
 *  forwarded lock requests) from the same sender. The protocol guards
 *  (migration epochs, appliedVt dominance, is-home re-checks) must
 *  absorb every such reordering. This maximizes the hazardous mix:
 *  forwarded lock chains (manager != owner), eager home migration and
 *  SMP nodes (several parked callers per endpoint), checking exact
 *  values throughout. */
TEST(HomeLrc, ReplyBypassOrderingUnderMigrationAndForwarding)
{
    constexpr int kInts = 512;
    constexpr int kRounds = 16;
    for (int threads : {1, 2}) {
        ClusterConfig cc = homeConfig(4, 2); // migrate on access counts
        cc.threadsPerNode = threads;
        Cluster cluster(cc);
        cluster.run([&](Runtime &rt) {
            auto a = SharedArray<int>::alloc(rt, kInts, 4, "bypass");
            const int nw = rt.nworkers();
            const int w = rt.worker();
            const int chunk = kInts / nw;
            rt.barrier(0);
            for (int round = 0; round < kRounds; ++round) {
                // Every worker bounces the same lock (manager node 0,
                // owner rotating: every acquire is a LockForward
                // chain) and rewrites its chunk; homes chase the
                // writers through HomeMigrate broadcasts whose
                // replies-in-flight the bypass can reorder past.
                rt.acquire(9, AccessMode::Write);
                for (int i = 0; i < chunk; ++i)
                    a.set(w * chunk + i, round * 10000 + w * 100 + i);
                rt.release(9);
                rt.barrier(1 + 2 * round);
                const int peer = (w + 1) % nw;
                rt.acquire(9, AccessMode::Read);
                for (int i = 0; i < chunk; i += 5)
                    ASSERT_EQ(a.get(peer * chunk + i),
                              round * 10000 + peer * 100 + i)
                        << "threads " << threads << " round " << round;
                rt.release(9);
                rt.barrier(2 + 2 * round);
            }
        });
    }
}

} // namespace
} // namespace dsm

/**
 * @file
 * Cross-protocol conformance: the shared SPMD kernels
 * (conformance_kernels.hh) — a halo-exchange stencil, a distributed
 * task queue, and a migratory counter ring (the Table 3 sharing
 * patterns in miniature) — run under entry consistency, homeless LRC,
 * and home-based LRC over the full (2, 4, 8 nodes) x (1, 2, 4
 * threads-per-node) scenario grid, and the final shared state
 * collected on node 0 must be bit-identical across all three
 * protocols at every grid point. Every kernel is integer-valued,
 * partitioned over *workers* (node x thread), and
 * schedule-independent, so "bit-identical" is exact, not a tolerance
 * — which makes this grid the SMP refactor's model-checking net: any
 * lost write, unmirrored twin, missed invalidation or broken
 * intra-node hand-off shows up as a byte difference.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <functional>

#include "conformance_kernels.hh"

namespace dsm {
namespace {

using namespace kernels;

// ---------------------------------------------------------------------
// Harness: run one kernel under one protocol, return node 0's final
// shared state.

struct ProtocolLeg
{
    const char *label;
    const char *config;
    bool home;
    /** Sharing-policy legs: bounded-fairness lock hand-off bound
     *  (0 = unbounded), migrate-to-last-writer home policy, and the
     *  deferred-merged flush transport. Each must leave the final
     *  state bit-identical to the policy-off protocols — they change
     *  who serves whom and when payloads travel, never the values. */
    int fairness = 0;
    bool lastWriter = false;
    bool deferFlush = false;
    /** Latency-path leg (PR 9): -1 keeps the env sentinel (so the
     *  DSM_BLOCKING_DEQ CI sweep flips the whole grid), 0/1 forces
     *  the knob for this leg. It changes only where wall-clock goes —
     *  any byte it moves is a conformance failure. */
    int blockingDeq = -1;
    /** Per-lock adaptive fairness bound (lockFairnessAdaptive):
     *  reshapes hand-off scheduling, never values. */
    bool adaptFair = false;
    /** Cross-page piggybacking on homeless misses (batchDiffFetch):
     *  off, each miss fetches only its own page. */
    bool batch = true;
    /** Barrier GC threshold in interval records (gcIntervalThreshold;
     *  0 keeps the default, which these small kernels never reach). A
     *  low one runs the validate-and-prune handshake mid-kernel. */
    std::uint32_t gcThreshold = 0;
};

const ProtocolLeg kLegs[] = {
    {"EC", "EC-diff", false},
    {"LRC", "LRC-diff", false},
    {"LRC_time", "LRC-time", false},
    {"LRC_home", "LRC-diff", true},
    // Sharing-policy legs (PR 5): each policy on its own, then all
    // three at once, against the same policy-off reference state.
    {"EC_fair", "EC-diff", false, 4},
    {"LRC_fair", "LRC-diff", false, 4},
    {"LRC_home_lastwriter", "LRC-diff", true, 0, true},
    {"LRC_home_defer", "LRC-diff", true, 0, false, true},
    {"LRC_home_allpolicies", "LRC-diff", true, 4, true, true},
    // Latency-path legs (PR 9). Blocking dequeue and adaptive
    // fairness default off, so each gets a forced-on leg; the reply
    // bypass is always on, so every leg covers it.
    {"EC_blockingdeq", "EC-diff", false, 0, false, false, 1},
    {"LRC_home_blockingdeq", "LRC-diff", true, 0, false, false, 1},
    {"EC_fair_adaptive", "EC-diff", false, 4, false, false, -1, true},
    {"LRC_home_latency_all", "LRC-diff", true, 4, true, true, 1, true},
    // The batched miss protocol without cross-page piggybacking, once
    // per collection method.
    {.label = "LRC_nobatch",
     .config = "LRC-diff",
     .home = false,
     .batch = false},
    {.label = "LRC_time_nobatch",
     .config = "LRC-time",
     .home = false,
     .batch = false},
    // Barrier GC mid-kernel, once per homeless collection method and
    // once home-based.
    {.label = "LRC_gc",
     .config = "LRC-diff",
     .home = false,
     .gcThreshold = 4},
    {.label = "LRC_time_gc",
     .config = "LRC-time",
     .home = false,
     .gcThreshold = 4},
    {.label = "LRC_home_gc",
     .config = "LRC-diff",
     .home = true,
     .gcThreshold = 4},
};

struct KernelCase
{
    const char *name;
    std::function<void(Runtime &)> run;
    std::size_t stateBytes;
    int nprocs;
    int threads;
};

std::vector<std::byte>
runLeg(const ProtocolLeg &leg, const KernelCase &kc)
{
    ClusterConfig cc;
    cc.nprocs = kc.nprocs;
    cc.threadsPerNode = kc.threads;
    cc.arenaBytes = 1u << 20;
    cc.pageSize = 1024;
    cc.runtime = RuntimeConfig::parse(leg.config);
    cc.homeBasedLrc = leg.home;
    // A low threshold makes homes migrate *during* the kernels, so
    // conformance also covers the migration machinery.
    cc.homeMigrateThreshold = 4;
    cc.lockLocalHandoffBound = leg.fairness;
    cc.homeMigrateLastWriter = leg.lastWriter ? 1 : 0;
    cc.homeFlushDefer = leg.deferFlush ? 1 : 0;
    cc.blockingDequeue = leg.blockingDeq;
    if (leg.adaptFair)
        cc.lockFairnessAdaptive = 1;
    cc.batchDiffFetch = leg.batch;
    if (leg.gcThreshold > 0)
        cc.gcIntervalThreshold = leg.gcThreshold;
    // Last-writer legs use a tiny ping-pong budget so migrations
    // *and* the pin both happen inside these small kernels.
    cc.homePingPongLimit = leg.lastWriter ? 3 : 0;
    Cluster cluster(cc);
    const RunResult result = cluster.run(kc.run);
    const bool stencil = std::strcmp(kc.name, "stencil") == 0;
    const bool homeless = cc.runtime.model == Model::LRC && !leg.home;
    // The GC legs must really run GC: the stencil and the ring cross
    // the threshold on every schedule. The task queue's record count
    // depends on the schedule, so it may finish with no GC round.
    if (leg.gcThreshold > 0 && std::strcmp(kc.name, "taskqueue") != 0) {
        EXPECT_GT(result.total.gcRounds, 0u)
            << kc.name << " np=" << kc.nprocs << "x" << kc.threads
            << ": " << leg.label << " ran no GC round";
    }
    // The homeless GC legs must really discard: on the stencil each
    // node neither writes nor reads its neighbours' inner rows.
    if (leg.gcThreshold > 0 && homeless && stencil) {
        EXPECT_GT(result.total.gcPagesDiscarded, 0u)
            << kc.name << " np=" << kc.nprocs << "x" << kc.threads
            << ": " << leg.label << " discarded no page";
    }
    // The last-writer legs must really migrate: the stencil and the
    // ring switch writers on every schedule. The task queue's writer
    // sequence depends on the schedule, so it may migrate nothing. On
    // the stencil at 8 nodes the last-writer classifier itself fires;
    // access counts alone can account for the rest. At 4 nodes it
    // fires on most schedules but not all, with or without
    // first-writer homing (at threshold 4 the access counter may move
    // a two-writer page before the classifier has seen three writer
    // switches). HomeLrc.LastWriterPolicyFollowsMigratoryWriter pins
    // the classifier beside first-writer homing on a fixed schedule.
    if (leg.lastWriter && std::strcmp(kc.name, "taskqueue") != 0) {
        EXPECT_GT(result.total.homeMigrations, 0u)
            << kc.name << " np=" << kc.nprocs << "x" << kc.threads
            << ": " << leg.label << " migrated no home";
    }
    if (leg.lastWriter && stencil && kc.nprocs == 8) {
        EXPECT_GT(result.total.lastWriterMigrations, 0u)
            << kc.name << " np=" << kc.nprocs << "x" << kc.threads
            << ": " << leg.label << " made no last-writer migration";
    }
    // First-writer homing reads only the writes a barrier announced,
    // so every home leg moves the same pages on every schedule. The
    // stencil's pages that lie inside one node's band move to that
    // node (2 at 2 nodes, 3 at 4); at 8 nodes every page straddles
    // two bands and stays. Worker 0 alone writes the task queue's
    // payload, and its pages homed off node 0 move there (5, 8 and 9
    // at 2, 4 and 8 nodes). The ring's one slot page is homed at node
    // 0, which writes it too, so it stays.
    if (leg.home) {
        const int at = kc.nprocs == 2 ? 0 : kc.nprocs == 4 ? 1 : 2;
        std::uint64_t moves = 0;
        if (stencil)
            moves = std::array<std::uint64_t, 3>{2, 3, 0}[at];
        else if (std::strcmp(kc.name, "taskqueue") == 0)
            moves = std::array<std::uint64_t, 3>{5, 8, 9}[at];
        EXPECT_EQ(result.total.firstWriterMigrations, moves)
            << kc.name << " np=" << kc.nprocs << "x" << kc.threads
            << ": " << leg.label;
    }
    // The homeless legs that piggyback must reach the ride-along
    // rule's skip path: at 2 nodes the stencil's halo misses stop
    // carrying the neighbour's inner pages once each has received one
    // miss's worth of bytes that way. The GC legs skip only at one
    // thread per node: there the halo miss refreshes the inner pages
    // before every GC round until they reach the bound. At T > 1 the
    // sibling that reaches the barrier first validates the halo page
    // in its GC pass, which takes no unkept page along, so the first
    // GC round discards the inner pages and they never ride again.
    if (homeless && leg.batch && kc.nprocs == 2 && stencil &&
        (leg.gcThreshold == 0 || kc.threads == 1)) {
        EXPECT_GT(result.total.piggybacksSkipped, 0u)
            << kc.name << " np=" << kc.nprocs << "x" << kc.threads
            << ": " << leg.label << " skipped no piggyback";
    }
    std::vector<std::byte> state(kc.stateBytes);
    std::memcpy(state.data(), cluster.memory(0, 0), kc.stateBytes);
    return state;
}

class ProtocolConformance : public ::testing::TestWithParam<KernelCase>
{};

TEST_P(ProtocolConformance, BitIdenticalFinalState)
{
    const KernelCase &kc = GetParam();
    const std::vector<std::byte> reference = runLeg(kLegs[0], kc);
    for (std::size_t l = 1; l < std::size(kLegs); ++l) {
        const std::vector<std::byte> got = runLeg(kLegs[l], kc);
        ASSERT_EQ(got.size(), reference.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            ASSERT_EQ(got[i], reference[i])
                << kc.name << " np=" << kc.nprocs << ": "
                << kLegs[l].label << " differs from "
                << kLegs[0].label << " at byte " << i;
        }
    }
}

std::vector<KernelCase>
conformanceCases()
{
    std::vector<KernelCase> cases;
    for (int np : {2, 4, 8}) {
        for (int t : {1, 2, 4}) {
            cases.push_back(
                {"stencil", stencilKernel, stencilBytes(), np, t});
            cases.push_back(
                {"taskqueue", taskQueueKernel, taskQueueBytes(), np, t});
            cases.push_back({"ring", ringKernel, ringBytes(), np, t});
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Kernels, ProtocolConformance,
                         ::testing::ValuesIn(conformanceCases()),
                         [](const auto &info) {
                             return std::string(info.param.name) + "_np" +
                                    std::to_string(info.param.nprocs) +
                                    "x" +
                                    std::to_string(info.param.threads);
                         });

} // namespace
} // namespace dsm

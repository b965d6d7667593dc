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
    /** Piggyback write notices on fetch replies (default-on fast
     *  path); the *_nonotice legs prove the seed protocol and the
     *  piggybacked one produce bit-identical final state. */
    bool piggyback;
    /** Sharing-policy legs: bounded-fairness lock hand-off bound
     *  (0 = unbounded), migrate-to-last-writer home policy, and the
     *  deferred-merged flush transport. Each must leave the final
     *  state bit-identical to the policy-off protocols — they change
     *  who serves whom and when payloads travel, never the values. */
    int fairness = 0;
    bool lastWriter = false;
    bool deferFlush = false;
    /** Latency-path legs (PR 9): -1 keeps the env sentinel (so the
     *  DSM_REPLY_BYPASS / DSM_BLOCKING_DEQ CI sweeps flip the whole
     *  grid), 0/1 forces the knob for this leg. Both change only
     *  where wall-clock goes — any byte they move is a conformance
     *  failure. */
    int replyBypass = -1;
    int blockingDeq = -1;
    /** Per-lock adaptive fairness bound (DSM_LOCK_FAIRNESS_ADAPT):
     *  reshapes hand-off scheduling, never values. */
    bool adaptFair = false;
    /** Cross-page piggybacking on homeless misses (batchDiffFetch):
     *  off, each miss fetches only its own page. */
    bool batch = true;
};

const ProtocolLeg kLegs[] = {
    {"EC", "EC-diff", false, true},
    {"LRC", "LRC-diff", false, true},
    {"LRC_nonotice", "LRC-diff", false, false},
    {"LRC_time", "LRC-time", false, true},
    {"LRC_time_nonotice", "LRC-time", false, false},
    {"LRC_home", "LRC-diff", true, true},
    {"LRC_home_nonotice", "LRC-diff", true, false},
    // Sharing-policy legs (PR 5): each policy on its own, then all
    // three at once, against the same policy-off reference state.
    {"EC_fair", "EC-diff", false, true, 4},
    {"LRC_fair", "LRC-diff", false, true, 4},
    {"LRC_home_lastwriter", "LRC-diff", true, true, 0, true},
    {"LRC_home_defer", "LRC-diff", true, true, 0, false, true},
    {"LRC_home_allpolicies", "LRC-diff", true, true, 4, true, true},
    // Latency-path legs (PR 9). Reply bypass defaults *on*, so the
    // interesting forced leg is bypass-off (the reference implicitly
    // covers bypass-on); blocking dequeue and adaptive fairness
    // default off, so each gets a forced-on leg. Home-based legs
    // matter most for the bypass ordering guard (migrate installs
    // racing bypassed replies).
    {"EC_nobypass", "EC-diff", false, true, 0, false, false, 0},
    {"LRC_home_nobypass", "LRC-diff", true, true, 0, false, false, 0},
    {"EC_blockingdeq", "EC-diff", false, true, 0, false, false, -1, 1},
    {"LRC_home_blockingdeq", "LRC-diff", true, true, 0, false, false,
     -1, 1},
    {"EC_fair_adaptive", "EC-diff", false, true, 4, false, false, -1,
     -1, true},
    {"LRC_home_latency_all", "LRC-diff", true, true, 4, true, true, 1,
     1, true},
    // The batched miss protocol without cross-page piggybacking, once
    // per collection method.
    {.label = "LRC_nobatch",
     .config = "LRC-diff",
     .home = false,
     .piggyback = true,
     .batch = false},
    {.label = "LRC_time_nobatch",
     .config = "LRC-time",
     .home = false,
     .piggyback = true,
     .batch = false},
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
    cc.piggybackWriteNotices = leg.piggyback;
    // A low threshold makes homes migrate *during* the kernels, so
    // conformance also covers the migration machinery.
    cc.homeMigrateThreshold = 4;
    cc.lockLocalHandoffBound = leg.fairness;
    cc.homeMigrateLastWriter = leg.lastWriter ? 1 : 0;
    cc.homeFlushDefer = leg.deferFlush ? 1 : 0;
    cc.replyBypass = leg.replyBypass;
    cc.blockingDequeue = leg.blockingDeq;
    if (leg.adaptFair)
        cc.lockFairnessAdaptive = 1;
    cc.batchDiffFetch = leg.batch;
    // Last-writer legs use an aggressive classifier and a tiny
    // ping-pong budget so migrations *and* the pin both happen inside
    // these small kernels.
    if (leg.lastWriter) {
        cc.homeWriterSwitchThreshold = 2;
        cc.homePingPongLimit = 3;
    } else {
        cc.homePingPongLimit = 0;
    }
    Cluster cluster(cc);
    cluster.run(kc.run);
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

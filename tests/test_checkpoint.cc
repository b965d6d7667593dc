/**
 * @file
 * Crash tolerance: coordinated checkpointing and chaos-kill recovery
 * (core/checkpoint.hh) plus the fault-injection layer
 * (net/fault_injector.hh), proven with the same bit-identity property
 * the protocol-conformance grid uses. Each shared kernel
 * (conformance_kernels.hh) runs once uninterrupted and once with a
 * node killed at a barrier checkpoint (epoch >= 2) and rebuilt from
 * its latest snapshot — the victim's wiped state, the replay of its
 * parked inbox traffic, and the peers' retransmits must all be
 * invisible in the final shared state, under EC, homeless LRC, and
 * home-based LRC, across the (2, 4, 8 nodes) x (1, 2, 4
 * threads-per-node) grid. File-backed snapshots, the manifest, drop
 * retransmission, and the drop+kill combination get their own legs,
 * and a nightly-driven test reads the DSM_FAULT_* environment so the
 * chaos workflow can rotate seeds, victims, and kill epochs.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>

#include "conformance_kernels.hh"

namespace dsm {
namespace {

using namespace kernels;

struct ProtocolLeg
{
    const char *label;
    const char *config;
    bool home;
    /** Barrier GC threshold in interval records (0 keeps the default,
     *  which these kernels never reach). */
    std::uint32_t gcThreshold = 0;
};

// The three implementations of the paper's comparison; recovery must
// be invisible under each (homeless LRC checkpoints its interval log
// and diff store, home-based LRC its home table and parked flushes,
// EC its lock bindings and incarnation history). The last leg runs
// barrier GC mid-kernel, so the victim can be restored holding pages
// it discarded (their keepers and dropped notices are checkpointed).
const ProtocolLeg kLegs[] = {
    {"EC", "EC-diff", false},
    {"LRC", "LRC-diff", false},
    {"LRC_home", "LRC-diff", true},
    {"LRC_gc", "LRC-diff", false, 4},
};

struct FaultPlan
{
    /** Chaos victim (-1 = nobody dies; checkpointing stays off unless
     *  a directory is set). */
    int killNode = -1;
    /** Checkpoint count at which the victim dies (ISSUE floor: the
     *  cut must not be the first one). */
    int killEpoch = 3;
    /** Real message-drop probability (0 = off). */
    double msgDrop = 0.0;
    long long seed = 1;
    /** Tier-1 snapshot directory (empty = in-memory tier 0 only). */
    std::string dir;
    /** Silent-peer outage victim (-1 = none): goes dark at its
     *  outageEpoch-th cut for outageMs of wall-clock, then restores
     *  from its latest checkpoint tier and rejoins. */
    int outageNode = -1;
    int outageEpoch = 2;
    int outageMs = 100;
    /** Failure-detector liveness deadline (ms); 0 = detector off.
     *  Outage legs arm it so survivors degrade instead of hanging. */
    int fdDeadlineMs = 0;
    /** Incremental delta checkpoints + full-anchor cadence. */
    bool delta = false;
    int anchorEvery = 8;
};

struct KernelCase
{
    const char *name;
    std::function<void(Runtime &)> run;
    std::size_t stateBytes;
    int nprocs;
    int threads;
};

struct RunOutput
{
    std::vector<std::byte> state;
    RunResult result;
};

RunOutput
runCase(const ProtocolLeg &leg, const KernelCase &kc, const FaultPlan &f)
{
    ClusterConfig cc;
    cc.nprocs = kc.nprocs;
    cc.threadsPerNode = kc.threads;
    cc.arenaBytes = 1u << 20;
    cc.pageSize = 1024;
    cc.runtime = RuntimeConfig::parse(leg.config);
    cc.homeBasedLrc = leg.home;
    if (leg.gcThreshold > 0)
        cc.gcIntervalThreshold = leg.gcThreshold;
    // A low threshold makes homes migrate *during* the kernels, so
    // recovery also covers mid-flight migration state.
    cc.homeMigrateThreshold = 4;
    // Every crash-tolerance knob is pinned explicitly: the nightly
    // chaos workflow exports DSM_FAULT_* for ChaosFromEnvironment
    // below, and the -1 env sentinels would leak that into these
    // controlled legs (including the uninterrupted references).
    cc.faultSeed = f.seed;
    cc.faultMsgDrop = f.msgDrop;
    cc.faultKillNode = f.killNode;
    cc.faultKillEpoch = f.killNode >= 0 ? f.killEpoch : 0;
    cc.faultOutageNode = f.outageNode;
    cc.faultOutageEpoch = f.outageNode >= 0 ? f.outageEpoch : 0;
    cc.faultOutageMs = f.outageMs;
    cc.fdDeadlineMs = f.fdDeadlineMs;
    cc.faultRtoFirstUs = 2'000;
    cc.faultRtoCapUs = 500'000;
    cc.ckptDelta = f.delta ? 1 : 0;
    cc.ckptAnchorEvery = f.anchorEvery;
    cc.checkpointEvery =
        (f.killNode >= 0 || f.outageNode >= 0 || !f.dir.empty()) ? 1 : 0;
    cc.ckptDir = f.dir;

    Cluster cluster(cc);
    RunOutput out;
    out.result = cluster.run(kc.run);
    out.state.resize(kc.stateBytes);
    std::memcpy(out.state.data(), cluster.memory(0, 0), kc.stateBytes);
    return out;
}

void
expectBitIdentical(const KernelCase &kc, const ProtocolLeg &leg,
                   const std::vector<std::byte> &reference,
                   const std::vector<std::byte> &got)
{
    ASSERT_EQ(got.size(), reference.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i], reference[i])
            << kc.name << " np=" << kc.nprocs << "x" << kc.threads
            << ": " << leg.label
            << " with faults differs from the uninterrupted run at byte "
            << i;
    }
}

class CheckpointRecovery : public ::testing::TestWithParam<KernelCase>
{};

// The acceptance property: a node killed at epoch >= 2 and restored
// from its last barrier checkpoint leaves the final shared state
// bit-identical to the uninterrupted run, for all three protocols.
TEST_P(CheckpointRecovery, ChaosKillIsInvisible)
{
    const KernelCase &kc = GetParam();
    FaultPlan kill;
    kill.killNode = kc.nprocs - 1;
    for (const ProtocolLeg &leg : kLegs) {
        const RunOutput reference = runCase(leg, kc, FaultPlan{});
        EXPECT_EQ(reference.result.total.checkpointsTaken, 0u);
        EXPECT_EQ(reference.result.total.recoveryReplays, 0u);
        EXPECT_EQ(reference.result.total.retransmissions, 0u);
        EXPECT_EQ(reference.result.checkpointBytes, 0u);

        // The GC leg's victim holds no discarded page before its first
        // GC rounds; from the eighth cut on it does at 4 and 8 nodes.
        FaultPlan plan = kill;
        if (leg.gcThreshold > 0)
            plan.killEpoch = 8;
        const RunOutput chaos = runCase(leg, kc, plan);
        expectBitIdentical(kc, leg, reference.state, chaos.state);
        // Every node checkpoints at every barrier cut; exactly one
        // node died and was rebuilt.
        EXPECT_GE(chaos.result.total.checkpointsTaken,
                  static_cast<std::uint64_t>(kc.nprocs));
        EXPECT_EQ(chaos.result.total.recoveryReplays, 1u);
        EXPECT_GT(chaos.result.checkpointBytes, 0u);
        EXPECT_GT(chaos.result.restoreTimeNs, 0u);
    }
}

std::vector<KernelCase>
recoveryCases()
{
    std::vector<KernelCase> cases;
    for (int np : {2, 4, 8}) {
        for (int t : {1, 2, 4}) {
            cases.push_back(
                {"stencil", stencilKernel, stencilBytes(), np, t});
            cases.push_back({"ring", ringKernel, ringBytes(), np, t});
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Kernels, CheckpointRecovery,
                         ::testing::ValuesIn(recoveryCases()),
                         [](const auto &info) {
                             return std::string(info.param.name) + "_np" +
                                    std::to_string(info.param.nprocs) +
                                    "x" +
                                    std::to_string(info.param.threads);
                         });

// Killing node 0 kills the lock *and* barrier manager: the snapshot
// must carry the managed-lock table and the barrier generations, or
// every peer's next synchronization hangs or corrupts.
TEST(CheckpointRecoveryEdge, KillTheManagerNode)
{
    const KernelCase kc = {"taskqueue", taskQueueKernel,
                           taskQueueBytes(), 4, 2};
    FaultPlan kill;
    kill.killNode = 0;
    kill.killEpoch = 2;
    for (const ProtocolLeg &leg : kLegs) {
        const RunOutput reference = runCase(leg, kc, FaultPlan{});
        const RunOutput chaos = runCase(leg, kc, kill);
        expectBitIdentical(kc, leg, reference.state, chaos.state);
        EXPECT_EQ(chaos.result.total.recoveryReplays, 1u);
    }
}

// Tier-1 persistence: with a snapshot directory the victim is rebuilt
// from the *file*, not the in-memory blob, and the manifest records
// one frontier line per cut.
TEST(CheckpointRecoveryEdge, FileBackedRestoreAndManifest)
{
    namespace fs = std::filesystem;
    const KernelCase kc = {"stencil", stencilKernel, stencilBytes(), 4,
                           2};
    const fs::path dir =
        fs::path(::testing::TempDir()) / "dsm-ckpt-filebacked";
    fs::remove_all(dir); // stale manifests append otherwise

    FaultPlan kill;
    kill.killNode = 2;
    kill.dir = dir.string();
    const ProtocolLeg &leg = kLegs[2]; // home-based LRC: richest state
    const RunOutput reference = runCase(leg, kc, FaultPlan{});
    const RunOutput chaos = runCase(leg, kc, kill);
    expectBitIdentical(kc, leg, reference.state, chaos.state);
    EXPECT_EQ(chaos.result.total.recoveryReplays, 1u);

    // The blob the victim restored from, and every node's manifest.
    EXPECT_TRUE(fs::exists(dir / "node2-epoch3.bin"));
    for (int node = 0; node < kc.nprocs; ++node) {
        const fs::path manifest =
            dir / ("manifest-node" + std::to_string(node) + ".txt");
        ASSERT_TRUE(fs::exists(manifest)) << manifest;
        std::ifstream in(manifest);
        std::string line;
        int lines = 0;
        while (std::getline(in, line)) {
            ++lines;
            EXPECT_NE(line.find("frontier"), std::string::npos) << line;
        }
        // One line per cut; the stencil crosses >= killEpoch barriers.
        EXPECT_GE(lines, kill.killEpoch);
    }
    fs::remove_all(dir);
}

// Checkpointing without a kill (directory set, nobody dies): snapshots
// stream to disk, nothing is restored, the run is undisturbed.
TEST(CheckpointRecoveryEdge, SnapshotOnlyRunLeavesStateAlone)
{
    namespace fs = std::filesystem;
    const KernelCase kc = {"ring", ringKernel, ringBytes(), 2, 2};
    const fs::path dir =
        fs::path(::testing::TempDir()) / "dsm-ckpt-snaponly";
    fs::remove_all(dir);

    FaultPlan snap;
    snap.dir = dir.string();
    const RunOutput reference = runCase(kLegs[1], kc, FaultPlan{});
    const RunOutput got = runCase(kLegs[1], kc, snap);
    expectBitIdentical(kc, kLegs[1], reference.state, got.state);
    EXPECT_GT(got.result.total.checkpointsTaken, 0u);
    EXPECT_EQ(got.result.total.recoveryReplays, 0u);
    EXPECT_EQ(got.result.restoreTimeNs, 0u);
    EXPECT_GT(got.result.checkpointBytes, 0u);
    EXPECT_TRUE(fs::exists(dir / "node0-epoch1.bin"));
    fs::remove_all(dir);
}

// The fault injector alone: real (unmodeled) drops of direct-request
// traffic, recovered by the endpoint's timeout/backoff retransmission
// and the receiver's dedup window. The final state must not notice.
TEST(FaultInjection, DropRetransmitRecovers)
{
    const KernelCase kc = {"stencil", stencilKernel, stencilBytes(), 4,
                           2};
    FaultPlan drops;
    drops.msgDrop = 0.15;
    drops.seed = 42;
    for (const ProtocolLeg &leg : kLegs) {
        const RunOutput reference = runCase(leg, kc, FaultPlan{});
        const RunOutput got = runCase(leg, kc, drops);
        expectBitIdentical(kc, leg, reference.state, got.state);
        EXPECT_GT(got.result.total.retransmissions, 0u)
            << leg.label << ": a 15% drop rate retransmitted nothing";
        EXPECT_EQ(got.result.total.recoveryReplays, 0u);
    }
}

// Drops and a chaos kill together — retransmits land in the dead
// victim's parked inbox, the restored node answers duplicates from
// its dedup window, and the state still matches.
TEST(FaultInjection, DropsPlusChaosKill)
{
    const KernelCase kc = {"stencil", stencilKernel, stencilBytes(), 4,
                           2};
    FaultPlan chaos;
    chaos.killNode = 1;
    chaos.msgDrop = 0.05;
    chaos.seed = 7;
    for (const ProtocolLeg &leg : kLegs) {
        const RunOutput reference = runCase(leg, kc, FaultPlan{});
        const RunOutput got = runCase(leg, kc, chaos);
        expectBitIdentical(kc, leg, reference.state, got.state);
        EXPECT_EQ(got.result.total.recoveryReplays, 1u);
    }
}

// The failure detector alone, with no drops and no outage: its
// PeerUnavailable returns need the endpoints' fault-tolerant path, so
// arming it arms that path too, and the state must not notice.
// Detections are not asserted: a loaded host may flap a peer past the
// deadline, which the path absorbs.
TEST(FaultInjection, DetectorAloneRunsOnTheFaultTolerantPath)
{
    const KernelCase kc = {"stencil", stencilKernel, stencilBytes(), 4,
                           2};
    FaultPlan detector;
    detector.fdDeadlineMs = 1000;
    for (const ProtocolLeg &leg : kLegs) {
        const RunOutput reference = runCase(leg, kc, FaultPlan{});
        const RunOutput got = runCase(leg, kc, detector);
        expectBitIdentical(kc, leg, reference.state, got.state);
        EXPECT_EQ(got.result.total.recoveryReplays, 0u);
    }
}

// ---------------------------------------------------------------------
// Self-healing: silent-peer outages, failure detection and graceful
// degradation. The victim goes dark mid-run (no crash message, no
// farewell — its traffic is simply dropped for outageMs); survivors'
// failure detectors must declare it down, their blocked waits must
// degrade into counted typed retries instead of hanging, and the
// victim must restore from its last checkpoint and rejoin with the
// final state bit-identical to the uninterrupted run.

class SilentPeerFailover : public ::testing::TestWithParam<KernelCase>
{};

TEST_P(SilentPeerFailover, DetectedDegradedAndRecovered)
{
    const KernelCase &kc = GetParam();
    FaultPlan outage;
    outage.outageNode = kc.nprocs - 1; // node 0 stays up: it manages
    outage.outageEpoch = 2;            // locks and barriers
    outage.outageMs = 100;
    outage.fdDeadlineMs = 25;
    for (const ProtocolLeg &leg : kLegs) {
        const RunOutput reference = runCase(leg, kc, FaultPlan{});
        EXPECT_EQ(reference.result.total.peerDownDetections, 0u);
        EXPECT_EQ(reference.result.total.peerUnavailableRetries, 0u);

        const RunOutput dark = runCase(leg, kc, outage);
        expectBitIdentical(kc, leg, reference.state, dark.state);
        // Exactly one node went dark and was rebuilt from its cut.
        EXPECT_EQ(dark.result.total.recoveryReplays, 1u) << leg.label;
        // Survivors noticed: the missed liveness deadline flipped the
        // victim down (counted once cluster-wide, CAS-guarded) ...
        EXPECT_GE(dark.result.total.peerDownDetections, 1u) << leg.label;
        // ... their blocked waits degraded into typed retries instead
        // of parking silently for the outage's duration ...
        EXPECT_GE(dark.result.total.peerUnavailableRetries, 1u)
            << leg.label;
        // ... and the victim's first post-restore delivery revived it.
        EXPECT_GE(dark.result.total.peerDownRecoveries, 1u) << leg.label;
        EXPECT_GT(dark.result.restoreTimeNs, 0u);
    }
}

std::vector<KernelCase>
failoverCases()
{
    std::vector<KernelCase> cases;
    for (int np : {2, 4, 8}) {
        for (int t : {1, 2, 4}) {
            cases.push_back(
                {"stencil", stencilKernel, stencilBytes(), np, t});
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Grid, SilentPeerFailover,
                         ::testing::ValuesIn(failoverCases()),
                         [](const auto &info) {
                             return std::string("np") +
                                    std::to_string(info.param.nprocs) +
                                    "x" +
                                    std::to_string(info.param.threads);
                         });

// Graceful degradation, the strongest form: a survivor whose read
// misses on a page *homed at the dark node* does not wait out the
// outage — the typed PeerUnavailable outcome makes it re-host the
// page from the victim's persisted checkpoint frontier (the frontier
// dominates the reader's need, so the bytes are exact).
TEST(SilentPeerFailoverEdge, ReadsRehostFromPersistedImage)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::path(::testing::TempDir()) / "dsm-ckpt-rehost";
    fs::remove_all(dir);

    constexpr int kWords = 1024; // 8 pages at 1024 B: odd ones homed
                                 // at node 1 (home = page % nprocs)
    const auto kernel = [](Runtime &rt) {
        auto a = SharedArray<std::uint64_t>::alloc(rt, kWords, 4, "rh");
        if (rt.self() == 1) {
            for (int i = 0; i < kWords; ++i)
                a.set(i, static_cast<std::uint64_t>(i) + 1);
        }
        rt.barrier(1); // cut 1: both nodes persist images
        if (rt.self() == 0) {
            // Let node 1 race to barrier 2, cut, and go dark; then
            // read mid-epoch while it is provably down.
            std::this_thread::sleep_for(std::chrono::milliseconds(120));
            for (int i = 0; i < kWords; ++i)
                ASSERT_EQ(a.get(i), static_cast<std::uint64_t>(i) + 1);
        }
        rt.barrier(2); // node 1's outage cut
        rt.barrier(3);
    };

    const KernelCase kc = {"rehost", kernel,
                           kWords * sizeof(std::uint64_t), 2, 1};
    const ProtocolLeg &leg = kLegs[2]; // home-based LRC

    FaultPlan plain;
    plain.dir = (dir / "ref").string();
    const RunOutput reference = runCase(leg, kc, plain);
    EXPECT_EQ(reference.result.total.rehostedFetches, 0u);

    FaultPlan outage;
    outage.dir = (dir / "dark").string();
    outage.outageNode = 1;
    outage.outageEpoch = 2;
    outage.outageMs = 400; // node 0's reads land well inside
    outage.fdDeadlineMs = 10;
    const RunOutput dark = runCase(leg, kc, outage);
    expectBitIdentical(kc, leg, reference.state, dark.state);
    EXPECT_GE(dark.result.total.rehostedFetches, 1u)
        << "reads of victim-homed pages waited out the outage instead "
           "of re-hosting from the checkpoint frontier";
    EXPECT_EQ(dark.result.total.recoveryReplays, 1u);
    fs::remove_all(dir);
}

// The re-host path reads a dead home's page through
// PersistedImage::arenaBytes: the bytes the cut recorded, or nothing
// when the arena the cut recorded does not cover them.
TEST(SilentPeerFailoverEdge, PersistedImageServesOnlyTheRecordedArena)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::path(::testing::TempDir()) / "dsm-ckpt-arenabytes";
    fs::remove_all(dir);

    constexpr int kWords = 256; // two 1024 B pages, the last allocation
    constexpr std::size_t kBytes = kWords * sizeof(std::uint64_t);
    std::atomic<GlobalAddr> base{0};
    const auto kernel = [&](Runtime &rt) {
        auto a = SharedArray<std::uint64_t>::alloc(rt, kWords, 4, "ab");
        if (rt.self() == 1) {
            base = a.base();
            for (int i = 0; i < kWords; ++i)
                a.set(i, static_cast<std::uint64_t>(i) + 1);
        }
        rt.barrier(1); // cut 1: node 1's image holds its writes
    };
    FaultPlan snap;
    snap.dir = dir.string();
    runCase(kLegs[1], {"arenabytes", kernel, kBytes, 2, 1}, snap);

    const CheckpointCoordinator::PersistedImage img =
        CheckpointCoordinator::loadLatestImage(dir.string(), 1);
    ASSERT_GT(img.epoch, 0u);
    const auto bytes = img.arenaBytes(base, kBytes);
    ASSERT_TRUE(bytes.has_value());
    ASSERT_EQ(bytes->size(), kBytes);
    for (int i = 0; i < kWords; ++i) {
        std::uint64_t word;
        std::memcpy(&word, bytes->data() + i * sizeof(word), sizeof(word));
        EXPECT_EQ(word, static_cast<std::uint64_t>(i) + 1) << "word " << i;
    }
    // The recorded arena ends with the array: a page that straddles
    // its end, or lies past it, is not in the image.
    EXPECT_TRUE(img.arenaBytes(base + kBytes - 512, 512).has_value());
    EXPECT_FALSE(img.arenaBytes(base + kBytes - 512, 1024).has_value());
    EXPECT_FALSE(img.arenaBytes(base + kBytes, 1024).has_value());
    // No cut persisted: nothing.
    EXPECT_FALSE(
        CheckpointCoordinator::PersistedImage{}.arenaBytes(0, 8).has_value());
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Incremental delta checkpoints.

TEST(DeltaCheckpoint, RoundTripRebuildsExactImage)
{
    std::vector<std::byte> prev(4096 + 13);
    for (std::size_t i = 0; i < prev.size(); ++i)
        prev[i] = static_cast<std::byte>(i * 31u);
    // A few scattered runs of change, plus a longer tail.
    std::vector<std::byte> cur = prev;
    cur[100] = std::byte{0xaa};
    cur[101] = std::byte{0xbb};
    for (int i = 2000; i < 2100; ++i)
        cur[i] = std::byte{0x5c};
    cur.resize(prev.size() + 200, std::byte{0x77});

    const std::vector<std::byte> delta =
        CheckpointCoordinator::makeDelta(prev, cur, 4);
    EXPECT_LT(delta.size(), cur.size() / 2)
        << "a sparse change should not cost a full image";
    const std::vector<std::byte> rebuilt =
        CheckpointCoordinator::applyDelta(prev, delta, 4);
    ASSERT_EQ(rebuilt.size(), cur.size());
    EXPECT_EQ(std::memcmp(rebuilt.data(), cur.data(), cur.size()), 0);

    // Identical images: the delta degenerates to headers + tail.
    const std::vector<std::byte> none =
        CheckpointCoordinator::makeDelta(prev, prev, 9);
    EXPECT_LT(none.size(), 128u);
    const std::vector<std::byte> same =
        CheckpointCoordinator::applyDelta(prev, none, 9);
    EXPECT_EQ(same, prev);
}

// A victim killed at a *delta* cut restores through the persisted
// base + delta chain (anchor walked back, deltas replayed forward) —
// and the rebuilt node is bit-identical to the uninterrupted run.
TEST(DeltaCheckpoint, ChainRestoreIsBitIdentical)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::path(::testing::TempDir()) / "dsm-ckpt-deltachain";
    fs::remove_all(dir);

    const KernelCase kc = {"stencil", stencilKernel, stencilBytes(), 4,
                           2};
    FaultPlan kill;
    kill.killNode = 2;
    kill.killEpoch = 5; // anchors at 1, 4, 7: epoch 5 is a delta cut
    kill.dir = dir.string();
    kill.delta = true;
    kill.anchorEvery = 3;
    for (const ProtocolLeg &leg : kLegs) {
        fs::remove_all(dir);
        const RunOutput reference = runCase(leg, kc, FaultPlan{});
        const RunOutput chaos = runCase(leg, kc, kill);
        expectBitIdentical(kc, leg, reference.state, chaos.state);
        EXPECT_EQ(chaos.result.total.recoveryReplays, 1u) << leg.label;
        EXPECT_GT(chaos.result.total.checkpointDeltaBytes, 0u)
            << leg.label;

        // The manifest records the chain: full anchors and the deltas'
        // base epochs.
        std::ifstream in(dir.string() + "/manifest-node2.txt");
        ASSERT_TRUE(in.good());
        std::string all((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
        EXPECT_NE(all.find("kind full"), std::string::npos);
        EXPECT_NE(all.find("kind delta base 4"), std::string::npos);
    }
    fs::remove_all(dir);
}

// The point of deltas: a sparse-write epoch stores a fraction of the
// full image. The kernel populates a 128 KiB array once, then touches
// a handful of words per epoch — the final cut's stored bytes must
// shrink at least 5x against full-image checkpointing.
TEST(DeltaCheckpoint, SparseWritesShrinkStoredBytesFiveFold)
{
    constexpr int kWords = 16384;
    const auto sparse = [](Runtime &rt) {
        auto a =
            SharedArray<std::uint64_t>::alloc(rt, kWords, 4, "sparse");
        const int w = rt.worker();
        const int nw = rt.nworkers();
        rt.barrier(0);
        for (int i = w; i < kWords; i += nw) // dense epoch: populate
            a.set(i, static_cast<std::uint64_t>(i));
        rt.barrier(1);
        for (int e = 0; e < 4; ++e) { // sparse epochs: 8 words each
            if (w == 0) {
                for (int i = 0; i < 8; ++i)
                    a.set(i, static_cast<std::uint64_t>(100 * e + i));
            }
            rt.barrier(static_cast<BarrierId>(2 + e));
        }
    };
    const KernelCase kc = {"sparse", sparse, kWords * sizeof(std::uint64_t),
                           2, 1};
    // Home-based LRC: flushed diffs leave the node, so the snapshot is
    // dominated by the arena (serialized at a fixed offset) and the
    // word-run scan sees exactly the sparse writes. Homeless LRC's
    // growing interval log would smear the comparison.
    const ProtocolLeg &leg = kLegs[2];

    FaultPlan fullPlan;
    fullPlan.dir = (std::filesystem::path(::testing::TempDir()) /
                    "dsm-ckpt-full")
                       .string();
    std::filesystem::remove_all(fullPlan.dir);
    FaultPlan deltaPlan = fullPlan;
    deltaPlan.dir = (std::filesystem::path(::testing::TempDir()) /
                     "dsm-ckpt-delta")
                        .string();
    std::filesystem::remove_all(deltaPlan.dir);
    deltaPlan.delta = true;
    deltaPlan.anchorEvery = 8; // anchor at 1; cuts 2..6 are deltas

    const RunOutput full = runCase(leg, kc, fullPlan);
    const RunOutput incr = runCase(leg, kc, deltaPlan);
    expectBitIdentical(kc, leg, full.state, incr.state);
    EXPECT_EQ(full.result.total.checkpointDeltaBytes, 0u);
    EXPECT_GT(incr.result.total.checkpointDeltaBytes, 0u);
    ASSERT_GT(incr.result.checkpointBytes, 0u);
    EXPECT_GE(full.result.checkpointBytes,
              5 * incr.result.checkpointBytes)
        << "final sparse-epoch cut stored " << incr.result.checkpointBytes
        << " bytes against a " << full.result.checkpointBytes
        << "-byte full image";
    if (std::getenv("DSM_TEST_KEEP") == nullptr) {
        std::filesystem::remove_all(fullPlan.dir);
        std::filesystem::remove_all(deltaPlan.dir);
    }
}

// The nightly chaos workflow's entry point: knobs left at their -1
// sentinels resolve from DSM_FAULT_SEED / DSM_FAULT_MSG_DROP /
// DSM_FAULT_KILL_NODE / DSM_FAULT_KILL_EPOCH, so the workflow rotates
// seeds, victims, and epochs per run without rebuilding.
TEST(FaultInjection, ChaosFromEnvironment)
{
    const char *kill = std::getenv("DSM_FAULT_KILL_NODE");
    const char *drop = std::getenv("DSM_FAULT_MSG_DROP");
    if (kill == nullptr && drop == nullptr)
        GTEST_SKIP() << "no DSM_FAULT_* in the environment";

    const KernelCase kc = {"stencil", stencilKernel, stencilBytes(), 8,
                           2};
    for (const ProtocolLeg &leg : kLegs) {
        // Explicitly-off reference vs. an all-defaults config that
        // picks the whole fault plan up from the environment.
        const RunOutput reference = runCase(leg, kc, FaultPlan{});

        ClusterConfig cc;
        cc.nprocs = kc.nprocs;
        cc.threadsPerNode = kc.threads;
        cc.arenaBytes = 1u << 20;
        cc.pageSize = 1024;
        cc.runtime = RuntimeConfig::parse(leg.config);
        cc.homeBasedLrc = leg.home;
        cc.homeMigrateThreshold = 4;
        Cluster cluster(cc);
        const RunResult result = cluster.run(kc.run);
        std::vector<std::byte> state(kc.stateBytes);
        std::memcpy(state.data(), cluster.memory(0, 0), kc.stateBytes);

        expectBitIdentical(kc, leg, reference.state, state);
        const char *epoch = std::getenv("DSM_FAULT_KILL_EPOCH");
        const int victim = kill != nullptr ? std::atoi(kill) : -1;
        // The stencil crosses 2 + 2 * kSteps barrier cuts; a rotated
        // kill epoch beyond that never fires (still a valid run).
        const bool fires = victim >= 0 && victim < kc.nprocs &&
                           (epoch == nullptr ||
                            std::atoi(epoch) <= 2 + 2 * kSteps);
        if (fires) {
            EXPECT_EQ(result.total.recoveryReplays, 1u) << leg.label;
        }
    }
}

// The nightly silent-peer leg's entry point: victim, epoch, outage
// length and detector deadline come from DSM_FAULT_OUTAGE_* /
// DSM_FD_DEADLINE_MS, everything else takes the library defaults.
TEST(FaultInjection, OutageFromEnvironment)
{
    const char *victimEnv = std::getenv("DSM_FAULT_OUTAGE_NODE");
    if (victimEnv == nullptr)
        GTEST_SKIP() << "no DSM_FAULT_OUTAGE_NODE in the environment";

    const KernelCase kc = {"stencil", stencilKernel, stencilBytes(), 8,
                           2};
    for (const ProtocolLeg &leg : kLegs) {
        const RunOutput reference = runCase(leg, kc, FaultPlan{});

        ClusterConfig cc;
        cc.nprocs = kc.nprocs;
        cc.threadsPerNode = kc.threads;
        cc.arenaBytes = 1u << 20;
        cc.pageSize = 1024;
        cc.runtime = RuntimeConfig::parse(leg.config);
        cc.homeBasedLrc = leg.home;
        cc.homeMigrateThreshold = 4;
        Cluster cluster(cc);
        const RunResult result = cluster.run(kc.run);
        std::vector<std::byte> state(kc.stateBytes);
        std::memcpy(state.data(), cluster.memory(0, 0), kc.stateBytes);

        expectBitIdentical(kc, leg, reference.state, state);
        const char *epoch = std::getenv("DSM_FAULT_OUTAGE_EPOCH");
        const int victim = std::atoi(victimEnv);
        const bool fires = victim >= 0 && victim < kc.nprocs &&
                           (epoch == nullptr ||
                            std::atoi(epoch) <= 2 + 2 * kSteps);
        if (fires) {
            EXPECT_EQ(result.total.recoveryReplays, 1u) << leg.label;
            EXPECT_GE(result.total.peerDownDetections, 1u) << leg.label;
            EXPECT_GE(result.total.peerDownRecoveries, 1u) << leg.label;
        }
    }
}

} // namespace
} // namespace dsm

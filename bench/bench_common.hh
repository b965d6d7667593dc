/**
 * @file
 * Shared plumbing for the table-reproduction benches: workload scale
 * selection (DSM_SCALE=test|bench|paper), the 8-node cluster base
 * configuration, and paper-reference values for EXPERIMENTS.md
 * comparisons.
 */

#ifndef DSM_BENCH_COMMON_HH
#define DSM_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <string>

#include "driver/experiment.hh"
#include "driver/table.hh"

namespace dsm {

inline AppParams
benchParams()
{
    const char *scale = std::getenv("DSM_SCALE");
    if (scale && std::string(scale) == "paper")
        return AppParams::paperScale();
    if (scale && std::string(scale) == "test")
        return AppParams::testScale();
    return AppParams::benchScale();
}

inline ClusterConfig
benchCluster()
{
    ClusterConfig cc;
    cc.nprocs = 8;
    cc.arenaBytes = 48u << 20;
    cc.pageSize = 4096;
    if (const char *np = std::getenv("DSM_NPROCS"))
        cc.nprocs = std::atoi(np);
    // threadsPerNode stays 0 here: Cluster resolves it from the
    // DSM_THREADS environment variable (default 1), so every table
    // bench runs at any (nodes x threads) point without recompiling.
    // Fast-path ablations (default on; set to 0 to fall back to the
    // seed behavior for old-vs-new comparisons in the table drivers).
    if (const char *v = std::getenv("DSM_BATCH_DIFF"))
        cc.batchDiffFetch = std::atoi(v) != 0;
    if (const char *v = std::getenv("DSM_GC"))
        cc.gcAtBarriers = std::atoi(v) != 0;
    if (const char *v = std::getenv("DSM_POOL"))
        cc.pooledBuffers = std::atoi(v) != 0;
    if (const char *v = std::getenv("DSM_NOTICE"))
        cc.piggybackWriteNotices = std::atoi(v) != 0;
    // DSM_SIMD=0 is read by the scan-kernel dispatch itself
    // (mem/wide_scan.cc): it pins the wide fallback process-wide.
    // Home-based LRC (LRC-diff only; timestamping stays homeless).
    if (const char *v = std::getenv("DSM_HOME"))
        cc.homeBasedLrc = std::atoi(v) != 0;
    if (const char *v = std::getenv("DSM_HOME_MIG"))
        cc.homeMigrateThreshold =
            static_cast<std::uint32_t>(std::atoi(v));
    // Epoch window of the home-migration counters (accesses between
    // halvings); 0 restores the legacy undecayed counts.
    if (const char *v = std::getenv("DSM_HOME_DECAY"))
        cc.homeDecayWindow = static_cast<std::uint32_t>(std::atoi(v));
    // Sharing-policy knobs (DSM_LOCK_FAIRNESS, DSM_HOME_LAST_WRITER,
    // DSM_HOME_PINGPONG, DSM_HOME_DEFER) stay unset here: Cluster
    // resolves them from the environment itself, so any table bench
    // runs at any policy point without recompiling. The classifier's
    // switch threshold has no env knob and can be pinned here if a
    // sweep needs it.
    return cc;
}

/** Bench header: the title and @p cc as Cluster will resolve it (the
 *  one-line JSON record of every knob). */
inline void
printHeader(const char *title, const ClusterConfig &cc)
{
    std::printf("=== %s ===\n", title);
    std::printf("config: %s\n", cc.resolved().toJson().c_str());
    std::printf("(set DSM_SCALE=test|bench|paper to change workload "
                "sizes)\n\n");
}

/** Paper Table 3 values (seconds on 8 DECstation-5000/240). */
struct PaperRow
{
    const char *app;
    double oneProc;
    double ec;
    double lrc; ///< < 0: n/a
    const char *ecImpl;
    const char *lrcImpl;
};

inline const std::vector<PaperRow> &
paperTable3()
{
    static const std::vector<PaperRow> kRows = {
        {"SOR", 86.10, 13.23, 13.14, "time", "diff"},
        {"SOR+", 86.10, 13.22, -1.0, "time", "time"},
        {"QS", 47.89, 8.33, 9.66, "diff", "diff"},
        {"Water", 61.21, 18.25, 12.41, "ci", "diff"},
        {"Barnes-Hut", 133.76, 63.07, 37.75, "time", "diff"},
        {"IS", 10.27, 1.81, 1.86, "time", "time"},
        {"3D-FFT", 39.82, 8.32, 9.23, "ci", "diff"},
    };
    return kRows;
}

} // namespace dsm

#endif // DSM_BENCH_COMMON_HH

/**
 * @file
 * The sharing-policy QS sweep: quicksort — the paper's migratory
 * task-queue application, and the one Table 3 app whose home-mode
 * outcome was schedule-dependent before the policy layer — run
 * repeatedly at one (nodes x threads) point over the policy grid
 *
 *     fairness bound k (DSM_LOCK_FAIRNESS)
 *   x home migration policy (access-count / migrate-to-last-writer
 *     with the ping-pong cap)
 *   x flush transport (eager / deferred-merged)
 *
 * reporting, per cell, the mean, min-max range and relative spread of
 * the message count and modeled execution time over DSM_QS_RUNS
 * (default 5) runs. The acceptance gate of the policy layer is the
 * spread column: with bounded fairness plus migrate-to-last-writer
 * the home-mode row must be reproducible (< 5% spread), not a tail
 * sample.
 *
 * DSM_NPROCS / DSM_THREADS choose the topology (default 4x2),
 * DSM_SCALE the workload size as in the other tables.
 */

#include <algorithm>
#include <cmath>

#include "bench_common.hh"

using namespace dsm;

namespace {

struct Cell
{
    const char *label;
    bool home;
    int fairness;
    int lastWriter;
    int deferFlush;
    /** Ping-pong cap for the last-writer cells (-1 = resolved
     *  default). */
    int pingPong = -1;
    /** Latency-path knobs (PR 9): blockingDeq -1 keeps the
     *  env-resolved default, 0/1 forces. Blocking dequeue replaces the
     *  task-queue poll's hot spin with a futex park; adaptive fairness
     *  (off by default) lets each lock find its own hand-off bound. */
    int blockingDeq = -1;
    int adaptFair = 0;
};

struct Spread
{
    double mean = 0;
    double lo = 0;
    double hi = 0;
    double sd = 0;

    /** Coefficient of variation (the "reproducible across runs"
     *  criterion: < 5%). */
    double
    cvPct() const
    {
        return mean > 0 ? 100.0 * sd / mean : 0.0;
    }
};

Spread
spreadOf(const std::vector<double> &xs)
{
    Spread s;
    s.lo = *std::min_element(xs.begin(), xs.end());
    s.hi = *std::max_element(xs.begin(), xs.end());
    for (double x : xs)
        s.mean += x;
    s.mean /= static_cast<double>(xs.size());
    for (double x : xs)
        s.sd += (x - s.mean) * (x - s.mean);
    s.sd = std::sqrt(s.sd / static_cast<double>(xs.size()));
    return s;
}

std::string
fmt(double v, int digits = 2)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.*f", digits, v);
    return buf;
}

} // namespace

int
main()
{
    AppParams params = benchParams();
    ClusterConfig base = benchCluster();
    if (base.nprocs == 8 && std::getenv("DSM_NPROCS") == nullptr)
        base.nprocs = 4; // default point of the acceptance sweep: 4x2
    if (base.threadsPerNode == 0 && std::getenv("DSM_THREADS") == nullptr)
        base.threadsPerNode = 2;
    printHeader("QS sharing-policy sweep (fairness x migration x "
                "transport)",
                base);

    int runs = 5;
    if (const char *v = std::getenv("DSM_QS_RUNS"))
        runs = std::max(2, std::atoi(v));

    const Cell cells[] = {
        {"homeless k=0", false, 0, 0, 0},
        {"homeless k=4", false, 4, 0, 0},
        {"home access k=0", true, 0, 0, 0},
        {"home access k=4", true, 4, 0, 0},
        {"home lastw k=0", true, 0, 1, 0},
        {"home lastw k=4", true, 4, 1, 0},
        // The acceptance point: migrate once to the first writer the
        // classifier picks, then pin — uniform per-op costs make the
        // home-mode outcome reproducible instead of a tail sample.
        {"home lastw-pin k=4", true, 4, 1, 0, 1},
        {"home lastw+defer k=4", true, 4, 1, 1},
        // Latency-path sweep points (PR 9): the blocking dequeue on
        // the acceptance cell (its park consolidates the task-queue
        // poll storm — the msgs cv% must not regress vs the row
        // above), the adaptive per-lock bound in place of the static
        // k, and everything armed at once.
        {"home lastw-pin +blkdeq", true, 4, 1, 0, 1, 1},
        {"home lastw-pin adapt-k", true, 0, 1, 0, 1, -1, 1},
        {"home latency-all", true, 4, 1, 1, 1, 1, 1},
    };

    Table table({"policy", "NxT", "time mean (s)", "time range",
                 "time cv%", "msgs mean", "msgs range", "msgs cv%",
                 "forced", "migr", "supp", "flushes merged", "parks",
                 "bound +/-"});

    const std::string topo =
        std::to_string(base.nprocs) + "x" +
        std::to_string(base.resolved().threadsPerNode);
    for (const Cell &cell : cells) {
        std::vector<double> times, msgs;
        std::uint64_t forced = 0, migrations = 0, suppressed = 0,
                      merged = 0, parks = 0, grows = 0, shrinks = 0;
        for (int r = 0; r < runs; ++r) {
            ClusterConfig cc = base;
            cc.homeBasedLrc = cell.home;
            cc.lockLocalHandoffBound = cell.fairness;
            cc.homeMigrateLastWriter = cell.lastWriter;
            cc.homeFlushDefer = cell.deferFlush;
            cc.homePingPongLimit = cell.pingPong;
            cc.blockingDequeue = cell.blockingDeq;
            cc.lockFairnessAdaptive = cell.adaptFair;
            ExperimentResult res = runExperiment(
                "QS", RuntimeConfig::parse("LRC-diff"), params, cc);
            times.push_back(res.execSeconds());
            msgs.push_back(
                static_cast<double>(res.run.total.messagesSent));
            forced += res.run.total.remoteHandoffsForced;
            migrations += res.run.total.homeMigrations;
            suppressed += res.run.total.homeMigrationsSuppressed;
            merged += res.run.total.homeFlushesDeferred;
            parks += res.run.total.idleParks;
            grows += res.run.total.fairnessBoundGrows;
            shrinks += res.run.total.fairnessBoundShrinks;
        }
        const Spread ts = spreadOf(times);
        const Spread ms = spreadOf(msgs);
        table.addRow(
            {cell.label, topo, fmt(ts.mean, 3),
             fmt(ts.lo, 3) + "-" + fmt(ts.hi, 3),
             fmt(ts.cvPct(), 1), fmt(ms.mean, 0),
             fmt(ms.lo, 0) + "-" + fmt(ms.hi, 0),
             fmt(ms.cvPct(), 1),
             std::to_string(forced / runs),
             std::to_string(migrations / runs),
             std::to_string(suppressed / runs),
             std::to_string(merged / runs),
             std::to_string(parks / runs),
             std::to_string(grows / runs) + "/" +
                 std::to_string(shrinks / runs)});
    }
    table.print();
    std::printf("\n(means over %d runs each; cv%% is the coefficient "
                "of variation — the < 5%% bar is the policy layer's "
                "reproducibility criterion for QS)\n",
                runs);
    return 0;
}

/**
 * @file
 * Dumps the T=1 protocol fingerprint behind
 * tests/data/t1_parity_golden.txt: the barrier-separated apps (SOR,
 * SOR+) under every runtime configuration at test scale, with the SMP
 * satellite knobs pinned to their legacy values, printing exec time
 * and every protocol counter.
 *
 * Not built by CMake — compile by hand when the golden needs
 * regenerating (a deliberate protocol change at T=1):
 *
 *   c++ -std=c++20 -O2 -I src tools/t1_parity_dump.cc build/libdsm.a \
 *       -lpthread -o parity_dump && ./parity_dump
 *
 * then keep only the schedule-stable counters (the golden's current
 * counter set; exec times, byte counts and ownership-residency
 * counters like localLockHits/lockForwards/updatesSent vary run to
 * run even in the seed, because the centralized managers serve
 * requests in real arrival order — and home-mode invalidation counts
 * depend on flush-vs-notice arrival order).
 */

#include <cstdio>

#include "driver/experiment.hh"

using namespace dsm;

int
main()
{
    AppParams params = AppParams::testScale();
    ClusterConfig cc;
    cc.nprocs = 8;
    cc.arenaBytes = 16u << 20;
    cc.pageSize = 4096;

    for (const std::string &app : {std::string("SOR"), std::string("SOR+")}) {
        for (const RuntimeConfig &config : RuntimeConfig::all()) {
            for (int home = 0; home <= 1; ++home) {
                if (home &&
                    !(config.model == Model::LRC &&
                      config.collect == CollectMethod::Diffing)) {
                    continue;
                }
                ClusterConfig run_cc = cc;
                run_cc.homeBasedLrc = home != 0;
                // Pin the scenario point the golden was frozen at:
                // one thread per node, legacy (undecayed)
                // home-migration counters.
                run_cc.threadsPerNode = 1;
                run_cc.homeDecayWindow = 0;
                ExperimentResult r =
                    runExperiment(app, config, params, run_cc);
                std::printf("%s %s home=%d exec=%llu msgs=%llu\n",
                            r.app.c_str(), config.name().c_str(), home,
                            static_cast<unsigned long long>(
                                r.run.execTimeNs),
                            static_cast<unsigned long long>(
                                r.run.networkMessages));
                for (const auto &[name, value] : r.run.total.items()) {
                    std::printf("  %s=%llu\n", name.c_str(),
                                static_cast<unsigned long long>(value));
                }
                for (std::size_t n = 0; n < r.run.nodeTimesNs.size();
                     ++n) {
                    std::printf("  node%zu=%llu\n", n,
                                static_cast<unsigned long long>(
                                    r.run.nodeTimesNs[n]));
                }
            }
        }
    }
    return 0;
}

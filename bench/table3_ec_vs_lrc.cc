/**
 * @file
 * Reproduces Table 3 of the paper: for every application, the
 * 1-processor execution time and the best EC and best LRC
 * implementations' 8-processor times, plus the per-run message and
 * data-volume statistics quoted throughout Section 7.2.
 */

#include <algorithm>

#include "bench_common.hh"

using namespace dsm;

int
main()
{
    AppParams params = benchParams();
    ClusterConfig cc = benchCluster();
    printHeader("Table 3: EC vs. LRC (best implementation per model)",
                cc);

    // With DSM_CKPT_DIR set every run takes coordinated barrier
    // checkpoints, and the table grows a recovery column: the largest
    // per-node snapshot and the wipe+restore wall time (nonzero only
    // when DSM_FAULT_KILL_NODE also arms a chaos kill).
    const bool recovery = std::getenv("DSM_CKPT_DIR") != nullptr;
    std::vector<std::string> headers = {
        "Application", "NxT", "1 proc.", "EC", "LRC", "LRC-home",
        "EC Imp.", "LRC Imp.", "EC msgs", "LRC msgs", "LRCh msgs",
        "EC MB", "LRC MB", "LRCh MB"};
    if (recovery) {
        headers.push_back("Ckpt KB");
        headers.push_back("Restore us");
    }
    Table table(headers);
    Table paper({"Application", "paper EC", "paper LRC", "paper winner",
                 "ours winner", "shape"});

    // Three protocol columns: the EC and LRC sweeps are pinned
    // homeless (so DSM_HOME=1 cannot silently turn the LRC baseline
    // into a second home-based run), and the home column pins the
    // home-based variant of the diffing implementation (timestamping
    // has no home-based variant).
    cc.homeBasedLrc = false;
    ClusterConfig hc = cc;
    hc.homeBasedLrc = true;

    for (const std::string &app : allAppNames()) {
        ModelSweep ec = sweepModel(Model::EC, app, params, cc);
        ModelSweep lrc = sweepModel(Model::LRC, app, params, cc);
        ExperimentResult home = runExperiment(
            app, RuntimeConfig::parse("LRC-diff"), params, hc);
        const ExperimentResult &be = ec.best();
        const ExperimentResult &bl = lrc.best();

        auto impl = [](const RuntimeConfig &config) {
            const std::string name = config.name();
            return name.substr(name.find('-') + 1);
        };
        const std::string topo =
            std::to_string(cc.nprocs) + "x" +
            std::to_string(cc.resolvedThreadsPerNode());
        std::vector<std::string> row = {
            app, topo, fmtSeconds(be.seqSeconds(cc.cost)),
            fmtSeconds(be.execSeconds()), fmtSeconds(bl.execSeconds()),
            fmtSeconds(home.execSeconds()), impl(be.config),
            impl(bl.config), std::to_string(be.run.total.messagesSent),
            std::to_string(bl.run.total.messagesSent),
            std::to_string(home.run.total.messagesSent),
            fmtMb(be.run.megabytesSent()),
            fmtMb(bl.run.megabytesSent()),
            fmtMb(home.run.megabytesSent())};
        if (recovery) {
            const std::uint64_t kb =
                std::max({be.run.checkpointBytes, bl.run.checkpointBytes,
                          home.run.checkpointBytes}) /
                1024;
            const std::uint64_t us =
                std::max({be.run.restoreTimeNs, bl.run.restoreTimeNs,
                          home.run.restoreTimeNs}) /
                1000;
            row.push_back(std::to_string(kb));
            row.push_back(std::to_string(us));
        }
        table.addRow(row);

        for (const PaperRow &row : paperTable3()) {
            if (row.app != app || row.lrc < 0)
                continue;
            const char *paper_winner =
                row.ec < row.lrc * 0.97 ? "EC"
                : row.lrc < row.ec * 0.97 ? "LRC"
                                          : "tie";
            const double e = be.execSeconds();
            const double l = bl.execSeconds();
            const char *our_winner = e < l * 0.97 ? "EC"
                                     : l < e * 0.97 ? "LRC"
                                                    : "tie";
            paper.addRow({app, fmtSeconds(row.ec), fmtSeconds(row.lrc),
                          paper_winner, our_winner,
                          std::string(paper_winner) == our_winner
                              ? "match"
                              : "DIFFERS"});
        }
    }

    table.print();
    std::printf("\n--- paper-vs-measured winners ---\n");
    paper.print();
    return 0;
}

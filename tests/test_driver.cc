/**
 * @file
 * Tests for the driver layer: configuration parsing, table rendering,
 * experiment plumbing, and the cost model's arithmetic.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/cluster.hh"
#include "driver/experiment.hh"
#include "driver/table.hh"

namespace dsm {
namespace {

TEST(Config, NamesRoundTrip)
{
    for (const RuntimeConfig &config : RuntimeConfig::all()) {
        EXPECT_EQ(RuntimeConfig::parse(config.name()), config);
    }
    EXPECT_EQ(RuntimeConfig::all().size(), 6u);
}

TEST(Config, PaperNames)
{
    EXPECT_EQ(RuntimeConfig::parse("EC-ci").trap,
              TrapMethod::CompilerInstrumentation);
    EXPECT_EQ(RuntimeConfig::parse("EC-time").collect,
              CollectMethod::Timestamping);
    EXPECT_EQ(RuntimeConfig::parse("LRC-diff").model, Model::LRC);
    EXPECT_EQ(RuntimeConfig::parse("LRC-diff").name(), "LRC-diff");
}

TEST(Config, UnknownNameIsFatal)
{
    EXPECT_DEATH({ RuntimeConfig::parse("EC-lazy"); }, "unknown");
}

/** Retired fields are knob-table rows that allow one value; they stay
 *  only because the benchmark in perfbench/ assigns every field. Send
 *  coalescing accepts only 0, the arena-pressure GC trigger only false
 *  and 2048, the config switch to the seed scalar scan only true, the
 *  reply bypass only 1, the modeled stop-and-wait loss only 0 and the
 *  diff gap only 0. */
TEST(Config, RetiredCoalescingIsRejected)
{
    ClusterConfig cc;
    cc.nprocs = 2;
    cc.coalesceSends = 1;
    EXPECT_DEATH({ Cluster cluster(cc); }, "coalescing is retired");
    ClusterConfig gc;
    gc.nprocs = 2;
    gc.adaptiveGcThreshold = true;
    EXPECT_DEATH({ Cluster cluster(gc); }, "GC trigger is retired");
    ClusterConfig pressure;
    pressure.nprocs = 2;
    pressure.gcPressurePages = 1024;
    EXPECT_DEATH({ Cluster cluster(pressure); }, "GC trigger is retired");
    ClusterConfig scan;
    scan.nprocs = 2;
    scan.wideDiffScan = false;
    EXPECT_DEATH({ Cluster cluster(scan); }, "scalar scan is retired");
    ClusterConfig bypass;
    bypass.nprocs = 2;
    bypass.replyBypass = 0;
    EXPECT_DEATH({ Cluster cluster(bypass); },
                 "reply-bypass-off switch is retired");
    ClusterConfig loss;
    loss.nprocs = 2;
    loss.lossEveryNth = 1;
    EXPECT_DEATH({ Cluster cluster(loss); },
                 "stop-and-wait loss is retired");
    ClusterConfig gap;
    gap.nprocs = 2;
    gap.diffGapWords = 8;
    EXPECT_DEATH({ Cluster cluster(gap); },
                 "gap-coalesced diffs are retired");
}

/** Optimistic home reads are retired the same way: only the defaults
 *  of both fields are accepted. */
TEST(Config, RetiredOptimisticReadsAreRejected)
{
    ClusterConfig on;
    on.nprocs = 2;
    on.optimisticHomeReads = 1;
    EXPECT_DEATH({ Cluster cluster(on); }, "home reads are retired");
    ClusterConfig budget;
    budget.nprocs = 2;
    budget.optReadMaxRetries = 0;
    EXPECT_DEATH({ Cluster cluster(budget); }, "home reads are retired");
}

/** The migration counters' decay window and the last-writer
 *  classifier's switch threshold are fixed: only 1024 and 3 are
 *  accepted. */
TEST(Config, RetiredHomeClassifierKnobsAreRejected)
{
    ClusterConfig decay;
    decay.nprocs = 2;
    decay.homeDecayWindow = 0;
    EXPECT_DEATH({ Cluster cluster(decay); }, "decay window is fixed");
    ClusterConfig switches;
    switches.nprocs = 2;
    switches.homeWriterSwitchThreshold = 2;
    EXPECT_DEATH({ Cluster cluster(switches); },
                 "switch threshold is fixed");
}

/** Write notices always ride on LRC fetch replies, and barrier GC is
 *  always on (the threshold's maximum runs none): both switches
 *  accept only true. */
TEST(Config, RetiredLrcSwitchesAreRejected)
{
    ClusterConfig notices;
    notices.nprocs = 2;
    notices.piggybackWriteNotices = false;
    EXPECT_DEATH({ Cluster cluster(notices); },
                 "notices always ride on LRC fetch replies");
    ClusterConfig gc;
    gc.nprocs = 2;
    gc.gcAtBarriers = false;
    EXPECT_DEATH({ Cluster cluster(gc); }, "barrier GC is always on");
}

// ---------------------------------------------------------------------
// The knob table (core/config.cc): ClusterConfig::resolved().

/** The environment variables the knob table reads. */
const char *const kTableVariables[] = {
    "DSM_THREADS", "DSM_LOCK_FAIRNESS", "DSM_HOME_LAST_WRITER",
    "DSM_HOME_PINGPONG", "DSM_HOME_DEFER", "DSM_BLOCKING_DEQ",
    "DSM_FAULT_SEED", "DSM_FAULT_MSG_DROP",
    "DSM_FAULT_KILL_NODE", "DSM_FAULT_KILL_EPOCH", "DSM_FAULT_OUTAGE_NODE",
    "DSM_FAULT_OUTAGE_EPOCH", "DSM_FAULT_OUTAGE_MS", "DSM_FD_DEADLINE_MS",
    "DSM_CKPT_DIR", "DSM_TRANSPORT", "DSM_SOCKET_DIR",
};

/** Variables the table no longer reads: nothing set them, or their
 *  row is retired. */
const char *const kDroppedVariables[] = {
    "DSM_LOCK_FAIRNESS_ADAPT", "DSM_CKPT_EVERY", "DSM_CKPT_DELTA",
    "DSM_CKPT_ANCHOR", "DSM_FAULT_RTO_FIRST_US", "DSM_FAULT_RTO_CAP_US",
    "DSM_REPLY_BYPASS",
};

/** Unsets every table variable (and the dropped ones) for one test and
 *  restores them afterwards, so a CI leg's environment cannot leak in. */
class KnobEnvironment
{
  public:
    KnobEnvironment()
    {
        for (const char *name : kTableVariables)
            save(name);
        for (const char *name : kDroppedVariables)
            save(name);
    }

    KnobEnvironment(const KnobEnvironment &) = delete;
    KnobEnvironment &operator=(const KnobEnvironment &) = delete;

    ~KnobEnvironment()
    {
        for (const auto &[name, value] : saved) {
            if (value)
                ::setenv(name.c_str(), value->c_str(), 1);
            else
                ::unsetenv(name.c_str());
        }
    }

    void
    set(const char *name, const char *value)
    {
        ::setenv(name, value, 1);
    }

  private:
    void
    save(const char *name)
    {
        const char *value = std::getenv(name);
        saved.emplace_back(name, value ? std::optional<std::string>(value)
                                       : std::nullopt);
        ::unsetenv(name);
    }

    std::vector<std::pair<std::string, std::optional<std::string>>> saved;
};

/** Does the resolved record of @p cc hold @p key with @p value? */
bool
recordHas(const ClusterConfig &cc, const std::string &key,
          const std::string &value)
{
    const std::string json = cc.resolved().toJson();
    const std::string field = "\"" + key + "\":" + value;
    return json.find(field + ",") != std::string::npos ||
           json.find(field + "}") != std::string::npos;
}

TEST(KnobTable, EachVariableSetsItsFieldAndAnExplicitFieldBeatsIt)
{
    struct Case
    {
        const char *env;
        const char *text;
        const char *key;
        const char *fromEnv;
        /** Arms what the row depends on (may be null). */
        void (*arm)(ClusterConfig &);
        void (*pin)(ClusterConfig &);
        const char *pinned;
    };
    const Case cases[] = {
        {"DSM_THREADS", "3", "threads_per_node", "3", nullptr,
         [](ClusterConfig &c) { c.threadsPerNode = 2; }, "2"},
        {"DSM_LOCK_FAIRNESS", "4", "lock_local_handoff_bound", "4", nullptr,
         [](ClusterConfig &c) { c.lockLocalHandoffBound = 0; }, "0"},
        {"DSM_HOME_LAST_WRITER", "1", "home_migrate_last_writer", "1",
         nullptr, [](ClusterConfig &c) { c.homeMigrateLastWriter = 0; },
         "0"},
        {"DSM_HOME_PINGPONG", "5", "home_pingpong_limit", "5", nullptr,
         [](ClusterConfig &c) { c.homePingPongLimit = 0; }, "0"},
        {"DSM_HOME_DEFER", "1", "home_flush_defer", "1", nullptr,
         [](ClusterConfig &c) { c.homeFlushDefer = 0; }, "0"},
        {"DSM_BLOCKING_DEQ", "1", "blocking_dequeue", "1", nullptr,
         [](ClusterConfig &c) { c.blockingDequeue = 0; }, "0"},
        {"DSM_FAULT_SEED", "77", "fault_seed", "77", nullptr,
         [](ClusterConfig &c) { c.faultSeed = 5; }, "5"},
        {"DSM_FAULT_MSG_DROP", "0.25", "fault_msg_drop", "0.25", nullptr,
         [](ClusterConfig &c) { c.faultMsgDrop = 0; }, "0"},
        {"DSM_FAULT_KILL_NODE", "2", "fault_kill_node", "2", nullptr,
         [](ClusterConfig &c) { c.faultKillNode = 1; }, "1"},
        {"DSM_FAULT_KILL_EPOCH", "5", "fault_kill_epoch", "5",
         [](ClusterConfig &c) { c.faultKillNode = 1; },
         [](ClusterConfig &c) { c.faultKillEpoch = 3; }, "3"},
        {"DSM_FAULT_OUTAGE_NODE", "2", "fault_outage_node", "2", nullptr,
         [](ClusterConfig &c) { c.faultOutageNode = 1; }, "1"},
        {"DSM_FAULT_OUTAGE_EPOCH", "4", "fault_outage_epoch", "4",
         [](ClusterConfig &c) { c.faultOutageNode = 1; },
         [](ClusterConfig &c) { c.faultOutageEpoch = 3; }, "3"},
        {"DSM_FAULT_OUTAGE_MS", "200", "fault_outage_ms", "200", nullptr,
         [](ClusterConfig &c) { c.faultOutageMs = 150; }, "150"},
        {"DSM_FD_DEADLINE_MS", "30", "fd_deadline_ms", "30", nullptr,
         [](ClusterConfig &c) { c.fdDeadlineMs = 0; }, "0"},
        {"DSM_CKPT_DIR", "/tmp/knob-a", "ckpt_dir", "\"/tmp/knob-a\"",
         nullptr, [](ClusterConfig &c) { c.ckptDir = "/tmp/knob-b"; },
         "\"/tmp/knob-b\""},
        {"DSM_TRANSPORT", "tcp", "transport", "\"tcp\"", nullptr,
         [](ClusterConfig &c) { c.transport = "socket"; }, "\"socket\""},
        {"DSM_SOCKET_DIR", "/tmp/knob-s", "socket_dir", "\"/tmp/knob-s\"",
         nullptr, [](ClusterConfig &c) { c.socketDir = "/tmp/knob-t"; },
         "\"/tmp/knob-t\""},
    };
    ASSERT_EQ(std::size(cases), std::size(kTableVariables));
    for (const Case &tc : cases) {
        KnobEnvironment env;
        ClusterConfig cc;
        cc.nprocs = 4;
        if (tc.arm)
            tc.arm(cc);
        env.set(tc.env, tc.text);
        EXPECT_TRUE(recordHas(cc, tc.key, tc.fromEnv))
            << tc.env << ": " << cc.resolved().toJson();
        tc.pin(cc);
        EXPECT_TRUE(recordHas(cc, tc.key, tc.pinned))
            << tc.env << ": " << cc.resolved().toJson();
    }
}

TEST(KnobTable, DerivedDefaults)
{
    KnobEnvironment env;
    ClusterConfig base;
    base.nprocs = 4;
    const ClusterConfig plain = base.resolved();
    EXPECT_EQ(plain.threadsPerNode, 1);
    EXPECT_EQ(plain.homePingPongLimit, 0);
    EXPECT_EQ(plain.faultKillEpoch, 0);
    EXPECT_EQ(plain.faultOutageEpoch, 0);
    EXPECT_EQ(plain.checkpointEvery, 0);
    EXPECT_EQ(plain.fdDeadlineMs, 0);
    EXPECT_EQ(plain.transport, "ring");

    ClusterConfig lastWriter = base;
    lastWriter.homeMigrateLastWriter = 1;
    EXPECT_EQ(lastWriter.resolved().homePingPongLimit, 8);

    ClusterConfig kill = base;
    kill.faultKillNode = 3;
    EXPECT_EQ(kill.resolved().faultKillEpoch, 2);
    EXPECT_EQ(kill.resolved().checkpointEvery, 1);
    EXPECT_EQ(kill.resolved().fdDeadlineMs, 0);

    ClusterConfig outage = base;
    outage.faultOutageNode = 2;
    EXPECT_EQ(outage.resolved().faultOutageEpoch, 2);
    EXPECT_EQ(outage.resolved().checkpointEvery, 1);
    EXPECT_EQ(outage.resolved().fdDeadlineMs, 50);

    ClusterConfig dir = base;
    dir.ckptDir = "/tmp/knob-ckpt";
    EXPECT_EQ(dir.resolved().checkpointEvery, 1);

    // A victim outside the cluster arms nothing.
    ClusterConfig outside = base;
    outside.faultKillNode = 9;
    const ClusterConfig none = outside.resolved();
    EXPECT_EQ(none.faultKillNode, -1);
    EXPECT_EQ(none.faultKillEpoch, 0);
    EXPECT_EQ(none.checkpointEvery, 0);

    // In-process-only features pull a socket tier back to the ring.
    ClusterConfig socket = kill;
    socket.transport = "socket";
    std::string fallback;
    EXPECT_EQ(socket.resolved(&fallback).transport, "ring");
    EXPECT_EQ(fallback,
              "transport 'socket' falls back to 'ring': checkpointing "
              "runs in-process only");
}

TEST(KnobTable, BadEnvironmentTextIsFatalAndNamesTheVariable)
{
    const std::pair<const char *, const char *> cases[] = {
        {"DSM_FAULT_KILL_NODE", "x"}, {"DSM_LOCK_FAIRNESS", "four"},
        {"DSM_HOME_DEFER", "2"},      {"DSM_THREADS", "0"},
        {"DSM_TRANSPORT", "udp"},
    };
    for (const auto &[name, text] : cases) {
        KnobEnvironment env;
        env.set(name, text);
        EXPECT_DEATH({ ClusterConfig().resolved(); }, name);
    }
}

TEST(KnobTable, DroppedVariablesLeaveTheDefaults)
{
    KnobEnvironment env;
    for (const char *name : kDroppedVariables)
        env.set(name, "3");
    const ClusterConfig cc = ClusterConfig().resolved();
    EXPECT_EQ(cc.lockFairnessAdaptive, 0);
    EXPECT_EQ(cc.checkpointEvery, 0);
    EXPECT_EQ(cc.ckptDelta, 0);
    EXPECT_EQ(cc.ckptAnchorEvery, 8);
    EXPECT_EQ(cc.faultRtoFirstUs, 2000);
    EXPECT_EQ(cc.faultRtoCapUs, 500000);
    EXPECT_EQ(cc.replyBypass, 1);
}

TEST(CostModel, TransitIsAffine)
{
    CostModel cm;
    cm.msgFixedNs = 100;
    cm.perByteNs = 3;
    EXPECT_EQ(cm.transitNs(0), 100u);
    EXPECT_EQ(cm.transitNs(10), 130u);
    EXPECT_FALSE(cm.toString().empty());
}

TEST(TableRender, AlignsColumns)
{
    Table t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"longer", "22"});
    const std::string s = t.toString();
    EXPECT_NE(s.find("longer"), std::string::npos);
    // Every line has the same length (fixed-width rendering).
    std::size_t first = s.find('\n');
    std::size_t expect = first;
    for (std::size_t pos = 0; pos < s.size();) {
        std::size_t next = s.find('\n', pos);
        ASSERT_NE(next, std::string::npos);
        EXPECT_LE(next - pos, expect + 2);
        pos = next + 1;
    }
}

TEST(TableRender, Formatters)
{
    EXPECT_EQ(fmtSeconds(1.234), "1.23");
    EXPECT_EQ(fmtRatio(2.5), "2.50x");
    EXPECT_EQ(fmtMb(3.14159), "3.1MB");
}

TEST(AppParams, ScalesAreOrdered)
{
    AppParams test = AppParams::testScale();
    AppParams bench = AppParams::benchScale();
    AppParams paper = AppParams::paperScale();
    EXPECT_LT(test.qsElems, bench.qsElems);
    EXPECT_LT(bench.qsElems, paper.qsElems);
    EXPECT_LT(test.waterMolecules, paper.waterMolecules);
    EXPECT_EQ(paper.isKeys, 1 << 20); // Table 2: N = 2^20
    EXPECT_EQ(paper.isBmax, 1 << 9);  // Table 2: Bmax = 2^9
    EXPECT_EQ(paper.waterMolecules, 343);
    EXPECT_EQ(paper.barnesBodies, 8192);
}

TEST(AppRegistry, AllSevenApplications)
{
    EXPECT_EQ(allAppNames().size(), 7u);
    for (const std::string &name : allAppNames()) {
        auto app = makeApp(name);
        ASSERT_NE(app, nullptr);
        EXPECT_EQ(app->name(), name);
    }
}

TEST(ExperimentRunner, ValidatesAndReports)
{
    AppParams params = AppParams::testScale();
    ClusterConfig base;
    base.nprocs = 2;
    base.arenaBytes = 4u << 20;
    base.pageSize = 1024;
    ExperimentResult r = runExperiment(
        "IS", RuntimeConfig::parse("LRC-diff"), params, base);
    EXPECT_TRUE(r.verdict.ok);
    EXPECT_GT(r.execSeconds(), 0.0);
    EXPECT_GT(r.seqSeconds(base.cost), 0.0);
    EXPECT_EQ(r.app, "IS");
}

} // namespace
} // namespace dsm

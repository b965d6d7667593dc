/**
 * @file
 * Tests for the driver layer: configuration parsing, table rendering,
 * experiment plumbing, and the cost model's arithmetic.
 */

#include <gtest/gtest.h>

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

/** Send coalescing is retired: the field stays only for the benchmark
 *  in perfbench/, and any value but 0 is refused. */
TEST(Config, RetiredCoalescingIsRejected)
{
    ClusterConfig cc;
    cc.nprocs = 2;
    cc.coalesceSends = 1;
    EXPECT_DEATH({ Cluster cluster(cc); }, "coalescing is retired");
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

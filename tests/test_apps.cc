/**
 * @file
 * Integration tests: every application of the paper, under every
 * runtime configuration and under home-based LRC-diff, must reproduce
 * the sequential reference (bit-exactly for the integer applications,
 * within tight tolerances for the floating-point ones).
 */

#include <gtest/gtest.h>

#include <cctype>

#include "driver/experiment.hh"

namespace dsm {
namespace {

/** Shared cluster base. */
ClusterConfig
baseConfig()
{
    ClusterConfig base;
    base.nprocs = 4;
    base.arenaBytes = 8u << 20;
    base.pageSize = 1024;
    return base;
}

/** Run @p app under @p config, a runtime configuration name or
 *  "LRC-home": LRC-diff with home-based LRC. */
ExperimentResult
runApp(const std::string &app, const std::string &config,
       const AppParams &params, ClusterConfig base)
{
    base.homeBasedLrc = config == "LRC-home";
    return runExperiment(
        app, RuntimeConfig::parse(base.homeBasedLrc ? "LRC-diff" : config),
        params, base, /*require_valid=*/false);
}

class AppConfigTest : public ::testing::TestWithParam<
                          std::tuple<std::string, std::string>>
{};

TEST_P(AppConfigTest, MatchesSequential)
{
    const auto &[app, config_name] = GetParam();
    AppParams params = AppParams::testScale();
    ClusterConfig base = baseConfig();

    ExperimentResult r = runApp(app, config_name, params, base);
    EXPECT_TRUE(r.verdict.ok) << r.verdict.detail;
    EXPECT_GT(r.run.execTimeNs, 0u);
    EXPECT_GT(r.seq.workUnits, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllAppsAllConfigs, AppConfigTest,
    ::testing::Combine(::testing::Values("QS", "Water", "Barnes-Hut",
                                         "IS", "3D-FFT"),
                       ::testing::Values("EC-ci", "EC-time", "EC-diff",
                                         "LRC-ci", "LRC-time",
                                         "LRC-diff", "LRC-home")),
    [](const auto &info) {
        std::string name = std::get<0>(info.param) + "_" +
                           std::get<1>(info.param);
        for (char &c : name) {
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        }
        return name;
    });

/** The restructured Water variant (Section 7.2) must also validate. */
TEST(WaterRestructured, MatchesSequential)
{
    AppParams params = AppParams::testScale();
    params.waterRestructured = true;
    ClusterConfig base = baseConfig();
    for (const char *config : {"EC-time", "LRC-diff", "LRC-home"}) {
        ExperimentResult r = runApp("Water", config, params, base);
        EXPECT_TRUE(r.verdict.ok) << config << ": " << r.verdict.detail;
    }
}

/** Different processor counts exercise banding edge cases. */
class NprocsTest : public ::testing::TestWithParam<int>
{};

TEST_P(NprocsTest, SorAcrossClusterSizes)
{
    AppParams params = AppParams::testScale();
    ClusterConfig base = baseConfig();
    base.nprocs = GetParam();
    base.arenaBytes = 4u << 20;
    for (const char *config : {"EC-diff", "LRC-diff", "LRC-home"}) {
        ExperimentResult r = runApp("SOR", config, params, base);
        EXPECT_TRUE(r.verdict.ok)
            << config << " np=" << GetParam() << ": "
            << r.verdict.detail;
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, NprocsTest,
                         ::testing::Values(1, 2, 3, 8));

/** The sweep helper must pick the fastest implementation. */
TEST(ModelSweep, PicksFastest)
{
    AppParams params = AppParams::testScale();
    ClusterConfig base = baseConfig();
    ModelSweep sweep = sweepModel(Model::EC, "IS", params, base);
    ASSERT_EQ(sweep.results.size(), 3u);
    for (const auto &r : sweep.results) {
        EXPECT_TRUE(r.verdict.ok);
        EXPECT_GE(r.run.execTimeNs, sweep.best().run.execTimeNs);
    }
}

} // namespace
} // namespace dsm

/**
 * @file
 * The shape claims EXPERIMENTS.md makes for Table 2, Table 3, Table 4,
 * Figure 2 and Figure 3, asserted on the same views bench/suite_tables
 * prints, over one suite measured at a reduced design (6 invocations x
 * 12 iterations; at 10, go_playout's adaptive steady window is too
 * short for a variance split). The views must also render the same
 * bytes from the runs' JSON round trip: one archived suite entry is
 * enough to regenerate every table.
 */

#include <algorithm>
#include <map>
#include <thread>

#include <gtest/gtest.h>

#include "bench/bench_common.hh"

namespace rigor {
namespace bench {
namespace {

constexpr int kInvocations = 6;

const std::vector<WorkloadRuns> &
reducedSuite()
{
    static const std::vector<WorkloadRuns> suite = [] {
        harness::RunnerConfig design = defaultConfig(vm::Tier::Interp);
        design.invocations = kInvocations;
        design.iterations = 12;
        design.jobs = std::max(
            1, static_cast<int>(std::thread::hardware_concurrency()));
        return measureSuite(design);
    }();
    return suite;
}

TEST(SuiteClaims, MeasuresEveryWorkloadOnEveryTier)
{
    const auto &suite = reducedSuite();
    ASSERT_EQ(suite.size(), workloads::suite().size());
    for (const auto &w : suite) {
        ASSERT_EQ(w.runs.size(), harness::kSuiteTierCount);
        for (const auto &[tier, run] : w.runs)
            EXPECT_EQ(run.invocations.size(),
                      static_cast<size_t>(kInvocations))
                << run.workload << "/" << vm::tierName(tier);
    }
}

TEST(SuiteClaims, Table2InterpIsFlatAndAdaptiveWarmsUp)
{
    for (const auto &w : reducedSuite()) {
        SCOPED_TRACE(w.name());
        const auto &interp = w.estimates.at(vm::Tier::Interp).steadyState;
        EXPECT_EQ(interp.flat, kInvocations);
        EXPECT_EQ(interp.meanSteadyStart, 0.0);
        const auto &jit = w.estimates.at(vm::Tier::Adaptive).steadyState;
        EXPECT_EQ(jit.warmup, kInvocations);
        EXPECT_GE(jit.meanSteadyStart, 1.0);
        EXPECT_GT(warmupOverhead(w.runs.at(vm::Tier::Adaptive), jit), 1.0);
    }
}

TEST(SuiteClaims, Table3FirstIterationFlipsMostConclusions)
{
    int flips = naiveError(reducedSuite(),
                           harness::Methodology::NaiveFirstIteration)
                    .flips;
    EXPECT_GT(2 * flips, static_cast<int>(reducedSuite().size()))
        << flips << " flips";
}

TEST(SuiteClaims, Table4ThreadedWinsAndAdaptiveWinsMore)
{
    auto threaded = geomean(reducedSuite(), vm::Tier::Threaded);
    EXPECT_GT(threaded.lower, 1.0);
    EXPECT_GT(geomean(reducedSuite(), vm::Tier::Adaptive).estimate,
              threaded.estimate);
}

TEST(SuiteClaims, Fig2InvocationsDominateTheVariance)
{
    for (const auto &w : reducedSuite())
        for (vm::Tier tier : {vm::Tier::Interp, vm::Tier::Adaptive})
            EXPECT_GT(harness::varianceDecomposition(w.runs.at(tier))
                          .intraclassCorrelation(),
                      0.5)
                << w.name() << "/" << vm::tierName(tier);
}

TEST(SuiteClaims, Fig3EveryAdaptiveSpeedupIsSignificant)
{
    for (const auto &w : reducedSuite()) {
        const auto &s = w.speedups.at(vm::Tier::Adaptive);
        EXPECT_TRUE(s.significant) << w.name();
        EXPECT_GT(s.ci.lower, 1.0) << w.name();
    }
}

TEST(SuiteClaims, ViewsNeedOnlyTheArchivedTimes)
{
    const auto &suite = reducedSuite();
    std::vector<WorkloadRuns> reloaded;
    for (const auto &w : suite) {
        std::map<vm::Tier, harness::RunResult> runs;
        for (const auto &[tier, run] : w.runs)
            runs[tier] = harness::runFromJson(harness::runToJson(run));
        reloaded.push_back(analyzeRuns(std::move(runs)));
    }
    EXPECT_EQ(renderSuiteTables(reloaded), renderSuiteTables(suite));
}

} // namespace
} // namespace bench
} // namespace rigor

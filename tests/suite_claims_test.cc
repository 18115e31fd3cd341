/**
 * @file
 * The shape claims EXPERIMENTS.md makes, asserted on the same measure
 * and render functions bench/paper uses. Table 2, Table 3, Table 4 and
 * Figures 2, 3 and 5 are checked over one suite measured at a reduced
 * design (6 invocations x 12 iterations; at 10, go_playout's adaptive
 * steady window is too short for a variance split); Figure 5's 2 x 12
 * cut fits inside it, so its numbers are the published ones. Figure 6
 * and Ablation C are measured at their published designs. The suite
 * views must also render the same bytes from the runs' JSON round
 * trip: one archived suite entry is enough to regenerate every table.
 */

#include <algorithm>
#include <cstring>
#include <map>
#include <thread>
#include <type_traits>

#include <gtest/gtest.h>

#include "bench/bench_common.hh"
#include "support/logging.hh"

namespace rigor {
namespace bench {
namespace {

constexpr int kInvocations = 6;

harness::RunnerConfig
reducedDesign()
{
    harness::RunnerConfig design = defaultConfig(vm::Tier::Interp);
    design.invocations = kInvocations;
    design.iterations = 12;
    design.jobs =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    return design;
}

const std::vector<WorkloadRuns> &
reducedSuite()
{
    static const std::vector<WorkloadRuns> suite =
        measureSuite(reducedDesign());
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

TEST(SuiteClaims, Fig5AdaptiveRetiresFewerInstructionsPerIteration)
{
    auto per_iteration = [](const harness::RunResult &run) {
        auto [total, iterations] = steadyCounters(prefix(run, 2, 12));
        return static_cast<double>(total.instructions) /
            static_cast<double>(iterations);
    };
    for (const auto &w : reducedSuite())
        EXPECT_LT(per_iteration(w.runs.at(vm::Tier::Adaptive)),
                  per_iteration(w.runs.at(vm::Tier::Interp)))
            << w.name();
}

TEST(SuiteClaims, Fig6OnePercentNeedsFourTimesTheInvocationsOfFive)
{
    auto fig6 = measureFig6(reducedDesign());
    ASSERT_EQ(fig6.size(), figureWorkloads().size());
    for (const auto &run : fig6) {
        auto means = harness::rigorousEstimate(run).invocationMeans;
        EXPECT_GE(stats::requiredSampleSize(means, 0.01),
                  4 * stats::requiredSampleSize(means, 0.05))
            << run.workload;
    }
}

TEST(SuiteClaims, AblationCCompilesOnlyBelowTheWorkOfAnInvocation)
{
    const auto &thresholds = ablationCThresholds();
    ASSERT_EQ(thresholds.front(), 200);
    ASSERT_EQ(thresholds.back(), 20000000);
    auto runs = measureAblationC(reducedDesign());
    const size_t group = thresholds.size() + 1;
    ASSERT_EQ(runs.size(), group * figureWorkloads().size());
    for (size_t w = 0; w < runs.size(); w += group) {
        const auto &interp = runs[w];
        const auto &low = runs[w + 1];
        const auto &high = runs[w + group - 1];
        SCOPED_TRACE(interp.workload);
        for (const auto &inv : low.invocations)
            EXPECT_GT(inv.vmStats.jitCompiles, 0u);
        EXPECT_GT(harness::rigorousSpeedup(interp, low).ci.lower, 1.0);
        for (const auto &inv : high.invocations)
            EXPECT_EQ(inv.vmStats.jitCompiles, 0u);
        EXPECT_TRUE(harness::rigorousSpeedup(interp, high).ci.contains(1.0));
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

template <typename T>
bool
sameBytes(const T &a, const T &b)
{
    static_assert(std::has_unique_object_representations_v<T>);
    return std::memcmp(&a, &b, sizeof(T)) == 0;
}

TEST(BenchPrefix, EqualsARunOfThatSize)
{
    for (const auto &st : harness::kSuiteTiers) {
        SCOPED_TRACE(vm::tierName(st.tier));
        harness::RunnerConfig cfg = defaultConfig(st.tier);
        cfg.invocations = 3;
        cfg.iterations = 6;
        cfg.jobs = 3;
        harness::RunResult whole = harness::runExperiment("richards", cfg);
        cfg.invocations = 2;
        cfg.jobs = 1;
        harness::RunResult two_by_six =
            harness::runExperiment("richards", cfg);
        cfg.iterations = 4;
        harness::RunResult two_by_four =
            harness::runExperiment("richards", cfg);

        // Samples, seeds and checksums.
        harness::RunResult cut = prefix(whole, 2, 4);
        EXPECT_EQ(harness::runToJson(cut).dump(),
                  harness::runToJson(two_by_four).dump());
        ASSERT_EQ(cut.invocations.size(), 2u);
        for (size_t i = 0; i < 2; ++i) {
            const auto &got = cut.invocations[i];
            const auto &want = two_by_four.invocations[i];
            ASSERT_EQ(got.samples.size(), 4u);
            for (size_t j = 0; j < 4; ++j)
                EXPECT_TRUE(sameBytes(got.samples[j].counters,
                                      want.samples[j].counters))
                    << i << "/" << j;
            // The VM stats cover the whole invocation, so a cut that
            // drops iterations drops them ...
            EXPECT_TRUE(sameBytes(got.vmStats, vm::InterpStats{}));
        }
        // ... and one that keeps every iteration keeps them.
        harness::RunResult kept = prefix(whole, 2, 6);
        EXPECT_EQ(harness::runToJson(kept).dump(),
                  harness::runToJson(two_by_six).dump());
        for (size_t i = 0; i < 2; ++i)
            EXPECT_TRUE(sameBytes(kept.invocations[i].vmStats,
                                  two_by_six.invocations[i].vmStats));
    }
}

TEST(BenchPrefix, RefusesShortAndFailedRuns)
{
    harness::RunnerConfig cfg = defaultConfig(vm::Tier::Interp);
    cfg.invocations = 2;
    cfg.iterations = 3;
    harness::RunResult run = harness::runExperiment("sieve", cfg);
    EXPECT_THROW(prefix(run, 3, 3), PanicError);
    EXPECT_THROW(prefix(run, 2, 4), PanicError);
    EXPECT_EQ(prefix(run, 2, 3).invocations.size(), 2u);
    run.failures.emplace_back();
    EXPECT_THROW(prefix(run, 1, 1), PanicError);
}

} // namespace
} // namespace bench
} // namespace rigor

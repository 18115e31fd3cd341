/**
 * @file
 * Sequential-stopping design tests: convergence, budget caps,
 * extension determinism (extending a run equals asking for more
 * invocations upfront), and parameter validation.
 */

#include <gtest/gtest.h>

#include "harness/fault.hh"
#include "harness/report.hh"
#include "harness/sequential.hh"
#include "support/logging.hh"

namespace rigor {
namespace harness {
namespace {

RunnerConfig
baseConfig()
{
    RunnerConfig cfg;
    cfg.iterations = 10;
    cfg.tier = vm::Tier::Interp;
    cfg.seed = 0x123;
    cfg.size = workloads::findWorkload("sieve").testSize;
    return cfg;
}

TEST(Sequential, ConvergesOnLowNoiseWorkload)
{
    SequentialConfig seq;
    seq.targetRelativeHalfWidth = 0.05;
    seq.maxInvocations = 40;
    auto res = runSequential("sieve", baseConfig(), seq);
    EXPECT_TRUE(res.converged);
    EXPECT_LE(res.invocationsUsed, 40);
    EXPECT_GE(res.invocationsUsed, seq.minInvocations);
    EXPECT_LE(res.estimate.ci.relativeHalfWidth(), 0.05);
    EXPECT_EQ(res.run.invocations.size(),
              static_cast<size_t>(res.invocationsUsed));
}

TEST(Sequential, BudgetCapRespected)
{
    SequentialConfig seq;
    seq.targetRelativeHalfWidth = 1e-6;  // unreachable
    seq.minInvocations = 3;
    seq.maxInvocations = 7;
    auto res = runSequential("sieve", baseConfig(), seq);
    EXPECT_FALSE(res.converged);
    EXPECT_EQ(res.invocationsUsed, 7);
}

TEST(Sequential, WidthTrajectoryShrinks)
{
    SequentialConfig seq;
    seq.targetRelativeHalfWidth = 0.01;
    seq.maxInvocations = 30;
    auto res = runSequential("sieve", baseConfig(), seq);
    ASSERT_GE(res.widthTrajectory.size(), 2u);
    EXPECT_LT(res.widthTrajectory.back(),
              res.widthTrajectory.front());
}

TEST(Sequential, InvalidConfigsRejected)
{
    SequentialConfig seq;
    seq.minInvocations = 1;
    EXPECT_THROW(runSequential("sieve", baseConfig(), seq),
                 FatalError);
    seq.minInvocations = 5;
    seq.maxInvocations = 3;
    EXPECT_THROW(runSequential("sieve", baseConfig(), seq),
                 FatalError);
    seq = {};
    seq.batchSize = 0;
    EXPECT_THROW(runSequential("sieve", baseConfig(), seq),
                 FatalError);
}

TEST(ExtendExperiment, MatchesUpfrontRun)
{
    const auto &spec = workloads::findWorkload("queens");
    RunnerConfig cfg = baseConfig();
    cfg.size = spec.testSize;
    cfg.invocations = 6;
    RunResult upfront = runExperiment(spec, cfg);

    cfg.invocations = 2;
    RunResult grown = runExperiment(spec, cfg);
    extendExperiment(spec, cfg, grown, 4);

    ASSERT_EQ(upfront.invocations.size(), grown.invocations.size());
    for (size_t i = 0; i < upfront.invocations.size(); ++i) {
        EXPECT_EQ(upfront.invocations[i].invocationSeed,
                  grown.invocations[i].invocationSeed);
        auto a = upfront.invocations[i].times();
        auto b = grown.invocations[i].times();
        ASSERT_EQ(a.size(), b.size());
        for (size_t j = 0; j < a.size(); ++j)
            EXPECT_DOUBLE_EQ(a[j], b[j]) << i << "," << j;
    }
}

TEST(Sequential, SurvivesInjectedFault)
{
    FaultPlan plan;
    plan.add("throw:inv=2:n=1");
    RunnerConfig base = baseConfig();
    FaultInjector inj(std::move(plan), base.seed);
    base.faults = &inj;
    base.maxRetries = 1;

    SequentialConfig seq;
    seq.targetRelativeHalfWidth = 0.05;
    seq.maxInvocations = 40;
    auto res = runSequential("sieve", base, seq);

    // The mid-run fault is retried and the stopping rule still
    // converges on the remaining evidence.
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.run.failures.size(), 1u);
    EXPECT_EQ(res.run.failures[0].invocation, 2);
    EXPECT_GE(res.invocationsUsed, seq.minInvocations);
}

TEST(Sequential, QuarantinedWorkloadReturnsPartial)
{
    FaultPlan plan;
    plan.add("throw:n=99");  // every attempt of every invocation
    RunnerConfig base = baseConfig();
    FaultInjector inj(std::move(plan), base.seed);
    base.faults = &inj;
    base.maxRetries = 0;
    base.quarantineAfter = 2;

    auto res = runSequential("sieve", base, {});
    EXPECT_FALSE(res.converged);
    EXPECT_TRUE(res.run.quarantined);
    EXPECT_EQ(res.invocationsUsed, 0);
    EXPECT_EQ(res.run.failures.size(), 2u);
}

TEST(SuiteState, ResumeRoundTrip)
{
    SuiteState state;
    state.seed = 0xc0ffee;
    state.invocations = 8;
    state.iterations = 20;

    SuiteWorkloadState ok;
    ok.name = "sieve";
    ok.tierMs = {1.5, 0.5, 0.6};
    ok.speedups[0].ci = {3.0, 2.8, 3.2, 0.95};
    ok.speedups[0].significant = true;
    ok.speedups[1].ci = {2.5, 2.3, 2.7, 0.95};
    ok.speedups[1].significant = true;
    ok.failureCount = 1;
    state.workloads.push_back(ok);

    SuiteWorkloadState bad;
    bad.name = "queens";
    bad.failed = true;
    bad.quarantined = true;
    bad.failureCount = 6;
    state.workloads.push_back(bad);

    Json doc = Json::parse(suiteStateToJson(state).dump(2));
    SuiteState restored = suiteStateFromJson(doc);
    // State files on disk use these keys; the tier list must keep them.
    for (const char *key : {"interp_ms", "adaptive_ms", "threaded_ms",
                            "speedup", "threaded_speedup"})
        EXPECT_TRUE(doc.at("workloads").at(0).has(key)) << key;

    EXPECT_EQ(restored.seed, state.seed);
    EXPECT_EQ(restored.invocations, 8);
    EXPECT_EQ(restored.iterations, 20);
    ASSERT_EQ(restored.workloads.size(), 2u);

    const auto *r_ok = restored.find("sieve");
    ASSERT_NE(r_ok, nullptr);
    EXPECT_FALSE(r_ok->failed);
    EXPECT_DOUBLE_EQ(r_ok->tierMs[0], 1.5);
    EXPECT_DOUBLE_EQ(r_ok->tierMs[1], 0.5);
    EXPECT_DOUBLE_EQ(r_ok->tierMs[2], 0.6);
    EXPECT_DOUBLE_EQ(r_ok->speedups[0].ci.estimate, 3.0);
    EXPECT_DOUBLE_EQ(r_ok->speedups[0].ci.lower, 2.8);
    EXPECT_TRUE(r_ok->speedups[0].significant);
    EXPECT_DOUBLE_EQ(r_ok->speedups[1].ci.estimate, 2.5);
    EXPECT_DOUBLE_EQ(r_ok->speedups[1].ci.upper, 2.7);
    EXPECT_TRUE(r_ok->speedups[1].significant);
    EXPECT_EQ(r_ok->failureCount, 1);

    const auto *r_bad = restored.find("queens");
    ASSERT_NE(r_bad, nullptr);
    EXPECT_TRUE(r_bad->failed);
    EXPECT_TRUE(r_bad->quarantined);
    EXPECT_EQ(r_bad->failureCount, 6);
    EXPECT_EQ(restored.find("nbody"), nullptr);

    EXPECT_THROW(suiteStateFromJson(Json::object()),
                 rigor::PanicError);
}

} // namespace
} // namespace harness
} // namespace rigor

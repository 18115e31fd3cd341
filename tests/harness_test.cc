/**
 * @file
 * Harness tests: runner produces the two-level design, noise model
 * statistics match configuration, analyses behave on real runs, and
 * the methodology comparison exposes naive-scheme failure modes.
 */

#include <cmath>
#include <sstream>

#include <gtest/gtest.h>

#include "harness/analysis.hh"
#include "harness/fault.hh"
#include "harness/noise.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "stats/descriptive.hh"
#include "stats/hierarchy.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace rigor {
namespace harness {
namespace {

RunnerConfig
smallConfig(vm::Tier tier)
{
    RunnerConfig cfg;
    cfg.invocations = 5;
    cfg.iterations = 20;
    cfg.tier = tier;
    cfg.jitThreshold = 200;
    cfg.seed = 0xabc;
    return cfg;
}

const workloads::WorkloadSpec &
testSpec(const char *name)
{
    return workloads::findWorkload(name);
}

RunnerConfig
withTestSize(RunnerConfig cfg, const char *name)
{
    cfg.size = testSpec(name).testSize;
    return cfg;
}

TEST(Noise, DisabledIsIdentity)
{
    NoiseConfig cfg;
    cfg.enabled = false;
    NoiseModel m(cfg, 42);
    for (int i = 0; i < 10; ++i)
        EXPECT_DOUBLE_EQ(m.nextIterationFactor(), 1.0);
}

TEST(Noise, BiasIsPerInvocationConstant)
{
    NoiseConfig cfg;
    cfg.withinSigma = 0.0;
    cfg.spikeProbability = 0.0;
    NoiseModel m(cfg, 7);
    double first = m.nextIterationFactor();
    for (int i = 0; i < 20; ++i)
        EXPECT_DOUBLE_EQ(m.nextIterationFactor(), first);
    EXPECT_DOUBLE_EQ(first, m.invocationBias());
}

TEST(Noise, SameSeedSameStream)
{
    NoiseConfig cfg;
    NoiseModel a(cfg, 99), b(cfg, 99);
    for (int i = 0; i < 50; ++i)
        EXPECT_DOUBLE_EQ(a.nextIterationFactor(),
                         b.nextIterationFactor());
}

TEST(Noise, BetweenSigmaControlsBiasSpread)
{
    NoiseConfig cfg;
    cfg.withinSigma = 0.0;
    cfg.spikeProbability = 0.0;
    cfg.betweenSigma = 0.05;
    std::vector<double> biases;
    for (uint64_t s = 0; s < 400; ++s)
        biases.push_back(NoiseModel(cfg, s).invocationBias());
    // Log of a lognormal(0, sigma) has stddev sigma.
    std::vector<double> logs;
    for (double b : biases)
        logs.push_back(std::log(b));
    EXPECT_NEAR(stats::stddev(logs), 0.05, 0.012);
    EXPECT_NEAR(stats::mean(logs), 0.0, 0.012);
}

TEST(Noise, SpikesAreRareAndPositive)
{
    NoiseConfig cfg;
    cfg.betweenSigma = 0.0;
    cfg.withinSigma = 0.0;
    cfg.spikeProbability = 0.05;
    cfg.spikeScale = 0.5;
    NoiseModel m(cfg, 3);
    int spikes = 0;
    for (int i = 0; i < 4000; ++i) {
        double f = m.nextIterationFactor();
        EXPECT_GE(f, 1.0);
        if (f > 1.0)
            ++spikes;
    }
    EXPECT_NEAR(spikes, 200, 70);
}

TEST(Runner, ProducesRequestedDesign)
{
    auto cfg = withTestSize(smallConfig(vm::Tier::Interp), "sieve");
    RunResult run = runExperiment("sieve", cfg);
    EXPECT_EQ(run.workload, "sieve");
    ASSERT_EQ(run.invocations.size(), 5u);
    for (const auto &inv : run.invocations) {
        EXPECT_EQ(inv.samples.size(), 20u);
        for (const auto &s : inv.samples) {
            EXPECT_GT(s.timeMs, 0.0);
            EXPECT_GT(s.simCycles, 0u);
            EXPECT_GT(s.counters.instructions, 0u);
        }
    }
}

TEST(Runner, ChecksumsAgreeAcrossInvocations)
{
    auto cfg = withTestSize(smallConfig(vm::Tier::Interp), "queens");
    RunResult run = runExperiment("queens", cfg);
    for (const auto &inv : run.invocations)
        EXPECT_EQ(inv.checksum, run.invocations[0].checksum);
}

TEST(Runner, DeterministicGivenSeed)
{
    auto cfg = withTestSize(smallConfig(vm::Tier::Interp), "sieve");
    RunResult a = runExperiment("sieve", cfg);
    RunResult b = runExperiment("sieve", cfg);
    ASSERT_EQ(a.invocations.size(), b.invocations.size());
    for (size_t i = 0; i < a.invocations.size(); ++i) {
        auto ta = a.invocations[i].times();
        auto tb = b.invocations[i].times();
        ASSERT_EQ(ta.size(), tb.size());
        for (size_t j = 0; j < ta.size(); ++j)
            EXPECT_DOUBLE_EQ(ta[j], tb[j]);
    }
}

TEST(Runner, DifferentSeedsGiveDifferentNoise)
{
    auto cfg = withTestSize(smallConfig(vm::Tier::Interp), "sieve");
    RunResult a = runExperiment("sieve", cfg);
    cfg.seed = 0xdef;
    RunResult b = runExperiment("sieve", cfg);
    EXPECT_NE(a.invocations[0].times()[0],
              b.invocations[0].times()[0]);
}

TEST(Runner, AdaptiveTierIsFasterAtSteadyState)
{
    auto interp_cfg =
        withTestSize(smallConfig(vm::Tier::Interp), "sieve");
    auto jit_cfg =
        withTestSize(smallConfig(vm::Tier::Adaptive), "sieve");
    jit_cfg.jitThreshold = 50;
    RunResult interp = runExperiment("sieve", interp_cfg);
    RunResult jit = runExperiment("sieve", jit_cfg);
    auto speedup = rigorousSpeedup(interp, jit);
    EXPECT_GT(speedup.ci.estimate, 1.3);
    EXPECT_TRUE(speedup.significant);
}

TEST(Runner, JitWarmupVisibleInSeries)
{
    auto cfg = withTestSize(smallConfig(vm::Tier::Adaptive), "sieve");
    cfg.iterations = 30;
    cfg.noise.enabled = false;
    // Threshold chosen so compilation lands a few iterations in.
    cfg.jitThreshold = 400;
    RunResult run = runExperiment("sieve", cfg);
    for (const auto &inv : run.invocations) {
        auto times = inv.times();
        double early = times[0];
        double late = times[times.size() - 1];
        EXPECT_GT(early, late * 1.2)
            << "warmup should make early iterations slower";
    }
}

TEST(Analysis, SteadyStateSummaryOnRealRun)
{
    auto cfg = withTestSize(smallConfig(vm::Tier::Adaptive), "sieve");
    cfg.jitThreshold = 400;
    cfg.noise.enabled = false;
    RunResult run = runExperiment("sieve", cfg);
    auto summary = analyzeSteadyState(run);
    EXPECT_EQ(summary.perInvocation.size(), 5u);
    EXPECT_GE(summary.warmup, 3);
    EXPECT_EQ(summary.noSteadyState, 0);
    EXPECT_GT(summary.meanSteadyStart, 0.0);
}

TEST(Analysis, RigorousEstimateExcludesWarmup)
{
    auto cfg = withTestSize(smallConfig(vm::Tier::Adaptive), "sieve");
    cfg.jitThreshold = 400;
    cfg.noise.enabled = false;
    RunResult run = runExperiment("sieve", cfg);
    auto est = rigorousEstimate(run);
    // The rigorous estimate should be close to the final-iteration
    // time, not inflated by warmup iterations.
    double last = run.invocations[0].times().back();
    EXPECT_LT(est.ci.estimate, last * 1.15);
    // The naive first-iteration estimate is much larger.
    double naive =
        pointEstimate(run, Methodology::NaiveFirstIteration);
    EXPECT_GT(naive, est.ci.estimate * 1.2);
}

TEST(Analysis, MethodologiesDisagreeOnWarmupRuns)
{
    auto cfg = withTestSize(smallConfig(vm::Tier::Adaptive), "sieve");
    cfg.jitThreshold = 400;
    RunResult run = runExperiment("sieve", cfg);
    double rigorous =
        pointEstimate(run, Methodology::RigorousMeanOfMeans);
    double best = pointEstimate(run, Methodology::NaiveBestOfAll);
    double first =
        pointEstimate(run, Methodology::NaiveFirstIteration);
    EXPECT_LT(best, rigorous);   // best-of cherry-picks
    EXPECT_GT(first, rigorous);  // first iteration pays warmup
}

TEST(Analysis, PooledIntervalNarrowerThanRigorous)
{
    auto cfg = withTestSize(smallConfig(vm::Tier::Interp), "sieve");
    cfg.noise.betweenSigma = 0.05;  // strong invocation effects
    cfg.invocations = 8;
    RunResult run = runExperiment("sieve", cfg);
    auto rigorous = rigorousEstimate(run).ci;
    auto pooled = stats::naivePooledInterval(run.series());
    EXPECT_GT(rigorous.halfWidth(), pooled.halfWidth());
}

/**
 * Four invocations at `level` ms: one warms up, one is flat, one
 * never settles (fast, then a slower level that is not the first),
 * one warms up longer. 1% seeded noise on every iteration.
 */
RunResult
mixedSteadyStateRun(double level, uint64_t seed)
{
    const std::vector<std::vector<std::pair<int, double>>> shapes = {
        {{4, 3.0}, {16, 1.0}},
        {{20, 1.0}},
        {{6, 3.0}, {7, 1.0}, {7, 2.0}},
        {{7, 2.0}, {13, 1.0}},
    };
    Rng rng(seed);
    RunResult run;
    run.workload = "mixed";
    for (const auto &shape : shapes) {
        InvocationResult inv;
        for (const auto &[count, factor] : shape) {
            for (int it = 0; it < count; ++it) {
                IterationSample s;
                s.timeMs = level * factor *
                    (1.0 + 0.01 * rng.nextGaussian());
                inv.samples.push_back(s);
            }
        }
        run.invocations.push_back(std::move(inv));
    }
    run.invocationsAttempted = static_cast<int>(shapes.size());
    return run;
}

TEST(Analysis, EveryEstimateCutsWarmupAtOnePlace)
{
    RunResult run = mixedSteadyStateRun(2.0, 0x51);
    auto est = rigorousEstimate(run);
    const auto &summary = est.steadyState;
    ASSERT_EQ(summary.warmup, 2);
    ASSERT_EQ(summary.noSteadyState, 1);

    auto series = steadyStateSeries(run, summary);
    ASSERT_EQ(series.size(), run.invocations.size());
    for (size_t i = 0; i < run.invocations.size(); ++i) {
        const auto &ss = summary.perInvocation[i];
        size_t start = steadyStateStart(run, summary, i);
        if (ss.hasSteadyState())
            EXPECT_EQ(start, ss.steadyStart);
        else
            EXPECT_EQ(start, 0u);  // the whole series, not an empty one
        std::vector<double> times = run.invocations[i].times();
        std::vector<double> steady(
            times.begin() + static_cast<ptrdiff_t>(start), times.end());
        EXPECT_EQ(series[i], steady);
        EXPECT_EQ(est.invocationMeans[i], stats::mean(steady));
    }
    EXPECT_GT(steadyStateStart(run, summary, 0), 0u);
    EXPECT_EQ(est.ci.estimate, stats::mean(est.invocationMeans));

    // The variance decomposition reads the same windows.
    auto vc = varianceDecomposition(run);
    auto want = stats::decomposeVariance(series);
    EXPECT_EQ(vc.betweenInvocation, want.betweenInvocation);
    EXPECT_EQ(vc.withinInvocation, want.withinInvocation);
    EXPECT_EQ(vc.grandMean, want.grandMean);
}

TEST(Analysis, CompareRuntimesAppliesTheSpeedupRule)
{
    RunResult slow = mixedSteadyStateRun(2.0, 0x52);
    RunResult twin = mixedSteadyStateRun(2.0, 0x53);
    RunResult fast = mixedSteadyStateRun(1.0, 0x54);
    std::vector<const RunResult *> runs = {&slow, &twin, &fast};
    std::vector<RigorousEstimate> est;
    for (const RunResult *r : runs)
        est.push_back(rigorousEstimate(*r));
    auto cmp = compareRuntimes(est);
    for (size_t i = 0; i < runs.size(); ++i) {
        for (size_t j = 0; j < runs.size(); ++j) {
            if (i == j)
                continue;
            auto want = speedupFromEstimates(est[i], est[j]);
            const auto &got = cmp.speedup[i][j];
            EXPECT_EQ(got.ci.estimate, want.ci.estimate);
            EXPECT_EQ(got.ci.lower, want.ci.lower);
            EXPECT_EQ(got.ci.upper, want.ci.upper);
            EXPECT_EQ(got.significant, want.significant);
            auto direct = rigorousSpeedup(*runs[i], *runs[j]);
            EXPECT_EQ(direct.ci.lower, want.ci.lower);
            EXPECT_EQ(direct.ci.upper, want.ci.upper);
        }
    }
    EXPECT_TRUE(cmp.speedup[0][2].significant);
    EXPECT_FALSE(cmp.speedup[0][1].significant);
}

// One invocation mean has no spread, so its zero-width interval
// must not read as a significant difference.
TEST(Analysis, OneInvocationSpeedupIsNeverSignificant)
{
    RunResult slow = mixedSteadyStateRun(3.0, 0x55);
    RunResult fast = mixedSteadyStateRun(1.0, 0x56);
    EXPECT_TRUE(rigorousSpeedup(slow, fast).significant);

    RunResult slow1 = slow, fast1 = fast;
    slow1.invocations.resize(1);
    fast1.invocations.resize(1);
    auto one = rigorousSpeedup(slow1, fast1);
    EXPECT_NEAR(one.ci.estimate, 3.0, 0.1);
    EXPECT_FALSE(one.significant);
    EXPECT_FALSE(rigorousSpeedup(slow, fast1).significant);
    EXPECT_FALSE(rigorousSpeedup(slow1, fast).significant);
    auto cmp =
        compareRuntimes({rigorousEstimate(slow1), rigorousEstimate(fast1)});
    EXPECT_EQ(cmp.rank[0], cmp.rank[1]);
}

TEST(Analysis, VarianceDecompositionSeesInjectedBias)
{
    auto cfg = withTestSize(smallConfig(vm::Tier::Interp), "sieve");
    cfg.invocations = 10;
    cfg.iterations = 15;
    cfg.noise.betweenSigma = 0.08;
    cfg.noise.withinSigma = 0.01;
    cfg.noise.spikeProbability = 0.0;
    RunResult run = runExperiment("sieve", cfg);
    auto vc = varianceDecomposition(run);
    // Between-invocation CoV should dominate and be near 8%.
    EXPECT_GT(vc.betweenCoV, 0.03);
    EXPECT_GT(vc.intraclassCorrelation(), 0.5);
}

TEST(Analysis, GeomeanSpeedupAggregates)
{
    SpeedupResult a, b;
    a.ci = {2.0, 1.8, 2.2, 0.95};
    b.ci = {8.0, 7.5, 8.5, 0.95};
    auto g = geomeanSpeedup({a, b});
    EXPECT_NEAR(g.estimate, 4.0, 1e-9);
}

TEST(Analysis, MethodologyNamesAreUnique)
{
    std::vector<std::string> names;
    for (auto m : allMethodologies())
        names.push_back(methodologyName(m));
    std::sort(names.begin(), names.end());
    EXPECT_EQ(std::unique(names.begin(), names.end()), names.end());
    EXPECT_EQ(names.size(), 6u);
}

TEST(Report, FormatCi)
{
    stats::ConfidenceInterval ci{1.234, 1.1, 1.4, 0.95};
    EXPECT_EQ(formatCi(ci, 2), "1.23 [1.10, 1.40]");
    EXPECT_NE(formatCiPercent(ci, 2).find("±"), std::string::npos);
}

TEST(Report, AsciiSeriesAndSparkline)
{
    std::vector<double> vals = {5, 4, 3, 2, 1, 1, 1, 1};
    std::string chart = asciiSeries(vals, 4, 40);
    EXPECT_NE(chart.find("#"), std::string::npos);
    EXPECT_NE(chart.find("min="), std::string::npos);
    EXPECT_FALSE(sparkline(vals).empty());
    EXPECT_EQ(asciiSeries({}, 4, 10), "(empty series)\n");
}

TEST(Report, CsvAndJsonExports)
{
    auto cfg = withTestSize(smallConfig(vm::Tier::Interp), "queens");
    cfg.invocations = 2;
    cfg.iterations = 3;
    RunResult run = runExperiment("queens", cfg);

    std::ostringstream os;
    writeSeriesCsv(os, run);
    std::string csv = os.str();
    // Schema comment + header + 2*3 rows.
    EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 8);
    EXPECT_EQ(csv.rfind("# schema=rigorbench-series version=1\n", 0),
              0u);
    EXPECT_NE(csv.find("queens,interp,0,0"), std::string::npos);

    Json j = runToJson(run);
    EXPECT_EQ(j.at("workload").asString(), "queens");
    EXPECT_EQ(j.at("schema").asString(), "rigorbench-run");
    EXPECT_EQ(j.at("version").asInt(), 1);
    EXPECT_EQ(j.at("invocations").size(), 2u);
    EXPECT_EQ(j.at("invocations").at(0).at("times_ms").size(), 3u);
    // Round-trips through the parser.
    Json parsed = Json::parse(j.dump(2));
    EXPECT_EQ(parsed.at("size").asInt(), run.size);
}

TEST(Report, RunFromJsonRejectsForeignSchema)
{
    auto cfg = withTestSize(smallConfig(vm::Tier::Interp), "queens");
    cfg.invocations = 1;
    cfg.iterations = 2;
    RunResult run = runExperiment("queens", cfg);

    // A matching schema round-trips.
    Json ok = runToJson(run);
    EXPECT_EQ(runFromJson(ok).workload, "queens");

    // A different schema string is rejected loudly.
    Json wrong = runToJson(run);
    wrong.set("schema", "someone-elses-format");
    EXPECT_THROW(runFromJson(wrong), FatalError);

    // A future version of our own schema is rejected too.
    Json future = runToJson(run);
    future.set("version", static_cast<int64_t>(999));
    EXPECT_THROW(runFromJson(future), FatalError);

    // Schema-less documents (pre-schema artifacts) still load.
    Json legacy = runToJson(run);
    legacy.erase("schema");
    legacy.erase("version");
    EXPECT_EQ(runFromJson(legacy).workload, "queens");
}

TEST(RunResultTest, AggregationHelpers)
{
    auto cfg = withTestSize(smallConfig(vm::Tier::Interp), "queens");
    cfg.invocations = 2;
    cfg.iterations = 2;
    RunResult run = runExperiment("queens", cfg);
    auto series = run.series();
    ASSERT_EQ(series.size(), 2u);
    EXPECT_EQ(series[0].size(), 2u);
    auto total = run.totalCounters();
    EXPECT_GT(total.instructions, 0u);
    auto mix = run.opMix();
    EXPECT_EQ(mix.size(),
              static_cast<size_t>(vm::Op::NumOpcodes));
    uint64_t sum = 0;
    for (uint64_t c : mix)
        sum += c;
    EXPECT_GT(sum, 0u);
}


TEST(Analysis, CompareRuntimesRanksAndTies)
{
    auto base = withTestSize(smallConfig(vm::Tier::Interp), "sieve");
    base.invocations = 6;
    RunResult slow = runExperiment("sieve", base);
    // A statistically identical twin (different seed, same design).
    auto twin_cfg = base;
    twin_cfg.seed = 0x999;
    RunResult twin = runExperiment("sieve", twin_cfg);
    // A clearly faster run (adaptive tier).
    auto fast_cfg = withTestSize(smallConfig(vm::Tier::Adaptive),
                                 "sieve");
    fast_cfg.invocations = 6;
    fast_cfg.jitThreshold = 50;
    RunResult fast = runExperiment("sieve", fast_cfg);

    auto cmp = compareRuntimes({rigorousEstimate(slow),
                                rigorousEstimate(twin),
                                rigorousEstimate(fast)});
    ASSERT_EQ(cmp.rank.size(), 3u);
    // The twins tie; the adaptive run ranks first.
    EXPECT_EQ(cmp.rank[0], cmp.rank[1]);
    EXPECT_EQ(cmp.rank[2], 1);
    EXPECT_GT(cmp.rank[0], 1);
    // Pairwise matrix: fast vs slow significant, twins not.
    EXPECT_TRUE(cmp.speedup[0][2].significant);
    EXPECT_FALSE(cmp.speedup[0][1].significant);
    // Diagonal is the identity comparison.
    EXPECT_DOUBLE_EQ(cmp.speedup[1][1].ci.estimate, 1.0);
    EXPECT_THROW(compareRuntimes({rigorousEstimate(slow)}),
                 rigor::PanicError);
}


TEST(Report, JsonRoundTripPreservesAnalysis)
{
    auto cfg = withTestSize(smallConfig(vm::Tier::Adaptive), "sieve");
    cfg.invocations = 4;
    cfg.iterations = 8;
    RunResult original = runExperiment("sieve", cfg);

    Json doc = Json::parse(runToJson(original).dump(2));
    RunResult restored = runFromJson(doc);

    EXPECT_EQ(restored.workload, original.workload);
    EXPECT_EQ(restored.tier, original.tier);
    EXPECT_EQ(restored.size, original.size);
    ASSERT_EQ(restored.invocations.size(),
              original.invocations.size());
    for (size_t i = 0; i < original.invocations.size(); ++i) {
        EXPECT_EQ(restored.invocations[i].checksum,
                  original.invocations[i].checksum);
        auto a = original.invocations[i].times();
        auto b = restored.invocations[i].times();
        ASSERT_EQ(a.size(), b.size());
        for (size_t j = 0; j < a.size(); ++j)
            EXPECT_DOUBLE_EQ(a[j], b[j]);
    }
    // The rigorous analysis gives identical results on both.
    auto est_a = rigorousEstimate(original);
    auto est_b = rigorousEstimate(restored);
    EXPECT_DOUBLE_EQ(est_a.ci.estimate, est_b.ci.estimate);
    EXPECT_DOUBLE_EQ(est_a.ci.lower, est_b.ci.lower);
}

TEST(Runner, RetrySucceedsAndEstimateMatchesClean)
{
    auto cfg = withTestSize(smallConfig(vm::Tier::Interp), "sieve");
    RunResult clean = runExperiment("sieve", cfg);
    auto clean_est = rigorousEstimate(clean);

    // A single checksum corruption on invocation 1's first attempt:
    // detected, the attempt is discarded and retried under a fresh
    // derived seed.
    FaultPlan plan;
    plan.add("checksum:inv=1:n=1");
    FaultInjector inj(std::move(plan), cfg.seed);
    auto faulted_cfg = cfg;
    faulted_cfg.faults = &inj;
    faulted_cfg.maxRetries = 2;
    RunResult faulted = runExperiment("sieve", faulted_cfg);

    // No PanicError; the divergence is recorded instead.
    ASSERT_EQ(faulted.failures.size(), 1u);
    EXPECT_EQ(faulted.failures[0].kind,
              FailureKind::ChecksumMismatch);
    ASSERT_EQ(faulted.invocations.size(), 5u);

    // The failed attempt is excluded from the estimate: only the 5
    // successful invocations contribute, and all but the retried one
    // are bit-identical to the clean run's.
    auto est = rigorousEstimate(faulted);
    EXPECT_EQ(est.invocationMeans.size(), 5u);
    for (size_t i : {0u, 2u, 3u, 4u})
        EXPECT_EQ(faulted.invocations[i].invocationSeed,
                  clean.invocations[i].invocationSeed);
    // Invocation 1 re-ran with different (known-model) noise, so the
    // estimates agree statistically rather than bit for bit.
    EXPECT_NEAR(est.ci.estimate, clean_est.ci.estimate,
                0.03 * clean_est.ci.estimate);
    EXPECT_LE(est.ci.lower, clean_est.ci.upper);
    EXPECT_LE(clean_est.ci.lower, est.ci.upper);
}

TEST(Report, JsonRoundTripWithFailures)
{
    auto cfg = withTestSize(smallConfig(vm::Tier::Interp), "sieve");
    cfg.invocations = 3;
    cfg.iterations = 5;
    FaultPlan plan;
    plan.add("throw:inv=1:n=1");
    FaultInjector inj(std::move(plan), cfg.seed);
    cfg.faults = &inj;
    RunResult run = runExperiment("sieve", cfg);
    ASSERT_EQ(run.failures.size(), 1u);

    Json doc = Json::parse(runToJson(run).dump(2));
    RunResult restored = runFromJson(doc);
    ASSERT_EQ(restored.failures.size(), 1u);
    EXPECT_EQ(restored.failures[0].kind, run.failures[0].kind);
    EXPECT_EQ(restored.failures[0].invocation,
              run.failures[0].invocation);
    EXPECT_EQ(restored.failures[0].seed, run.failures[0].seed);
    EXPECT_EQ(restored.failures[0].message, run.failures[0].message);
    EXPECT_EQ(restored.invocationsAttempted, 3);
    EXPECT_FALSE(restored.quarantined);
}

TEST(Report, CleanRunJsonHasNoFailureFields)
{
    auto cfg = withTestSize(smallConfig(vm::Tier::Interp), "queens");
    cfg.invocations = 2;
    cfg.iterations = 3;
    RunResult run = runExperiment("queens", cfg);
    Json doc = runToJson(run);
    // Dumps of clean runs stay byte-compatible with pre-fault-
    // tolerance archives: no failure keys are emitted.
    EXPECT_FALSE(doc.has("failures"));
    EXPECT_FALSE(doc.has("quarantined"));
    EXPECT_FALSE(doc.has("invocations_attempted"));
}

TEST(Report, QuarantinedRunRoundTrips)
{
    auto cfg = withTestSize(smallConfig(vm::Tier::Interp), "sieve");
    cfg.maxRetries = 0;
    cfg.quarantineAfter = 2;
    FaultPlan plan;
    plan.add("throw:n=99");
    FaultInjector inj(std::move(plan), cfg.seed);
    cfg.faults = &inj;
    RunResult run = runExperiment("sieve", cfg);
    ASSERT_TRUE(run.quarantined);
    ASSERT_TRUE(run.invocations.empty());

    Json doc = Json::parse(runToJson(run).dump(2));
    RunResult restored = runFromJson(doc);
    EXPECT_TRUE(restored.quarantined);
    EXPECT_EQ(restored.quarantineReason, run.quarantineReason);
    EXPECT_EQ(restored.failures.size(), run.failures.size());
    EXPECT_EQ(restored.invocationsAttempted,
              run.invocationsAttempted);
}

TEST(Report, JsonFromMalformedDocumentsFails)
{
    Json bad = Json::object();
    EXPECT_THROW(runFromJson(bad), rigor::PanicError);
    bad.set("workload", "x");
    bad.set("tier", "warp-drive");
    bad.set("size", 1);
    bad.set("invocations", Json::array());
    EXPECT_THROW(runFromJson(bad), rigor::FatalError);
    bad.set("tier", "interp");
    EXPECT_THROW(runFromJson(bad), rigor::FatalError);  // empty invs
}

} // namespace
} // namespace harness
} // namespace rigor

/**
 * @file
 * Comparison-engine tests: golden values for the hierarchical ratio
 * bootstrap, seed-determinism of reports, honest inconclusive
 * verdicts, and the regression gate's decision rule.
 */

#include <algorithm>
#include <tuple>

#include <gtest/gtest.h>

#include "compare/compare.hh"
#include "harness/analysis.hh"
#include "stats/ci.hh"
#include "stats/descriptive.hh"
#include "stats/hierarchy.hh"
#include "support/fingerprint.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace rigor {
namespace compare {
namespace {

using TwoLevel = std::vector<std::vector<double>>;

/** Fabricated run: deterministic times, no VM involved. */
harness::RunResult
makeRun(const std::string &workload, vm::Tier tier, double baseMs,
        double scale = 1.0)
{
    harness::RunResult run;
    run.workload = workload;
    run.tier = tier;
    run.size = 10;
    for (int inv = 0; inv < 4; ++inv) {
        harness::InvocationResult ir;
        ir.invocationSeed = 100 + inv;
        for (int it = 0; it < 6; ++it) {
            harness::IterationSample s;
            // Flat series with mild between/within variation so
            // intervals are non-degenerate but steady from iter 0.
            s.timeMs =
                scale * (baseMs + 0.002 * inv + 0.001 * (it % 3));
            ir.samples.push_back(s);
        }
        run.invocations.push_back(ir);
    }
    run.invocationsAttempted = 4;
    return run;
}

archive::Entry
makeEntry(int id, const std::string &fingerprint,
          std::vector<harness::RunResult> runs)
{
    archive::Entry e;
    e.summary.id = id;
    e.summary.fingerprint = fingerprint;
    e.summary.command = "run";
    e.summary.runCount = static_cast<int>(runs.size());
    e.config = Json::object();
    e.runs = std::move(runs);
    return e;
}

TEST(HierarchicalRatio, ConstantSamplesGiveExactDegenerateInterval)
{
    TwoLevel numer = {{4.0, 4.0}, {4.0, 4.0}};
    TwoLevel denom = {{2.0, 2.0}, {2.0, 2.0}};
    Rng rng(42);
    auto ci = stats::hierarchicalRatioInterval(numer, denom, rng,
                                               0.95, 200);
    // Every replicate resamples constants, so the whole distribution
    // collapses onto the true ratio.
    EXPECT_DOUBLE_EQ(ci.estimate, 2.0);
    EXPECT_DOUBLE_EQ(ci.lower, 2.0);
    EXPECT_DOUBLE_EQ(ci.upper, 2.0);
}

TEST(HierarchicalRatio, EstimateIsRatioOfMeanOfMeans)
{
    // Hand-computed: mean-of-means(numer) = ((1+3)/2 + (5+7)/2)/2
    // = (2 + 6)/2 = 4; mean-of-means(denom) = (1 + 3)/2 = 2.
    TwoLevel numer = {{1.0, 3.0}, {5.0, 7.0}};
    TwoLevel denom = {{1.0, 1.0}, {3.0, 3.0}};
    Rng rng(7);
    auto ci = stats::hierarchicalRatioInterval(numer, denom, rng,
                                               0.95, 2000);
    EXPECT_DOUBLE_EQ(ci.estimate, 4.0 / 2.0);
    EXPECT_LE(ci.lower, ci.estimate);
    EXPECT_GE(ci.upper, ci.estimate);
    // Denominator invocation means are 1 or 3, numerator replicates
    // lie in [1, 7]: the ratio can never leave [1/3, 7].
    EXPECT_GE(ci.lower, 1.0 / 3.0);
    EXPECT_LE(ci.upper, 7.0);
    // With both invocations distinguishable the interval has width.
    EXPECT_LT(ci.lower, ci.upper);
}

TEST(HierarchicalRatio, SameSeedSameInterval)
{
    TwoLevel numer = {{1.0, 1.2, 0.9}, {1.4, 1.3, 1.5}};
    TwoLevel denom = {{0.8, 0.7, 0.9}, {1.0, 1.1, 0.9}};
    Rng a(123), b(123), c(999);
    auto ci1 = stats::hierarchicalRatioInterval(numer, denom, a);
    auto ci2 = stats::hierarchicalRatioInterval(numer, denom, b);
    EXPECT_DOUBLE_EQ(ci1.lower, ci2.lower);
    EXPECT_DOUBLE_EQ(ci1.upper, ci2.upper);
    auto ci3 = stats::hierarchicalRatioInterval(numer, denom, c);
    // A different stream draws different replicates; the estimate is
    // seed-independent even then.
    EXPECT_DOUBLE_EQ(ci1.estimate, ci3.estimate);
    EXPECT_TRUE(ci1.lower != ci3.lower || ci1.upper != ci3.upper);
}

TEST(HierarchicalRatio, RejectsDegenerateInputs)
{
    TwoLevel ok = {{1.0}};
    EXPECT_THROW(
        {
            Rng r(1);
            stats::hierarchicalRatioInterval({}, ok, r);
        },
        PanicError);
    EXPECT_THROW(
        {
            Rng r(1);
            stats::hierarchicalRatioInterval(ok, {{}}, r);
        },
        PanicError);
    EXPECT_THROW(
        {
            Rng r(1);
            stats::hierarchicalRatioInterval(ok, ok, r, 0.95, 5);
        },
        PanicError);
}

TEST(Compare, EffectSizeBands)
{
    EXPECT_EQ(classifyEffect(1.0), EffectSize::Negligible);
    EXPECT_EQ(classifyEffect(1.005), EffectSize::Negligible);
    EXPECT_EQ(classifyEffect(1.02), EffectSize::Small);
    EXPECT_EQ(classifyEffect(1.0 / 1.02), EffectSize::Small);
    EXPECT_EQ(classifyEffect(1.10), EffectSize::Medium);
    EXPECT_EQ(classifyEffect(1.5), EffectSize::Large);
    EXPECT_EQ(classifyEffect(0.5), EffectSize::Large);
    EXPECT_THROW(classifyEffect(0.0), PanicError);
}

TEST(Compare, IdenticalEntriesAreInconclusiveAndDeterministic)
{
    auto base = makeEntry(1, "cafe", {makeRun("w", vm::Tier::Interp,
                                              1.0)});
    auto cand = makeEntry(2, "cafe", {makeRun("w", vm::Tier::Interp,
                                              1.0)});
    CompareConfig cfg;
    auto r1 = compareEntries(base, cand, cfg);
    ASSERT_EQ(r1.workloads.size(), 1u);
    const auto &wc = r1.workloads[0];
    // Identical samples: the point speedup is exactly 1.0 and no
    // direction can honestly be claimed.
    EXPECT_DOUBLE_EQ(wc.speedup.estimate, 1.0);
    EXPECT_EQ(wc.verdict, Verdict::Inconclusive);
    EXPECT_EQ(wc.effect, EffectSize::Negligible);
    EXPECT_TRUE(r1.sameConfig);

    // Byte-identical rendering across repeated comparisons.
    auto r2 = compareEntries(base, cand, cfg);
    r1.baselineRef = r2.baselineRef = "HEAD~1";
    r1.candidateRef = r2.candidateRef = "HEAD";
    EXPECT_EQ(renderMarkdown(r1), renderMarkdown(r2));
    EXPECT_EQ(reportToJson(r1).dump(2), reportToJson(r2).dump(2));
    // The gate never fails on an inconclusive comparison.
    EXPECT_TRUE(evaluateGate(r1, 5.0).pass);
    EXPECT_TRUE(evaluateGate(r1, 0.0).pass);
}

TEST(Compare, DetectsInjectedSlowdown)
{
    auto base = makeEntry(1, "aaaa", {makeRun("w", vm::Tier::Interp,
                                              1.0)});
    auto cand = makeEntry(2, "bbbb", {makeRun("w", vm::Tier::Interp,
                                              1.0, 1.5)});
    CompareConfig cfg;
    auto report = compareEntries(base, cand, cfg);
    ASSERT_EQ(report.workloads.size(), 1u);
    const auto &wc = report.workloads[0];
    EXPECT_FALSE(report.sameConfig);
    EXPECT_NEAR(wc.speedup.estimate, 1.0 / 1.5, 1e-9);
    EXPECT_EQ(wc.verdict, Verdict::Slower);
    EXPECT_EQ(wc.effect, EffectSize::Large);

    auto gate = evaluateGate(report, 5.0);
    EXPECT_FALSE(gate.pass);
    ASSERT_EQ(gate.regressions.size(), 1u);
    EXPECT_EQ(gate.regressions[0].workload, "w");
    EXPECT_NEAR(gate.regressions[0].slowdownPct, 50.0, 1e-6);
    // A threshold looser than the regression passes it.
    EXPECT_TRUE(evaluateGate(report, 60.0).pass);
}

TEST(Compare, GateRequiresWholeIntervalPastThreshold)
{
    CompareReport report;
    report.confidence = 0.95;
    WorkloadComparison wc;
    wc.workload = "w";
    wc.tier = "interp";
    // Point estimate past a 5% threshold, but the interval reaches
    // back inside it: possibly-noise, so the gate must pass.
    wc.speedup.estimate = 0.93;
    wc.speedup.lower = 0.90;
    wc.speedup.upper = 0.97;
    report.workloads.push_back(wc);
    EXPECT_TRUE(evaluateGate(report, 5.0).pass);
    // Tighten the interval below 1/1.05 and the gate fails.
    report.workloads[0].speedup.upper = 0.94;
    EXPECT_FALSE(evaluateGate(report, 5.0).pass);
    // ... but a 10% threshold tolerates it again.
    EXPECT_TRUE(evaluateGate(report, 10.0).pass);
    EXPECT_THROW(evaluateGate(report, -1.0), FatalError);
}

TEST(Compare, UnpairedRunsAreReportedNotCompared)
{
    auto base = makeEntry(
        1, "cafe",
        {makeRun("shared", vm::Tier::Interp, 1.0),
         makeRun("only_a", vm::Tier::Interp, 1.0)});
    auto cand = makeEntry(
        2, "cafe",
        {makeRun("shared", vm::Tier::Interp, 1.0),
         makeRun("only_b", vm::Tier::Adaptive, 1.0)});
    CompareConfig cfg;
    auto report = compareEntries(base, cand, cfg);
    ASSERT_EQ(report.workloads.size(), 1u);
    EXPECT_EQ(report.workloads[0].workload, "shared");
    ASSERT_EQ(report.baselineOnly.size(), 1u);
    EXPECT_EQ(report.baselineOnly[0], "only_a/interp");
    ASSERT_EQ(report.candidateOnly.size(), 1u);
    EXPECT_EQ(report.candidateOnly[0], "only_b/adaptive");

    // Entries with no overlap at all cannot be compared.
    auto lonely = makeEntry(3, "dddd",
                            {makeRun("other", vm::Tier::Interp,
                                     1.0)});
    EXPECT_THROW(compareEntries(base, lonely, cfg), FatalError);
}

/**
 * A run with a seeded warm-up and noise, so steady-state detection
 * cuts some invocations and every pair's interval has width.
 */
harness::RunResult
makeNoisyRun(const std::string &workload, vm::Tier tier, double baseMs,
             uint64_t seed)
{
    Rng rng(seed);
    harness::RunResult run;
    run.workload = workload;
    run.tier = tier;
    run.size = 10;
    for (int inv = 0; inv < 5; ++inv) {
        harness::InvocationResult ir;
        ir.invocationSeed = seed + inv;
        double level = baseMs * (1.0 + 0.05 * rng.nextGaussian());
        for (int it = 0; it < 12; ++it) {
            harness::IterationSample s;
            double warm = it < 3 ? 0.5 * (3 - it) : 0.0;
            s.timeMs = level * (1.0 + warm) *
                (1.0 + 0.01 * rng.nextGaussian());
            ir.samples.push_back(s);
        }
        run.invocations.push_back(ir);
    }
    run.invocationsAttempted = 5;
    return run;
}

/** compare.cc's steady-state sample of a run, written out again. */
TwoLevel
steadyOf(const harness::RunResult &run)
{
    auto summary = harness::analyzeSteadyState(run);
    TwoLevel out;
    for (size_t i = 0; i < run.invocations.size(); ++i) {
        std::vector<double> times = run.invocations[i].times();
        const auto &ss = summary.perInvocation[i];
        size_t start =
            ss.hasSteadyState() && ss.steadyStart < times.size()
                ? ss.steadyStart
                : 0;
        out.emplace_back(times.begin() + static_cast<ptrdiff_t>(start),
                         times.end());
    }
    return out;
}

// The pairs are bootstrapped in parallel; the report must still be
// the one a loop over the pairs in (workload, tier) order assembles.
TEST(Compare, ReportEqualsOneAssembledPairByPair)
{
    const vm::Tier tiers[] = {vm::Tier::Interp, vm::Tier::Adaptive,
                              vm::Tier::Threaded};
    std::vector<harness::RunResult> a, b;
    std::vector<std::tuple<std::string, std::string, size_t>> keys;
    for (int w = 0; w < 12; ++w) {
        for (vm::Tier tier : tiers) {
            std::string name = strprintf("wl%02d", (w * 7) % 12);
            double scale = 0.9 + 0.02 * w;
            uint64_t seed = 1000 + 10 * a.size();
            keys.emplace_back(name, vm::tierName(tier), a.size());
            a.push_back(makeNoisyRun(name, tier, 2.0, seed));
            b.push_back(makeNoisyRun(name, tier, 2.0 * scale, seed + 1));
        }
    }
    std::sort(keys.begin(), keys.end());
    CompareConfig cfg;
    cfg.seed = 0x5eed;
    cfg.resamples = 300;
    auto report = compareEntries(makeEntry(1, "aaaa", a),
                                 makeEntry(2, "bbbb", b), cfg);

    ASSERT_EQ(report.workloads.size(), keys.size());
    std::vector<double> points;
    for (size_t k = 0; k < keys.size(); ++k) {
        const auto &[name, tier, i] = keys[k];
        SCOPED_TRACE(name + "/" + tier);
        TwoLevel base = steadyOf(a[i]), cand = steadyOf(b[i]);
        SplitMix64 mix(cfg.seed ^ fnv1a64(name + "/" + tier));
        Rng rng(mix.next());
        auto ci = stats::hierarchicalRatioInterval(
            base, cand, rng, cfg.confidence, cfg.resamples);
        const WorkloadComparison &wc = report.workloads[k];
        EXPECT_EQ(wc.workload, name);
        EXPECT_EQ(wc.tier, tier);
        EXPECT_EQ(wc.baselineMs,
                  stats::mean(stats::invocationMeans(base)));
        EXPECT_EQ(wc.candidateMs,
                  stats::mean(stats::invocationMeans(cand)));
        EXPECT_EQ(wc.speedup.estimate, ci.estimate);
        EXPECT_EQ(wc.speedup.lower, ci.lower);
        EXPECT_EQ(wc.speedup.upper, ci.upper);
        Verdict v = ci.lower > 1.0 ? Verdict::Faster
            : ci.upper < 1.0       ? Verdict::Slower
                                   : Verdict::Inconclusive;
        EXPECT_EQ(wc.verdict, v);
        EXPECT_EQ(wc.effect, classifyEffect(ci.estimate));
        points.push_back(ci.estimate);
    }
    auto geomean = stats::geomeanInterval(points, cfg.confidence);
    EXPECT_EQ(report.geomean.estimate, geomean.estimate);
    EXPECT_EQ(report.geomean.lower, geomean.lower);
    EXPECT_EQ(report.geomean.upper, geomean.upper);
}

// When several pairs fail, the error is the first failing pair's in
// key order, as a serial loop would have stopped there.
TEST(Compare, FailingPairsRaiseTheFirstInKeyOrder)
{
    // A negative baseline makes a negative speedup, which
    // classifyEffect refuses with the value in its message.
    auto constant = [](const std::string &name, double ms) {
        harness::RunResult run = makeRun(name, vm::Tier::Interp, 1.0);
        for (auto &inv : run.invocations)
            for (auto &s : inv.samples)
                s.timeMs = ms;
        return run;
    };
    std::vector<harness::RunResult> a, b;
    for (int w = 23; w >= 0; --w) {
        std::string name = strprintf("w%02d", w);
        bool failing = w % 5 == 3;
        a.push_back(constant(name, failing ? -(w + 1.0) : 1.0));
        b.push_back(constant(name, 1.0));
    }
    auto base = makeEntry(1, "aaaa", a), cand = makeEntry(2, "bbbb", b);
    CompareConfig cfg;
    cfg.resamples = 50;
    for (int round = 0; round < 20; ++round) {
        try {
            compareEntries(base, cand, cfg);
            ADD_FAILURE() << "no pair failed";
        } catch (const PanicError &e) {
            EXPECT_STREQ(e.what(),
                         "panic: classifyEffect: non-positive speedup -4")
                << "round " << round;
        }
    }
}

} // namespace
} // namespace compare
} // namespace rigor

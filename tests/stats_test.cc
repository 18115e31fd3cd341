/**
 * @file
 * Statistics-library tests: descriptive stats against hand-computed
 * values, distribution functions against published quantiles, CI
 * coverage properties against synthetic data with known parameters,
 * and hypothesis tests on separable/inseparable samples.
 */

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "stats/ci.hh"
#include "stats/descriptive.hh"
#include "stats/distributions.hh"
#include "stats/hierarchy.hh"
#include "stats/tests.hh"
#include "support/logging.hh"
#include "support/rng.hh"

namespace rigor {
namespace stats {
namespace {

TEST(Descriptive, MeanVarianceStddev)
{
    std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
    EXPECT_DOUBLE_EQ(mean(xs), 5.0);
    EXPECT_NEAR(variance(xs), 32.0 / 7.0, 1e-12);
    EXPECT_NEAR(stddev(xs), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Descriptive, MedianAndPercentiles)
{
    std::vector<double> xs = {1, 2, 3, 4};
    EXPECT_DOUBLE_EQ(median(xs), 2.5);
    EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 100), 4.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 50), 2.5);
    std::vector<double> one = {7};
    EXPECT_DOUBLE_EQ(median(one), 7.0);
}

TEST(Descriptive, SortedPercentileIsPercentileWithoutTheSort)
{
    Rng rng(7);
    std::vector<double> xs;
    for (int i = 0; i < 37; ++i)
        xs.push_back(rng.nextGaussian());
    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    for (double p : {0.0, 2.5, 25.0, 50.0, 75.0, 97.5, 100.0})
        EXPECT_EQ(sortedPercentile(sorted, p), percentile(xs, p)) << p;
    Summary s = summarize(xs);
    EXPECT_EQ(s.q1, percentile(xs, 25.0));
    EXPECT_EQ(s.median, percentile(xs, 50.0));
    EXPECT_EQ(s.q3, percentile(xs, 75.0));
}

TEST(Descriptive, GeomeanAndHarmonic)
{
    std::vector<double> xs = {1, 2, 4};
    EXPECT_NEAR(geomean(xs), 2.0, 1e-12);
    EXPECT_NEAR(harmonicMean(xs), 3.0 / (1.0 + 0.5 + 0.25), 1e-12);
    EXPECT_THROW(geomean({1.0, -2.0}), PanicError);
}

TEST(Descriptive, SummaryFields)
{
    std::vector<double> xs = {10, 12, 14, 16, 18};
    Summary s = summarize(xs);
    EXPECT_EQ(s.n, 5u);
    EXPECT_DOUBLE_EQ(s.mean, 14.0);
    EXPECT_DOUBLE_EQ(s.min, 10.0);
    EXPECT_DOUBLE_EQ(s.max, 18.0);
    EXPECT_DOUBLE_EQ(s.median, 14.0);
    EXPECT_NEAR(s.cov, s.stddev / 14.0, 1e-12);
    EXPECT_THROW(summarize({}), PanicError);
}

TEST(Descriptive, Autocorrelation)
{
    // Alternating series: strong negative lag-1 autocorrelation.
    std::vector<double> alt;
    for (int i = 0; i < 100; ++i)
        alt.push_back(i % 2 ? 1.0 : -1.0);
    EXPECT_LT(autocorrelation(alt, 1), -0.9);
    // Constant series: defined as 0.
    std::vector<double> flat(50, 3.0);
    EXPECT_DOUBLE_EQ(autocorrelation(flat, 1), 0.0);
    // Lag 0 of any non-constant series is 1.
    std::vector<double> xs = {1, 5, 2, 8, 3};
    EXPECT_DOUBLE_EQ(autocorrelation(xs, 0), 1.0);
}

TEST(Descriptive, EffectiveSampleSizeShrinksForCorrelated)
{
    Rng rng(7);
    // AR(1) with high phi: ESS much smaller than n.
    std::vector<double> ar;
    double x = 0.0;
    for (int i = 0; i < 2000; ++i) {
        x = 0.9 * x + rng.nextGaussian();
        ar.push_back(x);
    }
    double ess = effectiveSampleSize(ar);
    EXPECT_LT(ess, 600.0);
    // White noise: ESS close to n.
    std::vector<double> wn;
    for (int i = 0; i < 2000; ++i)
        wn.push_back(rng.nextGaussian());
    EXPECT_GT(effectiveSampleSize(wn), 1200.0);
}

TEST(Descriptive, TukeyOutliers)
{
    std::vector<double> xs = {10, 11, 12, 11, 10, 12, 11, 100};
    auto out = tukeyOutliers(xs);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0], 7u);
    // Small samples return nothing.
    EXPECT_TRUE(tukeyOutliers({1.0, 2.0}).empty());
}

TEST(Distributions, NormalCdfKnownValues)
{
    EXPECT_NEAR(normalCdf(0.0), 0.5, 1e-12);
    EXPECT_NEAR(normalCdf(1.959963985), 0.975, 1e-9);
    EXPECT_NEAR(normalCdf(-1.959963985), 0.025, 1e-9);
    EXPECT_NEAR(normalCdf(1.0), 0.841344746, 1e-8);
}

TEST(Distributions, NormalQuantileInvertsCdf)
{
    for (double p : {0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99,
                     0.999}) {
        EXPECT_NEAR(normalCdf(normalQuantile(p)), p, 1e-10)
            << "p=" << p;
    }
    EXPECT_THROW(normalQuantile(0.0), PanicError);
    EXPECT_THROW(normalQuantile(1.0), PanicError);
}

TEST(Distributions, LnGammaKnownValues)
{
    EXPECT_NEAR(lnGamma(1.0), 0.0, 1e-12);
    EXPECT_NEAR(lnGamma(2.0), 0.0, 1e-12);
    EXPECT_NEAR(lnGamma(5.0), std::log(24.0), 1e-10);
    EXPECT_NEAR(lnGamma(0.5), 0.5 * std::log(M_PI), 1e-10);
}

TEST(Distributions, StudentTCdfSymmetry)
{
    for (double nu : {1.0, 3.0, 10.0, 50.0}) {
        EXPECT_NEAR(studentTCdf(0.0, nu), 0.5, 1e-12);
        for (double t : {0.5, 1.0, 2.5}) {
            EXPECT_NEAR(studentTCdf(t, nu) + studentTCdf(-t, nu), 1.0,
                        1e-10);
        }
    }
}

TEST(Distributions, StudentTCriticalValuesMatchTables)
{
    // Standard two-sided 95% critical values.
    EXPECT_NEAR(tCritical(0.95, 1), 12.706, 0.01);
    EXPECT_NEAR(tCritical(0.95, 2), 4.303, 0.005);
    EXPECT_NEAR(tCritical(0.95, 5), 2.571, 0.005);
    EXPECT_NEAR(tCritical(0.95, 10), 2.228, 0.005);
    EXPECT_NEAR(tCritical(0.95, 30), 2.042, 0.005);
    EXPECT_NEAR(tCritical(0.95, 120), 1.980, 0.005);
    // 99% values.
    EXPECT_NEAR(tCritical(0.99, 10), 3.169, 0.005);
    // Converges to the normal quantile for large nu.
    EXPECT_NEAR(tCritical(0.95, 100000), 1.95996, 0.001);
}

TEST(Distributions, StudentTQuantileInvertsCdf)
{
    for (double nu : {2.0, 7.0, 29.0}) {
        for (double p : {0.05, 0.25, 0.5, 0.8, 0.975}) {
            double q = studentTQuantile(p, nu);
            EXPECT_NEAR(studentTCdf(q, nu), p, 1e-8)
                << "nu=" << nu << " p=" << p;
        }
    }
}

TEST(Ci, TIntervalMatchesHandComputation)
{
    // n=4, mean=5, sd=2 -> half-width = t(0.95,3) * 2/2 = 3.182*1.
    std::vector<double> xs = {3, 4, 6, 7};
    ConfidenceInterval ci = tInterval(xs, 0.95);
    EXPECT_DOUBLE_EQ(ci.estimate, 5.0);
    double sd = stddev(xs);
    double expected_half = tCritical(0.95, 3) * sd / 2.0;
    EXPECT_NEAR(ci.halfWidth(), expected_half, 1e-9);
}

TEST(Ci, CoverageIsApproximatelyNominal)
{
    // Draw many samples from N(10, 2); the 95% t-interval should
    // contain 10 about 95% of the time.
    Rng rng(1234);
    int covered = 0;
    const int trials = 800;
    for (int t = 0; t < trials; ++t) {
        std::vector<double> xs;
        for (int i = 0; i < 12; ++i)
            xs.push_back(rng.nextGaussian(10.0, 2.0));
        if (tInterval(xs, 0.95).contains(10.0))
            ++covered;
    }
    double rate = static_cast<double>(covered) / trials;
    EXPECT_GT(rate, 0.92);
    EXPECT_LT(rate, 0.98);
}

TEST(Ci, BootstrapIntervalCoversMedian)
{
    Rng rng(99);
    std::vector<double> xs;
    for (int i = 0; i < 60; ++i)
        xs.push_back(rng.nextExponential(0.5));  // skewed
    Rng boot_rng(7);
    auto ci = bootstrapInterval(
        xs, [](const std::vector<double> &v) { return median(v); },
        boot_rng, 0.95, 1000);
    EXPECT_LE(ci.lower, ci.estimate);
    EXPECT_GE(ci.upper, ci.estimate);
    // True median of Exp(0.5) is ln(2)/0.5 ~ 1.386.
    EXPECT_TRUE(ci.contains(1.386))
        << "[" << ci.lower << "," << ci.upper << "]";
}

TEST(Ci, GeomeanIntervalIsMultiplicative)
{
    std::vector<double> xs = {1.0, 2.0, 4.0, 8.0};
    auto ci = geomeanInterval(xs, 0.95);
    EXPECT_NEAR(ci.estimate, geomean(xs), 1e-9);
    EXPECT_LT(ci.lower, ci.estimate);
    EXPECT_GT(ci.upper, ci.estimate);
    EXPECT_THROW(geomeanInterval({0.0, 1.0}), PanicError);
}

TEST(Ci, RatioOfMeansKnownRatio)
{
    Rng rng(5);
    std::vector<double> numer, denom;
    for (int i = 0; i < 40; ++i) {
        numer.push_back(rng.nextLogNormal(std::log(20.0), 0.05));
        denom.push_back(rng.nextLogNormal(std::log(10.0), 0.05));
    }
    auto ci = ratioOfMeansInterval(numer, denom, 0.95);
    EXPECT_NEAR(ci.estimate, 2.0, 0.1);
    EXPECT_TRUE(ci.contains(2.0));
    EXPECT_FALSE(ci.contains(1.0));
}

TEST(Ci, RequiredSampleSizeShrinksWithTolerance)
{
    Rng rng(17);
    std::vector<double> pilot;
    for (int i = 0; i < 20; ++i)
        pilot.push_back(rng.nextGaussian(100.0, 10.0));
    size_t tight = requiredSampleSize(pilot, 0.005, 0.95);
    size_t loose = requiredSampleSize(pilot, 0.05, 0.95);
    EXPECT_GT(tight, loose);
    EXPECT_GE(loose, 2u);
}

TEST(Ci, IntervalHelpers)
{
    ConfidenceInterval a{10.0, 9.0, 11.0, 0.95};
    ConfidenceInterval b{12.5, 11.5, 13.5, 0.95};
    ConfidenceInterval c{11.2, 10.5, 12.0, 0.95};
    EXPECT_FALSE(a.overlaps(b));
    EXPECT_TRUE(a.overlaps(c));
    EXPECT_TRUE(c.overlaps(b));
    EXPECT_NEAR(a.relativeHalfWidth(), 0.1, 1e-12);
}

TEST(Tests, WelchSeparatesDifferentMeans)
{
    Rng rng(31);
    std::vector<double> a, b;
    for (int i = 0; i < 30; ++i) {
        a.push_back(rng.nextGaussian(10.0, 1.0));
        b.push_back(rng.nextGaussian(12.0, 2.0));
    }
    TestResult r = welchTTest(a, b);
    EXPECT_TRUE(r.significant(0.01));
    EXPECT_LT(r.statistic, 0.0);
}

TEST(Tests, WelchDoesNotSeparateSameMeans)
{
    Rng rng(32);
    int rejections = 0;
    const int trials = 200;
    for (int t = 0; t < trials; ++t) {
        std::vector<double> a, b;
        for (int i = 0; i < 15; ++i) {
            a.push_back(rng.nextGaussian(5.0, 1.0));
            b.push_back(rng.nextGaussian(5.0, 1.0));
        }
        if (welchTTest(a, b).significant(0.05))
            ++rejections;
    }
    // Type-I error rate should be near alpha.
    EXPECT_LT(rejections, trials / 8);
}

TEST(Tests, MannWhitneyDetectsShift)
{
    Rng rng(33);
    std::vector<double> a, b;
    for (int i = 0; i < 40; ++i) {
        a.push_back(rng.nextExponential(1.0));
        b.push_back(rng.nextExponential(1.0) + 1.0);
    }
    EXPECT_TRUE(mannWhitneyU(a, b).significant(0.01));
    // Identical samples: p-value 1-ish.
    std::vector<double> same = {1, 2, 3, 4, 5};
    EXPECT_FALSE(mannWhitneyU(same, same).significant(0.05));
}

TEST(Tests, EffectSizes)
{
    std::vector<double> a = {1, 2, 3, 4, 5};
    std::vector<double> b = {6, 7, 8, 9, 10};
    // Complete separation: Cliff's delta = -1.
    EXPECT_DOUBLE_EQ(cliffsDelta(a, b), -1.0);
    EXPECT_DOUBLE_EQ(cliffsDelta(b, a), 1.0);
    EXPECT_DOUBLE_EQ(cliffsDelta(a, a), 0.0);
    EXPECT_LT(cohensD(a, b), -2.0);
    EXPECT_DOUBLE_EQ(cohensD(a, a), 0.0);
}

TEST(Hierarchy, MeanOfMeansVsPooled)
{
    // Two invocations with very different levels: pooled CI ignores
    // the hierarchy and is far too narrow relative to the truth.
    std::vector<std::vector<double>> samples = {
        {10.0, 10.1, 9.9, 10.0, 10.05},
        {14.0, 14.1, 13.9, 14.0, 13.95},
    };
    auto mom = meanOfMeansInterval(samples, 0.95);
    auto pooled = naivePooledInterval(samples, 0.95);
    EXPECT_NEAR(mom.estimate, 12.0, 0.01);
    // The mean-of-means interval must be wider: only 2 replicates.
    EXPECT_GT(mom.halfWidth(), pooled.halfWidth());
}

TEST(Hierarchy, VarianceDecompositionRecoversGroundTruth)
{
    // Synthesize a two-level design with known variance components.
    Rng rng(77);
    const double between_sd = 3.0, within_sd = 1.0;
    std::vector<std::vector<double>> samples;
    for (int inv = 0; inv < 60; ++inv) {
        double level = rng.nextGaussian(100.0, between_sd);
        std::vector<double> iters;
        for (int it = 0; it < 20; ++it)
            iters.push_back(rng.nextGaussian(level, within_sd));
        samples.push_back(std::move(iters));
    }
    auto vc = decomposeVariance(samples);
    EXPECT_NEAR(vc.betweenInvocation, between_sd * between_sd, 2.5);
    EXPECT_NEAR(vc.withinInvocation, within_sd * within_sd, 0.15);
    EXPECT_GT(vc.intraclassCorrelation(), 0.75);
    EXPECT_NEAR(vc.grandMean, 100.0, 1.0);
}

TEST(Hierarchy, DegenerateInputsPanic)
{
    EXPECT_THROW(invocationMeans({}), PanicError);
    EXPECT_THROW(decomposeVariance({{1.0, 2.0}}), PanicError);
    EXPECT_THROW(decomposeVariance({{1.0}, {2.0}}), PanicError);
}


TEST(Tests, WilcoxonSignedRankDetectsPairedShift)
{
    Rng rng(41);
    std::vector<double> a, b;
    for (int i = 0; i < 25; ++i) {
        double base = rng.nextLogNormal(0.0, 0.5);
        a.push_back(base);
        b.push_back(base * 1.4);  // consistent 40% slowdown
    }
    TestResult r = wilcoxonSignedRank(a, b);
    EXPECT_TRUE(r.significant(0.01));
    EXPECT_LT(r.statistic, 0.0);
}

TEST(Tests, WilcoxonSignedRankNullIsCalibrated)
{
    Rng rng(42);
    int rejections = 0;
    const int trials = 300;
    for (int t = 0; t < trials; ++t) {
        std::vector<double> a, b;
        for (int i = 0; i < 20; ++i) {
            double base = rng.nextGaussian(10.0, 2.0);
            a.push_back(base + rng.nextGaussian(0.0, 0.5));
            b.push_back(base + rng.nextGaussian(0.0, 0.5));
        }
        if (wilcoxonSignedRank(a, b).significant(0.05))
            ++rejections;
    }
    EXPECT_LT(rejections, trials / 8);
}

TEST(Tests, WilcoxonSignedRankEdgeCases)
{
    std::vector<double> same = {1, 2, 3, 4, 5};
    EXPECT_FALSE(wilcoxonSignedRank(same, same).significant(0.5));
    EXPECT_THROW(wilcoxonSignedRank({1.0}, {1.0, 2.0}), PanicError);
    EXPECT_THROW(wilcoxonSignedRank({}, {}), PanicError);
    // One differing pair: too few non-zero diffs to reject.
    std::vector<double> a = {1, 2, 3};
    std::vector<double> b = {1, 2, 9};
    EXPECT_FALSE(wilcoxonSignedRank(a, b).significant(0.05));
}

/** Parameterized CI coverage across confidence levels. */
class CoverageSweep : public ::testing::TestWithParam<double>
{
};

TEST_P(CoverageSweep, TIntervalCoverageTracksConfidence)
{
    double conf = GetParam();
    Rng rng(static_cast<uint64_t>(conf * 10000));
    int covered = 0;
    const int trials = 600;
    for (int t = 0; t < trials; ++t) {
        std::vector<double> xs;
        for (int i = 0; i < 10; ++i)
            xs.push_back(rng.nextGaussian(0.0, 1.0));
        if (tInterval(xs, conf).contains(0.0))
            ++covered;
    }
    double rate = static_cast<double>(covered) / trials;
    EXPECT_NEAR(rate, conf, 0.05) << "confidence=" << conf;
}

INSTANTIATE_TEST_SUITE_P(Levels, CoverageSweep,
                         ::testing::Values(0.80, 0.90, 0.95, 0.99));

} // namespace
} // namespace stats
} // namespace rigor

#include "stats/ci.hh"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.hh"
#include "stats/distributions.hh"
#include "support/logging.hh"

namespace rigor {
namespace stats {

double
ConfidenceInterval::relativeHalfWidth() const
{
    if (estimate == 0.0)
        return 0.0;
    return halfWidth() / std::fabs(estimate);
}

bool
ConfidenceInterval::overlaps(const ConfidenceInterval &o) const
{
    return lower <= o.upper && o.lower <= upper;
}

ConfidenceInterval
tInterval(const std::vector<double> &xs, double confidence)
{
    if (xs.empty())
        panic("tInterval: empty sample");
    ConfidenceInterval ci;
    ci.confidence = confidence;
    ci.estimate = mean(xs);
    if (xs.size() < 2) {
        ci.lower = ci.upper = ci.estimate;
        return ci;
    }
    double n = static_cast<double>(xs.size());
    double t = tCritical(confidence, n - 1.0);
    double half = t * stddev(xs) / std::sqrt(n);
    ci.lower = ci.estimate - half;
    ci.upper = ci.estimate + half;
    return ci;
}

ConfidenceInterval
bootstrapInterval(
    const std::vector<double> &xs,
    const std::function<double(const std::vector<double> &)> &statistic,
    Rng &rng, double confidence, int resamples)
{
    if (xs.empty())
        panic("bootstrapInterval: empty sample");
    if (resamples < 10)
        panic("bootstrapInterval: need at least 10 resamples");

    ConfidenceInterval ci;
    ci.confidence = confidence;
    ci.estimate = statistic(xs);

    std::vector<double> stats;
    stats.reserve(static_cast<size_t>(resamples));
    std::vector<double> resample(xs.size());
    uint64_t threshold = Rng::boundedThreshold(xs.size());
    for (int r = 0; r < resamples; ++r) {
        for (auto &v : resample)
            v = xs[rng.nextBounded(xs.size(), threshold)];
        stats.push_back(statistic(resample));
    }
    std::sort(stats.begin(), stats.end());
    double alpha = 1.0 - confidence;
    ci.lower = sortedPercentile(stats, 100.0 * alpha / 2.0);
    ci.upper = sortedPercentile(stats, 100.0 * (1.0 - alpha / 2.0));
    return ci;
}

ConfidenceInterval
geomeanInterval(const std::vector<double> &xs, double confidence)
{
    if (xs.empty())
        panic("geomeanInterval: empty sample");
    std::vector<double> logs;
    logs.reserve(xs.size());
    for (double x : xs) {
        if (x <= 0.0)
            panic("geomeanInterval: non-positive value %g", x);
        logs.push_back(std::log(x));
    }
    ConfidenceInterval log_ci = tInterval(logs, confidence);
    ConfidenceInterval ci;
    ci.confidence = confidence;
    ci.estimate = std::exp(log_ci.estimate);
    ci.lower = std::exp(log_ci.lower);
    ci.upper = std::exp(log_ci.upper);
    return ci;
}

ConfidenceInterval
ratioOfMeansInterval(const std::vector<double> &numer,
                     const std::vector<double> &denom, double confidence)
{
    if (numer.empty() || denom.empty())
        panic("ratioOfMeansInterval: empty sample");
    for (double x : numer)
        if (x <= 0.0)
            panic("ratioOfMeansInterval: non-positive numerator %g", x);
    for (double x : denom)
        if (x <= 0.0)
            panic("ratioOfMeansInterval: non-positive denominator %g", x);

    // Work in log space: log(ratio) = log mean is approximated by the
    // difference of log-means; Welch's approximation supplies the
    // degrees of freedom for unequal variances.
    std::vector<double> ln, ld;
    ln.reserve(numer.size());
    ld.reserve(denom.size());
    for (double x : numer)
        ln.push_back(std::log(x));
    for (double x : denom)
        ld.push_back(std::log(x));

    double m1 = mean(ln), m2 = mean(ld);
    double v1 = variance(ln), v2 = variance(ld);
    double n1 = static_cast<double>(ln.size());
    double n2 = static_cast<double>(ld.size());
    double se2 = v1 / n1 + v2 / n2;
    double se = std::sqrt(se2);

    ConfidenceInterval ci;
    ci.confidence = confidence;
    ci.estimate = mean(numer) / mean(denom);
    double diff = m1 - m2;
    if (se == 0.0 || n1 < 2 || n2 < 2) {
        ci.lower = ci.upper = std::exp(diff);
        return ci;
    }
    // Welch-Satterthwaite degrees of freedom.
    double nu = se2 * se2 /
        (v1 * v1 / (n1 * n1 * (n1 - 1.0)) +
         v2 * v2 / (n2 * n2 * (n2 - 1.0)));
    nu = std::max(1.0, nu);
    double t = tCritical(confidence, nu);
    ci.lower = std::exp(diff - t * se);
    ci.upper = std::exp(diff + t * se);
    return ci;
}

namespace {

/** Mean of per-invocation means of a two-level sample. */
double
meanOfMeans(const std::vector<std::vector<double>> &samples)
{
    double total = 0.0;
    for (const auto &inv : samples) {
        double s = 0.0;
        for (double v : inv)
            s += v;
        total += s / static_cast<double>(inv.size());
    }
    return total / static_cast<double>(samples.size());
}

/**
 * A two-level sample with the rejection thresholds of its bootstrap
 * draws (Rng::boundedThreshold) computed once: the invocation
 * count's and each invocation's iteration count's.
 */
struct TwoLevelDraws
{
    explicit TwoLevelDraws(const std::vector<std::vector<double>> &s)
        : samples(s), invocationThreshold(Rng::boundedThreshold(s.size()))
    {
        for (const auto &inv : s)
            iterationThresholds.push_back(
                Rng::boundedThreshold(inv.size()));
    }

    const std::vector<std::vector<double>> &samples;
    uint64_t invocationThreshold;
    std::vector<uint64_t> iterationThresholds;
};

/**
 * One hierarchical bootstrap replicate: resample invocations with
 * replacement, then iterations within each chosen invocation, and
 * return the replicate's mean of invocation means.
 */
double
resampleMeanOfMeans(const TwoLevelDraws &draws, Rng &rng)
{
    const auto &samples = draws.samples;
    size_t n = samples.size();
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
        size_t k = rng.nextBounded(n, draws.invocationThreshold);
        const auto &inv = samples[k];
        size_t m = inv.size();
        uint64_t threshold = draws.iterationThresholds[k];
        double s = 0.0;
        for (size_t j = 0; j < m; ++j)
            s += inv[rng.nextBounded(m, threshold)];
        total += s / static_cast<double>(m);
    }
    return total / static_cast<double>(n);
}

void
validateTwoLevel(const char *what,
                 const std::vector<std::vector<double>> &samples)
{
    if (samples.empty())
        panic("hierarchicalRatioInterval: empty %s sample", what);
    for (const auto &inv : samples)
        if (inv.empty())
            panic("hierarchicalRatioInterval: empty %s invocation",
                  what);
}

} // namespace

ConfidenceInterval
hierarchicalRatioInterval(
    const std::vector<std::vector<double>> &numer,
    const std::vector<std::vector<double>> &denom, Rng &rng,
    double confidence, int resamples)
{
    validateTwoLevel("numerator", numer);
    validateTwoLevel("denominator", denom);
    if (resamples < 10)
        panic("hierarchicalRatioInterval: need at least 10 "
              "resamples");

    ConfidenceInterval ci;
    ci.confidence = confidence;
    double denomMean = meanOfMeans(denom);
    if (denomMean == 0.0)
        panic("hierarchicalRatioInterval: zero denominator mean");
    ci.estimate = meanOfMeans(numer) / denomMean;

    TwoLevelDraws numerDraws(numer), denomDraws(denom);
    std::vector<double> ratios;
    ratios.reserve(static_cast<size_t>(resamples));
    for (int r = 0; r < resamples; ++r) {
        double num = resampleMeanOfMeans(numerDraws, rng);
        double den = resampleMeanOfMeans(denomDraws, rng);
        // A replicate with a zero denominator (possible only for
        // degenerate all-zero data) would poison the percentile; the
        // zero-mean panic above already excludes the systematic case.
        ratios.push_back(num / den);
    }
    std::sort(ratios.begin(), ratios.end());
    double alpha = 1.0 - confidence;
    ci.lower = sortedPercentile(ratios, 100.0 * alpha / 2.0);
    ci.upper = sortedPercentile(ratios, 100.0 * (1.0 - alpha / 2.0));
    return ci;
}

size_t
requiredSampleSize(const std::vector<double> &xs,
                   double target_relative_half_width, double confidence)
{
    if (xs.size() < 2)
        panic("requiredSampleSize: need at least 2 pilot samples");
    if (target_relative_half_width <= 0.0)
        panic("requiredSampleSize: target must be positive");
    double m = mean(xs);
    if (m == 0.0)
        panic("requiredSampleSize: zero mean");
    double s = stddev(xs);
    if (s == 0.0)
        return 2;
    double z = normalQuantile(1.0 - (1.0 - confidence) / 2.0);
    double target_half = target_relative_half_width * std::fabs(m);
    double n = (z * s / target_half) * (z * s / target_half);
    return std::max<size_t>(2, static_cast<size_t>(std::ceil(n)));
}

} // namespace stats
} // namespace rigor

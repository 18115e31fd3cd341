/**
 * @file
 * Confidence intervals: Student-t, geometric-mean and ratio-of-means
 * intervals (log-Welch and hierarchical bootstrap) — the core
 * quantities the rigorous methodology reports instead of bare point
 * estimates.
 */

#ifndef RIGOR_STATS_CI_HH
#define RIGOR_STATS_CI_HH

#include <vector>

#include "support/rng.hh"

namespace rigor {
namespace stats {

/** A point estimate with a two-sided confidence interval. */
struct ConfidenceInterval
{
    double estimate = 0.0;
    double lower = 0.0;
    double upper = 0.0;
    double confidence = 0.95;

    /** Interval half-width. */
    double halfWidth() const { return (upper - lower) / 2.0; }
    /** Half-width relative to the estimate (dimensionless). */
    double relativeHalfWidth() const;
    /** True if the interval contains v. */
    bool contains(double v) const { return v >= lower && v <= upper; }
};

/**
 * Student-t confidence interval on the mean.
 * @param xs sample (n >= 2 for a finite-width interval).
 * @param confidence e.g. 0.95.
 */
ConfidenceInterval tInterval(const std::vector<double> &xs,
                             double confidence = 0.95);

/**
 * Confidence interval on the geometric mean, computed as a t-interval
 * in log space and exponentiated back. All values must be positive.
 */
ConfidenceInterval geomeanInterval(const std::vector<double> &xs,
                                   double confidence = 0.95);

/**
 * Confidence interval on the ratio mean(numer) / mean(denom) for two
 * independent samples, using the log-transform + Welch approximation.
 * Suitable for speedup reporting. All values must be positive.
 */
ConfidenceInterval ratioOfMeansInterval(const std::vector<double> &numer,
                                        const std::vector<double> &denom,
                                        double confidence = 0.95);

/**
 * Hierarchical bootstrap confidence interval for the ratio
 * mean-of-means(numer) / mean-of-means(denom) of two independent
 * two-level samples (samples[i][j] = iteration j of invocation i).
 *
 * Each bootstrap replicate respects the invocation→iteration nesting:
 * invocations are resampled with replacement first, then each chosen
 * invocation's iterations are resampled with replacement *within* it,
 * and the replicate statistic is the ratio of the two mean-of-means.
 * Resampling iterations across invocations would treat correlated
 * iterations as independent — exactly the naive-pooling mistake the
 * methodology exists to avoid.
 *
 * The point estimate is the ratio of the original mean-of-means. The
 * interval is the percentile interval of the replicates; with a given
 * seeded Rng the result is bit-identical on every platform.
 *
 * @param numer two-level sample of the numerator (e.g. baseline ms).
 * @param denom two-level sample of the denominator.
 * @param rng seeded generator for resampling (reproducible).
 */
ConfidenceInterval hierarchicalRatioInterval(
    const std::vector<std::vector<double>> &numer,
    const std::vector<std::vector<double>> &denom,
    Rng &rng, double confidence = 0.95, int resamples = 2000);

/**
 * Number of additional samples estimated to shrink a t-interval to the
 * requested relative half-width, given the sample's current mean and
 * standard deviation (normal-approximation planning formula).
 * @return required total sample size (>= 2).
 */
size_t requiredSampleSize(const std::vector<double> &xs,
                          double target_relative_half_width,
                          double confidence = 0.95);

} // namespace stats
} // namespace rigor

#endif // RIGOR_STATS_CI_HH

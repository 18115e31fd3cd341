/**
 * @file
 * Descriptive statistics over samples of doubles.
 */

#ifndef RIGOR_STATS_DESCRIPTIVE_HH
#define RIGOR_STATS_DESCRIPTIVE_HH

#include <cstddef>
#include <vector>

namespace rigor {
namespace stats {

/** Summary statistics of a sample. */
struct Summary
{
    size_t n = 0;
    double mean = 0.0;
    double variance = 0.0;   ///< unbiased (n-1) sample variance
    double stddev = 0.0;
    double sem = 0.0;        ///< standard error of the mean
    double min = 0.0;
    double max = 0.0;
    double median = 0.0;
    double q1 = 0.0;         ///< 25th percentile
    double q3 = 0.0;         ///< 75th percentile
    double cov = 0.0;        ///< coefficient of variation (stddev/mean)
};

/** Compute summary statistics; panics on an empty sample. */
Summary summarize(const std::vector<double> &xs);

/** Arithmetic mean; panics on an empty sample. */
double mean(const std::vector<double> &xs);

/** Unbiased sample variance (returns 0 for n < 2). */
double variance(const std::vector<double> &xs);

/** Sample standard deviation. */
double stddev(const std::vector<double> &xs);

/**
 * Percentile with linear interpolation between order statistics.
 * @param p percentile in [0, 100].
 */
double percentile(std::vector<double> xs, double p);

/**
 * percentile() of a sample already sorted ascending, so several
 * percentiles of one sample cost one sort.
 */
double sortedPercentile(const std::vector<double> &sorted, double p);

/** Median (50th percentile). */
double median(const std::vector<double> &xs);

/** Geometric mean; panics if any value is non-positive. */
double geomean(const std::vector<double> &xs);

/** Harmonic mean; panics if any value is non-positive. */
double harmonicMean(const std::vector<double> &xs);

/**
 * Lag-k sample autocorrelation; returns 0 when undefined (constant
 * series or k >= n).
 */
double autocorrelation(const std::vector<double> &xs, size_t lag);

/**
 * Effective sample size accounting for positive autocorrelation
 * (initial positive sequence estimator, truncated at the first
 * non-positive lag).
 */
double effectiveSampleSize(const std::vector<double> &xs);

/**
 * Indices of Tukey outliers: values outside [q1 - k*iqr, q3 + k*iqr].
 * @param k fence multiplier (1.5 = standard, 3.0 = far outliers).
 */
std::vector<size_t> tukeyOutliers(const std::vector<double> &xs,
                                  double k = 1.5);

} // namespace stats
} // namespace rigor

#endif // RIGOR_STATS_DESCRIPTIVE_HH

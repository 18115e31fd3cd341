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

/**
 * Indices of Tukey outliers: values outside [q1 - k*iqr, q3 + k*iqr].
 * @param k fence multiplier (1.5 = standard, 3.0 = far outliers).
 */
std::vector<size_t> tukeyOutliers(const std::vector<double> &xs,
                                  double k = 1.5);

} // namespace stats
} // namespace rigor

#endif // RIGOR_STATS_DESCRIPTIVE_HH

/**
 * @file
 * Hypothesis test for comparing two runtimes across a suite.
 */

#ifndef RIGOR_STATS_TESTS_HH
#define RIGOR_STATS_TESTS_HH

#include <vector>

namespace rigor {
namespace stats {

/** Result of a two-sample location test. */
struct TestResult
{
    double statistic = 0.0;  ///< standardized W
    double pValue = 0.0;     ///< two-sided p-value

    /** True at the given significance level alpha. */
    bool significant(double alpha = 0.05) const { return pValue < alpha; }
};

/**
 * Wilcoxon signed-rank test for *paired* samples (normal
 * approximation with tie/zero handling). The canonical suite-level
 * question — "is runtime A faster than B across benchmarks?" — is a
 * paired design: one speedup per benchmark.
 */
TestResult wilcoxonSignedRank(const std::vector<double> &a,
                              const std::vector<double> &b);

} // namespace stats
} // namespace rigor

#endif // RIGOR_STATS_TESTS_HH

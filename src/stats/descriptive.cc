#include "stats/descriptive.hh"

#include <algorithm>
#include <cmath>

#include "support/logging.hh"

namespace rigor {
namespace stats {

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        panic("mean: empty sample");
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return sum / static_cast<double>(xs.size());
}

double
variance(const std::vector<double> &xs)
{
    if (xs.empty())
        panic("variance: empty sample");
    if (xs.size() < 2)
        return 0.0;
    double m = mean(xs);
    double ss = 0.0;
    for (double x : xs) {
        double d = x - m;
        ss += d * d;
    }
    return ss / static_cast<double>(xs.size() - 1);
}

double
stddev(const std::vector<double> &xs)
{
    return std::sqrt(variance(xs));
}

double
sortedPercentile(const std::vector<double> &xs, double p)
{
    if (xs.empty())
        panic("percentile: empty sample");
    if (p < 0.0 || p > 100.0)
        panic("percentile: p must be in [0,100], got %g", p);
    if (xs.size() == 1)
        return xs[0];
    double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, xs.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return xs[lo] + frac * (xs[hi] - xs[lo]);
}

double
percentile(std::vector<double> xs, double p)
{
    std::sort(xs.begin(), xs.end());
    return sortedPercentile(xs, p);
}

double
median(const std::vector<double> &xs)
{
    return percentile(xs, 50.0);
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        panic("geomean: empty sample");
    double log_sum = 0.0;
    for (double x : xs) {
        if (x <= 0.0)
            panic("geomean: non-positive value %g", x);
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

double
harmonicMean(const std::vector<double> &xs)
{
    if (xs.empty())
        panic("harmonicMean: empty sample");
    double inv_sum = 0.0;
    for (double x : xs) {
        if (x <= 0.0)
            panic("harmonicMean: non-positive value %g", x);
        inv_sum += 1.0 / x;
    }
    return static_cast<double>(xs.size()) / inv_sum;
}

Summary
summarize(const std::vector<double> &xs)
{
    if (xs.empty())
        panic("summarize: empty sample");
    Summary s;
    s.n = xs.size();
    s.mean = mean(xs);
    s.variance = variance(xs);
    s.stddev = std::sqrt(s.variance);
    s.sem = s.stddev / std::sqrt(static_cast<double>(s.n));
    s.min = *std::min_element(xs.begin(), xs.end());
    s.max = *std::max_element(xs.begin(), xs.end());
    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    s.median = sortedPercentile(sorted, 50.0);
    s.q1 = sortedPercentile(sorted, 25.0);
    s.q3 = sortedPercentile(sorted, 75.0);
    s.cov = s.mean != 0.0 ? s.stddev / std::fabs(s.mean) : 0.0;
    return s;
}

double
autocorrelation(const std::vector<double> &xs, size_t lag)
{
    size_t n = xs.size();
    if (lag >= n || n < 2)
        return 0.0;
    double m = mean(xs);
    double denom = 0.0;
    for (double x : xs) {
        double d = x - m;
        denom += d * d;
    }
    if (denom == 0.0)
        return 0.0;
    double num = 0.0;
    for (size_t i = 0; i + lag < n; ++i)
        num += (xs[i] - m) * (xs[i + lag] - m);
    return num / denom;
}

double
effectiveSampleSize(const std::vector<double> &xs)
{
    size_t n = xs.size();
    if (n < 3)
        return static_cast<double>(n);
    double rho_sum = 0.0;
    for (size_t k = 1; k < n / 2; ++k) {
        double rho = autocorrelation(xs, k);
        if (rho <= 0.0)
            break;
        rho_sum += rho;
    }
    double ess = static_cast<double>(n) / (1.0 + 2.0 * rho_sum);
    return std::max(1.0, std::min(ess, static_cast<double>(n)));
}

std::vector<size_t>
tukeyOutliers(const std::vector<double> &xs, double k)
{
    std::vector<size_t> out;
    if (xs.size() < 4)
        return out;
    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    double q1 = sortedPercentile(sorted, 25.0);
    double q3 = sortedPercentile(sorted, 75.0);
    double iqr = q3 - q1;
    double lo = q1 - k * iqr;
    double hi = q3 + k * iqr;
    for (size_t i = 0; i < xs.size(); ++i) {
        if (xs[i] < lo || xs[i] > hi)
            out.push_back(i);
    }
    return out;
}

} // namespace stats
} // namespace rigor

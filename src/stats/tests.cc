#include "stats/tests.hh"

#include <algorithm>
#include <cmath>

#include "stats/distributions.hh"
#include "support/logging.hh"

namespace rigor {
namespace stats {

namespace {

/** Midranks of a sample; also accumulates the tie correction. */
std::vector<double>
midranks(const std::vector<double> &xs, double &tie_correction)
{
    size_t n = xs.size();
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](size_t x, size_t y) { return xs[x] < xs[y]; });

    std::vector<double> ranks(n);
    tie_correction = 0.0;
    size_t i = 0;
    while (i < n) {
        size_t j = i;
        while (j + 1 < n && xs[order[j + 1]] == xs[order[i]])
            ++j;
        double avg_rank = (static_cast<double>(i) +
                           static_cast<double>(j)) / 2.0 + 1.0;
        double t = static_cast<double>(j - i + 1);
        tie_correction += t * t * t - t;
        for (size_t k = i; k <= j; ++k)
            ranks[order[k]] = avg_rank;
        i = j + 1;
    }
    return ranks;
}

} // namespace

TestResult
wilcoxonSignedRank(const std::vector<double> &a,
                   const std::vector<double> &b)
{
    if (a.size() != b.size())
        panic("wilcoxonSignedRank: paired samples must match");
    if (a.empty())
        panic("wilcoxonSignedRank: empty sample");

    // Differences, dropping exact zeros (standard practice).
    std::vector<double> diffs;
    for (size_t i = 0; i < a.size(); ++i) {
        double d = a[i] - b[i];
        if (d != 0.0)
            diffs.push_back(d);
    }
    TestResult r;
    if (diffs.size() < 2) {
        r.statistic = 0.0;
        r.pValue = 1.0;
        return r;
    }

    // Rank |d| with midranks.
    std::vector<double> abs_d;
    abs_d.reserve(diffs.size());
    for (double d : diffs)
        abs_d.push_back(std::fabs(d));
    double tie_correction = 0.0;
    std::vector<double> ranks = midranks(abs_d, tie_correction);

    double w_plus = 0.0;
    for (size_t i = 0; i < diffs.size(); ++i)
        if (diffs[i] > 0.0)
            w_plus += ranks[i];

    double n = static_cast<double>(diffs.size());
    double mu = n * (n + 1.0) / 4.0;
    double sigma2 = n * (n + 1.0) * (2.0 * n + 1.0) / 24.0 -
        tie_correction / 48.0;
    if (sigma2 <= 0.0) {
        r.statistic = 0.0;
        r.pValue = 1.0;
        return r;
    }
    double diff = w_plus - mu;
    double cc = diff > 0.0 ? -0.5 : (diff < 0.0 ? 0.5 : 0.0);
    r.statistic = (diff + cc) / std::sqrt(sigma2);
    r.pValue = std::min(
        1.0, 2.0 * (1.0 - normalCdf(std::fabs(r.statistic))));
    return r;
}

} // namespace stats
} // namespace rigor

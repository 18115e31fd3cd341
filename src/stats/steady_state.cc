#include "stats/steady_state.hh"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.hh"
#include "support/logging.hh"

namespace rigor {
namespace stats {

namespace {

/** Prefix sums enabling O(1) segment sum-of-squared-error queries. */
class SseOracle
{
  public:
    explicit SseOracle(const std::vector<double> &xs)
        : sum(xs.size() + 1, 0.0), sumsq(xs.size() + 1, 0.0)
    {
        for (size_t i = 0; i < xs.size(); ++i) {
            sum[i + 1] = sum[i] + xs[i];
            sumsq[i + 1] = sumsq[i] + xs[i] * xs[i];
        }
    }

    /** Sum of squared deviations from the mean over [b, e). */
    double
    sse(size_t b, size_t e) const
    {
        double n = static_cast<double>(e - b);
        if (n <= 0.0)
            return 0.0;
        double s = sum[e] - sum[b];
        double ss = sumsq[e] - sumsq[b];
        double v = ss - s * s / n;
        return std::max(0.0, v);
    }

    /** Mean over [b, e). */
    double
    segMean(size_t b, size_t e) const
    {
        return (sum[e] - sum[b]) / static_cast<double>(e - b);
    }

  private:
    std::vector<double> sum;
    std::vector<double> sumsq;
};

/**
 * Robust noise-variance estimate from lag-1 differences using the
 * median absolute deviation, insensitive to level shifts.
 */
double
noiseVariance(const std::vector<double> &xs)
{
    if (xs.size() < 3)
        return variance(xs);
    std::vector<double> diffs;
    diffs.reserve(xs.size() - 1);
    for (size_t i = 1; i < xs.size(); ++i)
        diffs.push_back(xs[i] - xs[i - 1]);
    std::vector<double> abs_dev;
    double med = median(diffs);
    abs_dev.reserve(diffs.size());
    for (double d : diffs)
        abs_dev.push_back(std::fabs(d - med));
    double mad = median(abs_dev);
    // 1.4826 converts MAD to sigma for normal data; differences double
    // the variance, hence the sqrt(2) divisor.
    double sigma = 1.4826 * mad / std::sqrt(2.0);
    double v = sigma * sigma;
    if (v <= 0.0) {
        v = variance(xs);
        if (v <= 0.0)
            v = 1e-12;
    }
    return v;
}

void
splitRecursive(const SseOracle &oracle, size_t b, size_t e,
               double penalty, size_t min_len,
               std::vector<size_t> &cuts, int depth)
{
    if (depth > 30 || e - b < 2 * min_len)
        return;
    double whole = oracle.sse(b, e);
    double best_gain = 0.0;
    size_t best_cut = 0;
    for (size_t c = b + min_len; c + min_len <= e; ++c) {
        double split_cost = oracle.sse(b, c) + oracle.sse(c, e);
        double gain = whole - split_cost;
        if (gain > best_gain) {
            best_gain = gain;
            best_cut = c;
        }
    }
    if (best_cut == 0 || best_gain <= penalty)
        return;
    cuts.push_back(best_cut);
    splitRecursive(oracle, b, best_cut, penalty, min_len, cuts, depth + 1);
    splitRecursive(oracle, best_cut, e, penalty, min_len, cuts, depth + 1);
}

} // namespace

std::vector<Segment>
segmentSeries(const std::vector<double> &xs, const SteadyStateOptions &opts)
{
    if (xs.empty())
        panic("segmentSeries: empty series");

    SseOracle oracle(xs);
    size_t n = xs.size();

    std::vector<size_t> cuts;
    if (n >= 2 * opts.minSegmentLength) {
        double noise = noiseVariance(xs);
        double penalty = opts.penaltyFactor * noise *
            std::log(static_cast<double>(n));
        splitRecursive(oracle, 0, n, penalty, opts.minSegmentLength, cuts,
                       0);
    }
    cuts.push_back(0);
    cuts.push_back(n);
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

    std::vector<Segment> segs;
    for (size_t i = 0; i + 1 < cuts.size(); ++i) {
        Segment s;
        s.begin = cuts[i];
        s.end = cuts[i + 1];
        s.mean = oracle.segMean(s.begin, s.end);
        double sse = oracle.sse(s.begin, s.end);
        s.variance = s.length() > 1
            ? sse / static_cast<double>(s.length() - 1) : 0.0;
        segs.push_back(s);
    }
    return segs;
}

SteadyStateResult
detectSteadyState(const std::vector<double> &xs,
                  const SteadyStateOptions &opts)
{
    SteadyStateResult r;
    r.segments = segmentSeries(xs, opts);

    // Merge adjacent segments whose means are equivalent, either
    // relative to the level (tolerance) or relative to the series'
    // noise floor (a ~3-sigma two-sample criterion), so that noisy
    // steady phases are not fragmented into spurious levels.
    double noise_var = noiseVariance(xs);
    std::vector<Segment> merged;
    for (const auto &s : r.segments) {
        if (!merged.empty()) {
            Segment &last = merged.back();
            double ref = std::max(std::fabs(last.mean),
                                  std::fabs(s.mean));
            // 4 sigma rather than ~2: binary segmentation picks the
            // *maximal*-gain split, which inflates the apparent mean
            // difference (selection bias), so the merge gate must be
            // conservative.
            double noise_gate = 4.0 *
                std::sqrt(noise_var *
                          (1.0 / static_cast<double>(last.length()) +
                           1.0 / static_cast<double>(s.length())));
            if (ref == 0.0 ||
                std::fabs(last.mean - s.mean) <=
                    opts.equivalenceTolerance * ref ||
                std::fabs(last.mean - s.mean) <= noise_gate) {
                // Merge: recompute the pooled mean.
                double total = last.mean *
                        static_cast<double>(last.length()) +
                    s.mean * static_cast<double>(s.length());
                last.end = s.end;
                last.mean = total / static_cast<double>(last.length());
                continue;
            }
        }
        merged.push_back(s);
    }
    r.segments = merged;

    size_t n = xs.size();
    const Segment &last = r.segments.back();
    const Segment &first = r.segments.front();

    auto steady_from = [&](size_t start) {
        std::vector<double> tail(xs.begin() +
                                     static_cast<ptrdiff_t>(start),
                                 xs.end());
        return mean(tail);
    };

    if (r.segments.size() == 1) {
        r.classification = SeriesClass::Flat;
        r.steadyStart = 0;
        r.steadyMean = steady_from(0);
        return r;
    }

    bool last_long_enough = static_cast<double>(last.length()) >=
        opts.minSteadyFraction * static_cast<double>(n);

    // Is the last segment (one of) the fastest levels?
    double min_mean = last.mean;
    for (const auto &s : r.segments)
        min_mean = std::min(min_mean, s.mean);
    double ref = std::max(std::fabs(min_mean), std::fabs(last.mean));
    bool last_is_fastest = ref == 0.0 ||
        (last.mean - min_mean) <= opts.equivalenceTolerance * ref;

    if (!last_long_enough) {
        r.classification = SeriesClass::NoSteadyState;
        r.steadyStart = n;
        r.steadyMean = 0.0;
        return r;
    }

    if (last_is_fastest) {
        r.classification = SeriesClass::Warmup;
        r.steadyStart = last.begin;
        r.steadyMean = steady_from(r.steadyStart);
        return r;
    }

    if (last.mean > first.mean) {
        r.classification = SeriesClass::Slowdown;
        r.steadyStart = last.begin;
        r.steadyMean = steady_from(r.steadyStart);
        return r;
    }

    r.classification = SeriesClass::NoSteadyState;
    r.steadyStart = n;
    r.steadyMean = 0.0;
    return r;
}

} // namespace stats
} // namespace rigor

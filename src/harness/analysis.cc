#include "harness/analysis.hh"

#include <algorithm>
#include <cmath>

#include "stats/descriptive.hh"
#include "support/logging.hh"

namespace rigor {
namespace harness {

SteadyStateSummary
analyzeSteadyState(const RunResult &run,
                   const stats::SteadyStateOptions &opts)
{
    SteadyStateSummary summary;
    double start_sum = 0.0;
    int with_steady = 0;
    for (const auto &inv : run.invocations) {
        auto res = stats::detectSteadyState(inv.times(), opts);
        switch (res.classification) {
          case stats::SeriesClass::Flat: ++summary.flat; break;
          case stats::SeriesClass::Warmup: ++summary.warmup; break;
          case stats::SeriesClass::Slowdown:
            ++summary.slowdown;
            break;
          case stats::SeriesClass::NoSteadyState:
            ++summary.noSteadyState;
            break;
        }
        if (res.hasSteadyState()) {
            start_sum += static_cast<double>(res.steadyStart);
            summary.maxSteadyStart =
                std::max(summary.maxSteadyStart, res.steadyStart);
            ++with_steady;
        }
        summary.perInvocation.push_back(std::move(res));
    }
    if (with_steady)
        summary.meanSteadyStart = start_sum / with_steady;
    return summary;
}

size_t
steadyStateStart(const RunResult &run, const SteadyStateSummary &summary,
                 size_t i)
{
    const auto &ss = summary.perInvocation[i];
    return ss.hasSteadyState() &&
            ss.steadyStart < run.invocations[i].samples.size()
        ? ss.steadyStart
        : 0;
}

std::vector<std::vector<double>>
steadyStateSeries(const RunResult &run, const SteadyStateSummary &summary)
{
    std::vector<std::vector<double>> out;
    out.reserve(run.invocations.size());
    for (size_t i = 0; i < run.invocations.size(); ++i) {
        const auto &samples = run.invocations[i].samples;
        std::vector<double> &steady = out.emplace_back();
        size_t start = steadyStateStart(run, summary, i);
        steady.reserve(samples.size() - start);
        for (size_t j = start; j < samples.size(); ++j)
            steady.push_back(samples[j].timeMs);
    }
    return out;
}

const char *
methodologyName(Methodology m)
{
    switch (m) {
      case Methodology::RigorousMeanOfMeans:
        return "rigorous";
      case Methodology::NaiveFirstIteration:
        return "naive-first-iter";
      case Methodology::NaiveSingleInvocationMean:
        return "naive-one-invocation";
      case Methodology::NaiveBestOfAll:
        return "naive-best";
      case Methodology::NaiveLastIteration:
        return "naive-last-iter";
      case Methodology::NaivePooled:
        return "naive-pooled";
    }
    return "?";
}

const std::vector<Methodology> &
allMethodologies()
{
    static const std::vector<Methodology> all = {
        Methodology::RigorousMeanOfMeans,
        Methodology::NaiveFirstIteration,
        Methodology::NaiveSingleInvocationMean,
        Methodology::NaiveBestOfAll,
        Methodology::NaiveLastIteration,
        Methodology::NaivePooled,
    };
    return all;
}

RigorousEstimate
rigorousEstimate(const RunResult &run, double confidence)
{
    // With fault-tolerant execution a run can legitimately end up with
    // zero successful invocations (everything failed or the workload
    // was quarantined). That is a reportable condition, not a bug.
    if (run.invocations.empty())
        fatal("rigorousEstimate: run of %s has no successful "
              "invocations (%zu failure(s)%s)",
              run.workload.c_str(), run.failures.size(),
              run.quarantined ? ", quarantined" : "");

    RigorousEstimate out;
    out.steadyState = analyzeSteadyState(run);
    out.invocationMeans = stats::invocationMeans(
        steadyStateSeries(run, out.steadyState));
    out.ci = stats::tInterval(out.invocationMeans, confidence);
    return out;
}

double
pointEstimate(const RunResult &run, Methodology m)
{
    if (run.invocations.empty())
        panic("pointEstimate: empty run");
    const auto &first_inv = run.invocations.front();
    switch (m) {
      case Methodology::RigorousMeanOfMeans:
        return rigorousEstimate(run).ci.estimate;
      case Methodology::NaiveFirstIteration:
        return first_inv.samples.front().timeMs;
      case Methodology::NaiveSingleInvocationMean:
        return stats::mean(first_inv.times());
      case Methodology::NaiveBestOfAll: {
        double best = first_inv.samples.front().timeMs;
        for (const auto &inv : run.invocations)
            for (const auto &s : inv.samples)
                best = std::min(best, s.timeMs);
        return best;
      }
      case Methodology::NaiveLastIteration:
        return first_inv.samples.back().timeMs;
      case Methodology::NaivePooled:
        return stats::mean(stats::flatten(run.series()));
    }
    panic("pointEstimate: bad methodology");
}

SpeedupResult
speedupFromEstimates(const RigorousEstimate &baseline,
                     const RigorousEstimate &optimized, double confidence)
{
    SpeedupResult out;
    out.ci = stats::ratioOfMeansInterval(baseline.invocationMeans,
                                         optimized.invocationMeans,
                                         confidence);
    out.significant = baseline.invocationMeans.size() >= 2 &&
        optimized.invocationMeans.size() >= 2 && !out.ci.contains(1.0);
    return out;
}

SpeedupResult
rigorousSpeedup(const RunResult &baseline, const RunResult &optimized,
                double confidence)
{
    return speedupFromEstimates(rigorousEstimate(baseline, confidence),
                                rigorousEstimate(optimized, confidence),
                                confidence);
}

double
naiveSpeedup(const RunResult &baseline, const RunResult &optimized,
             Methodology m)
{
    double b = pointEstimate(baseline, m);
    double o = pointEstimate(optimized, m);
    if (o <= 0.0)
        panic("naiveSpeedup: non-positive optimized estimate");
    return b / o;
}

stats::ConfidenceInterval
geomeanSpeedup(const std::vector<SpeedupResult> &speedups,
               double confidence)
{
    std::vector<double> points;
    points.reserve(speedups.size());
    for (const auto &s : speedups)
        points.push_back(s.ci.estimate);
    return stats::geomeanInterval(points, confidence);
}

PairwiseComparison
compareRuntimes(const std::vector<RigorousEstimate> &estimates,
                double confidence)
{
    size_t n = estimates.size();
    if (n < 2)
        panic("compareRuntimes: need at least 2 runtimes");

    PairwiseComparison out;
    out.speedup.assign(n, std::vector<SpeedupResult>(n));
    for (size_t i = 0; i < n; ++i) {
        for (size_t j = 0; j < n; ++j) {
            if (i == j) {
                SpeedupResult self;
                self.ci = {1.0, 1.0, 1.0, confidence};
                self.significant = false;
                out.speedup[i][j] = self;
                continue;
            }
            out.speedup[i][j] = speedupFromEstimates(
                estimates[i], estimates[j], confidence);
        }
    }

    // Tie-aware ranking: sort by point estimate (ascending time is
    // better); a runtime shares the previous rank when its pairwise
    // comparison with the previous runtime is not significant.
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return estimates[a].ci.estimate < estimates[b].ci.estimate;
    });
    out.rank.assign(n, 0);
    int current_rank = 1;
    for (size_t pos = 0; pos < n; ++pos) {
        if (pos > 0 &&
            out.speedup[order[pos - 1]][order[pos]].significant)
            current_rank = static_cast<int>(pos) + 1;
        out.rank[order[pos]] = current_rank;
    }
    return out;
}

stats::VarianceComponents
varianceDecomposition(const RunResult &run)
{
    auto steady_series =
        steadyStateSeries(run, analyzeSteadyState(run));
    // A window too short for a within-invocation variance falls back
    // to the whole series.
    for (size_t i = 0; i < steady_series.size(); ++i)
        if (steady_series[i].size() < 2)
            steady_series[i] = run.invocations[i].times();
    return stats::decomposeVariance(steady_series);
}

} // namespace harness
} // namespace rigor

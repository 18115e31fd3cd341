/**
 * @file
 * The rigorous analysis methodology, plus the naive methodologies it
 * is compared against.
 *
 * Rigorous pipeline: (1) per-invocation steady-state detection via
 * changepoint segmentation, (2) per-invocation steady-state means as
 * replication units, (3) Student-t confidence interval over those
 * means, (4) speedups as ratio-of-means intervals, (5) suite-level
 * geometric-mean speedup with its own interval.
 *
 * Naive methodologies deliberately reproduce common bad practice
 * (single invocation, first iteration, best-of-K, pooling all
 * iterations as independent) so experiments can quantify how far
 * their conclusions drift.
 */

#ifndef RIGOR_HARNESS_ANALYSIS_HH
#define RIGOR_HARNESS_ANALYSIS_HH

#include <string>
#include <vector>

#include "harness/measurement.hh"
#include "stats/ci.hh"
#include "stats/hierarchy.hh"
#include "stats/steady_state.hh"

namespace rigor {
namespace harness {

/** Per-run steady-state summary. */
struct SteadyStateSummary
{
    /** One detector result per invocation. */
    std::vector<stats::SteadyStateResult> perInvocation;
    /** Invocation count per series class. */
    int flat = 0;
    int warmup = 0;
    int slowdown = 0;
    int noSteadyState = 0;
    /** Mean first-steady iteration over invocations that have one. */
    double meanSteadyStart = 0.0;
    /** Max steady start (conservative warmup cut). */
    size_t maxSteadyStart = 0;
};

/** Run the steady-state detector on every invocation. */
SteadyStateSummary analyzeSteadyState(
    const RunResult &run, const stats::SteadyStateOptions &opts = {});

/**
 * The warmup cut: invocation `i`'s first steady-state iteration, where
 * every steady-state estimate starts reading it. 0 (the whole series)
 * when the detector found no steady state or the start is past the
 * end; such invocations are counted in the summary, not discarded.
 * `summary` is analyzeSteadyState(run).
 */
size_t steadyStateStart(const RunResult &run,
                        const SteadyStateSummary &summary, size_t i);

/**
 * Each invocation's times from its steadyStateStart(): the two-level
 * sample the rigorous estimate and the archive comparison read.
 */
std::vector<std::vector<double>> steadyStateSeries(
    const RunResult &run, const SteadyStateSummary &summary);

/** Estimation methodologies compared in the experiments. */
enum class Methodology
{
    RigorousMeanOfMeans,      ///< the paper's recommendation
    NaiveFirstIteration,      ///< one invocation, iteration 0
    NaiveSingleInvocationMean,///< mean of one invocation's iterations
    NaiveBestOfAll,           ///< min over everything ("peak perf")
    NaiveLastIteration,       ///< one invocation, last iteration
    NaivePooled,              ///< all iterations pooled as i.i.d.
};

/** Short name of a methodology. */
const char *methodologyName(Methodology m);

/** All methodologies, for sweep experiments. */
const std::vector<Methodology> &allMethodologies();

/** Outcome of a rigorous estimate. */
struct RigorousEstimate
{
    stats::ConfidenceInterval ci;
    SteadyStateSummary steadyState;
    /** Per-invocation steady-state means (replication units). */
    std::vector<double> invocationMeans;
};

/**
 * The rigorous estimator: steady-state portion of each invocation,
 * then a t-interval over invocation means. Invocations that never
 * reach steady state fall back to their full-series mean and are
 * counted in the summary.
 */
RigorousEstimate rigorousEstimate(const RunResult &run,
                                  double confidence = 0.95);

/**
 * Point estimate under a (possibly naive) methodology. For
 * RigorousMeanOfMeans this is rigorousEstimate().ci.estimate.
 */
double pointEstimate(const RunResult &run, Methodology m);

/** A speedup of `optimized` over `baseline` with its interval. */
struct SpeedupResult
{
    stats::ConfidenceInterval ci;
    /**
     * True if the interval excludes 1.0 and both sides rest on at
     * least 2 invocation means (one invocation has no interval).
     */
    bool significant = false;
};

/**
 * The speedup rule: baseline/optimized (>1 means optimized is faster)
 * as the log-Welch ratio-of-means interval over the two estimates'
 * steady-state invocation means.
 */
SpeedupResult speedupFromEstimates(const RigorousEstimate &baseline,
                                   const RigorousEstimate &optimized,
                                   double confidence = 0.95);

/**
 * speedupFromEstimates() of the two runs' rigorousEstimate()s.
 */
SpeedupResult rigorousSpeedup(const RunResult &baseline,
                              const RunResult &optimized,
                              double confidence = 0.95);

/** Speedup point estimate under a naive methodology. */
double naiveSpeedup(const RunResult &baseline,
                    const RunResult &optimized, Methodology m);

/**
 * Suite-level geometric-mean speedup with a confidence interval over
 * the per-benchmark speedup point estimates.
 */
stats::ConfidenceInterval geomeanSpeedup(
    const std::vector<SpeedupResult> &speedups,
    double confidence = 0.95);

/**
 * Variance decomposition (between- vs within-invocation) over the
 * steady-state portion of each invocation.
 */
stats::VarianceComponents varianceDecomposition(const RunResult &run);

/** Outcome of an all-pairs runtime comparison. */
struct PairwiseComparison
{
    /** speedup[i][j]: how much faster j is than i (ratio CI). */
    std::vector<std::vector<SpeedupResult>> speedup;
    /**
     * rank[i]: 1-based rank of runtime i by point estimate, where
     * runtimes whose comparison interval includes 1.0 share a rank
     * (statistical ties are reported, not hidden).
     */
    std::vector<int> rank;
};

/**
 * Compare any number of runtimes' rigorous estimates of the *same*
 * workload: all-pairs speedup intervals (speedupFromEstimates) plus a
 * tie-aware ranking. This is what a rigorous "which runtime wins"
 * table should be built from.
 */
PairwiseComparison compareRuntimes(
    const std::vector<RigorousEstimate> &estimates,
    double confidence = 0.95);

} // namespace harness
} // namespace rigor

#endif // RIGOR_HARNESS_ANALYSIS_HH

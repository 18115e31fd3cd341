/**
 * @file
 * Statistical comparison of two archived runs, and the regression
 * gate built on top of it.
 *
 * Given a baseline entry A and a candidate entry B, the engine pairs
 * their runs by (workload, tier) and computes a per-pair speedup
 * ratio with a *hierarchical bootstrap* confidence interval that
 * respects the invocation→iteration nesting (invocations are
 * resampled first, then iterations within each chosen invocation).
 * Comparing mean-of-all-iterations against mean-of-all-iterations
 * would treat correlated iterations as independent and produce
 * overconfident verdicts — the exact failure mode the source paper
 * documents for cross-runtime comparisons.
 *
 * Every verdict is honest about uncertainty: when the interval
 * straddles 1.0 the comparison is *inconclusive*, never rounded to
 * "no change". The gate only fails when the entire interval sits
 * beyond the regression threshold at the configured confidence.
 *
 * All resampling is driven by a seeded, portable PRNG keyed on the
 * (workload, tier) pair, so reports are byte-identical across
 * repeats, platforms, and the --jobs value of the source runs.
 */

#ifndef RIGOR_COMPARE_COMPARE_HH
#define RIGOR_COMPARE_COMPARE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "archive/archive.hh"
#include "stats/ci.hh"
#include "support/json.hh"

namespace rigor {
namespace compare {

/** Knobs of the comparison engine. */
struct CompareConfig
{
    /** Confidence level of every interval and the gate decision. */
    double confidence = 0.95;
    /** Hierarchical bootstrap resamples per (workload, tier) pair. */
    int resamples = 2000;
    /** Master seed; per-pair resampling streams derive from it. */
    uint64_t seed = 0xc0ffee;
    /**
     * Cross-tier pairing. When both are set (tier names), the
     * baseline entry contributes only its baselineTier runs and the
     * candidate only its candidateTier runs, paired by workload alone
     * — e.g. baselineTier="interp", candidateTier="threaded" asks
     * "what does the threaded tier buy over the interpreter?". Empty
     * (the default) keeps the by-(workload, tier) pairing. Setting
     * only one of the two is an error.
     */
    std::string baselineTier, candidateTier;
};

/** What a speedup interval allows us to claim. */
enum class Verdict
{
    Faster,        ///< whole CI above 1.0: candidate is faster
    Slower,        ///< whole CI below 1.0: candidate is slower
    Inconclusive,  ///< CI straddles 1.0: no honest claim possible
};

/** Short name: "faster" / "slower" / "inconclusive". */
const char *verdictName(Verdict v);

/**
 * Magnitude classification of the point speedup, by |log ratio|:
 * negligible < 1%, small < 5%, medium < 15%, large otherwise.
 * Orthogonal to the verdict — a 0.5% change can be statistically
 * certain yet practically negligible, and vice versa.
 */
enum class EffectSize
{
    Negligible,
    Small,
    Medium,
    Large,
};

/** Short name: "negligible" / "small" / "medium" / "large". */
const char *effectSizeName(EffectSize e);

/** Classify a speedup ratio into an EffectSize band. */
EffectSize classifyEffect(double speedup);

/** Comparison of one (workload, tier) pair present in both entries. */
struct WorkloadComparison
{
    std::string workload;
    std::string tier;
    /** Steady-state mean-of-means time, baseline entry (ms). */
    double baselineMs = 0.0;
    /** Steady-state mean-of-means time, candidate entry (ms). */
    double candidateMs = 0.0;
    /**
     * Speedup of the candidate over the baseline
     * (baselineMs / candidateMs as a ratio CI; > 1 means faster).
     */
    stats::ConfidenceInterval speedup;
    Verdict verdict = Verdict::Inconclusive;
    EffectSize effect = EffectSize::Negligible;
    size_t baselineInvocations = 0;
    size_t candidateInvocations = 0;

    /**
     * True when both sides hold at least 2 invocations. A bootstrap
     * inside one invocation sees only iteration jitter, so without
     * this the verdict is inconclusive and the gate ignores the pair.
     */
    bool
    hasInterval() const
    {
        return baselineInvocations >= 2 && candidateInvocations >= 2;
    }
};

/** Full outcome of comparing two archive entries. */
struct CompareReport
{
    /** How the entries were named on the command line. */
    std::string baselineRef, candidateRef;
    /** Archive ids of the resolved entries. */
    int baselineId = 0, candidateId = 0;
    std::string baselineFingerprint, candidateFingerprint;
    /**
     * True when the configurations are identical. A false value is
     * not an error — comparing different jitThresholds or fault
     * plans is the A/B use case — but it is always surfaced, because
     * "did performance change?" and "did the experiment change?" must
     * never be conflated silently.
     */
    bool sameConfig = false;
    double confidence = 0.95;
    int resamples = 0;
    uint64_t seed = 0;
    /**
     * The cross-tier pairing this report was computed under (empty
     * for the default by-(workload, tier) pairing). Pair tiers then
     * read "baselineTier->candidateTier".
     */
    std::string baselineTier, candidateTier;
    /** Pairs in both entries, sorted by (workload, tier). */
    std::vector<WorkloadComparison> workloads;
    /** "(workload, tier)" keys present in only one entry. */
    std::vector<std::string> baselineOnly, candidateOnly;
    /** Geometric-mean speedup over the compared pairs. */
    stats::ConfidenceInterval geomean;
    bool geomeanValid = false;
};

/**
 * Compare candidate against baseline. Pairs runs by (workload, tier);
 * quarantined or failure-scarred runs still compare as long as they
 * hold at least one successful invocation.
 * @throws FatalError when the entries share no comparable pair.
 */
CompareReport compareEntries(const archive::Entry &baseline,
                             const archive::Entry &candidate,
                             const CompareConfig &cfg);

/** Render the report as a Markdown document (tables + verdicts). */
std::string renderMarkdown(const CompareReport &report);

/** Machine-readable report (schema rigorbench-compare v1). */
Json reportToJson(const CompareReport &report);

/** One workload pair whose whole CI regressed past the threshold. */
struct Regression
{
    std::string workload;
    std::string tier;
    /** Point slowdown in percent (1/speedup - 1, as a percentage). */
    double slowdownPct = 0.0;
    stats::ConfidenceInterval speedup;
};

/** Outcome of gating a report against a regression threshold. */
struct GateResult
{
    bool pass = true;
    double thresholdPct = 0.0;
    /** Failing pairs, worst (largest point slowdown) first. */
    std::vector<Regression> regressions;
};

/**
 * Fail iff any pair's *entire* speedup interval shows the candidate
 * slower than the baseline by more than thresholdPct percent — a
 * point estimate past the threshold with an interval that still
 * reaches back inside it stays a pass (possibly-noise is not a
 * verdict). Inconclusive and faster pairs always pass, and so does a
 * pair without an interval (WorkloadComparison::hasInterval).
 */
GateResult evaluateGate(const CompareReport &report,
                        double thresholdPct);

/** Human-readable gate summary (one line per regression). */
std::string renderGate(const GateResult &gate,
                       const CompareReport &report);

} // namespace compare
} // namespace rigor

#endif // RIGOR_COMPARE_COMPARE_HH

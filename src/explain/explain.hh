/**
 * @file
 * Differential profiling: attribute a measured performance ratio to
 * behavior-level causes.
 *
 * Given two archived entries and their statistical comparison, the
 * engine diffs the per-(workload, tier) behavior profiles and splits
 * the measured slowdown into named components, each expressed as a
 * percentage of the baseline's steady-state iteration time:
 *
 *  - opcode-mix: change in retired micro-ops per iteration (which
 *    opcodes gained/lost dynamic share, weighted by uop cost),
 *    divided by the issue width;
 *  - tier/deopt: JIT-compilation uops plus guard-failure (deopt)
 *    penalties — the cost of *being on a different tier residency*;
 *  - branch: conditional-branch and interpreter-dispatch mispredict
 *    penalties;
 *  - cache: L1I refill penalty plus overlap-scaled data-cache miss
 *    latency (L2/LLC/DRAM decomposition).
 *
 * The components never silently absorb what they cannot see: the
 * difference between the measured ratio and the sum of attributed
 * components is reported as an explicit *unattributed remainder*
 * (noise, steady-state windowing, setup-vs-iteration window skew).
 *
 * Everything is computed from archived integers with fixed-order
 * arithmetic, so reports are byte-identical across repeats and across
 * the --jobs value of the source runs.
 */

#ifndef RIGOR_EXPLAIN_EXPLAIN_HH
#define RIGOR_EXPLAIN_EXPLAIN_HH

#include <string>
#include <vector>

#include "archive/archive.hh"
#include "compare/compare.hh"
#include "explain/behavior_profile.hh"
#include "support/json.hh"

namespace rigor {
namespace explain {

/** One named attribution component of a pair's time difference. */
struct Component
{
    /** "opcode-mix", "tier/deopt", "branch" or "cache". */
    std::string name;
    /** Modelled cycles per iteration charged to this component. */
    double baselineCyclesPerIter = 0.0;
    double candidateCyclesPerIter = 0.0;
    /**
     * Share of the measured difference, as percent of the baseline's
     * steady-state iteration time (positive = candidate slower).
     */
    double contributionPct = 0.0;
};

/** One opcode whose dynamic uop share moved between the entries. */
struct OpMover
{
    std::string op;
    /** Contribution percent (same scale as Component). */
    double contributionPct = 0.0;
    /** Dynamic executions per iteration on each side. */
    double baselineCountPerIter = 0.0;
    double candidateCountPerIter = 0.0;
    /** Uops per iteration on each side. */
    double baselineUopsPerIter = 0.0;
    double candidateUopsPerIter = 0.0;
};

/** Attribution of one paired (workload, tier). */
struct PairExplanation
{
    std::string workload;
    std::string tier;
    /** False when either side lacks an archived behavior profile. */
    bool hasProfiles = false;
    /** Loud degradation note when hasProfiles is false. */
    std::string note;

    /** Measured steady-state change, percent (> 0 = slower). */
    double measuredPct = 0.0;
    stats::ConfidenceInterval speedup;
    /**
     * False when a side holds one invocation
     * (compare::WorkloadComparison::hasInterval): `speedup` then has
     * an estimate but no interval.
     */
    bool hasInterval = false;
    std::string verdict;

    /** Components ranked by |contribution| (ties: fixed order). */
    std::vector<Component> components;
    /** measuredPct minus the sum of component contributions. */
    double unattributedPct = 0.0;
    /** Top opcodes by |uop-share movement|, ranked. */
    std::vector<OpMover> movers;

    // --- evidence (per-iteration rates on each side) -----------------
    double baselineGuardsPerIter = 0.0, candidateGuardsPerIter = 0.0;
    /** Opcode with the largest guard-failure movement ("" if none). */
    std::string topGuardOp;
    uint64_t baselineJitCompiles = 0, candidateJitCompiles = 0;
    /** Share of bytecodes executed via interpreter dispatch. */
    double baselineDispatchShare = 0.0,
           candidateDispatchShare = 0.0;
    /** L1d miss rate in percent of L1d accesses. */
    double baselineL1dMissPct = 0.0, candidateL1dMissPct = 0.0;
};

/** Full differential report between two archive entries. */
struct ExplainReport
{
    std::string baselineRef, candidateRef;
    int baselineId = 0, candidateId = 0;
    std::string baselineFingerprint, candidateFingerprint;
    bool sameConfig = false;
    /** Pairs in (workload, tier) order — same order as the compare
     *  report they were derived from. */
    std::vector<PairExplanation> pairs;
    std::vector<std::string> baselineOnly, candidateOnly;
};

/**
 * Attribute every pair of `report` using the profiles archived in the
 * two entries. `report` must have been produced by
 * compare::compareEntries on the same two entries.
 */
ExplainReport explainEntries(const archive::Entry &baseline,
                             const archive::Entry &candidate,
                             const compare::CompareReport &report);

/** Render the full report as Markdown. */
std::string renderMarkdown(const ExplainReport &report);

/** Render one pair's section (used by `gate --explain`). */
std::string renderPair(const PairExplanation &pair);

/** One-line summary, e.g. "8.3% slower — tier/deopt +5.2%, ...". */
std::string headline(const PairExplanation &pair);

/** Machine-readable report (schema rigorbench-explain v1). */
Json reportToJson(const ExplainReport &report);

/** Find a pair by (workload, tier); nullptr when absent. */
const PairExplanation *findPair(const ExplainReport &report,
                                const std::string &workload,
                                const std::string &tier);

} // namespace explain
} // namespace rigor

#endif // RIGOR_EXPLAIN_EXPLAIN_HH

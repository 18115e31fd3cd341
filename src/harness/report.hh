/**
 * @file
 * Report formatting: confidence-interval strings, ASCII sparkline
 * "figures" for per-iteration series, and CSV/JSON export of run
 * results so external plotting can regenerate the paper's figures.
 */

#ifndef RIGOR_HARNESS_REPORT_HH
#define RIGOR_HARNESS_REPORT_HH

#include <array>
#include <ostream>
#include <string>

#include "harness/analysis.hh"
#include "harness/measurement.hh"
#include "stats/ci.hh"
#include "support/json.hh"

namespace rigor {
namespace harness {

/**
 * Printed in place of an interval resting on one invocation: its zero
 * (or within-invocation only) width would read as a precise result.
 */
inline constexpr const char *kNoInterval = "interval needs 2 invocations";

/** "12.345 [12.1, 12.6]" with the given decimal places. */
std::string formatCi(const stats::ConfidenceInterval &ci, int places);

/** "12.345 ± 2.1%" style rendering. */
std::string formatCiPercent(const stats::ConfidenceInterval &ci,
                            int places);

/**
 * Render a numeric series as an ASCII chart, one row per output line:
 * values are min-max scaled onto `height` levels of '#' columns.
 */
std::string asciiSeries(const std::vector<double> &values,
                        int height = 8, int max_width = 72);

/** Compact one-line sparkline using block characters. */
std::string sparkline(const std::vector<double> &values,
                      int max_width = 64);

/** Write one run's per-iteration samples as CSV rows. */
void writeSeriesCsv(std::ostream &os, const RunResult &run);

/** Full JSON dump of a run (times + counters per iteration). */
Json runToJson(const RunResult &run);

/**
 * Rebuild a RunResult from runToJson() output. Only the fields the
 * analyses need (times and cycle counts) are restored; per-iteration
 * counter details and VM stats are not serialized. Enables offline
 * re-analysis of archived measurements.
 * @throws FatalError / PanicError on malformed documents.
 */
RunResult runFromJson(const Json &doc);

/** One tier a suite measures. */
struct SuiteTier
{
    vm::Tier tier;
    /**
     * Resume-state key of the speedup over the baseline (null for the
     * baseline). The keys predate the list, so each is spelled out.
     */
    const char *speedupKey;
};

/**
 * The tiers a suite measures, in execution order. The first entry is
 * the baseline every speedup is taken against. The order is part of
 * the resume-state contract: checkpoints identify the tier in flight
 * by name, and a resumed process walks this list to find where the
 * interrupted one stopped.
 */
inline constexpr SuiteTier kSuiteTiers[] = {
    {vm::Tier::Interp, nullptr},
    {vm::Tier::Adaptive, "speedup"},
    {vm::Tier::Threaded, "threaded_speedup"},
};
inline constexpr size_t kSuiteTierCount = std::size(kSuiteTiers);

/**
 * Per-workload entry of a (possibly partial) suite run. `failed` means
 * no usable estimate exists for the workload; a quarantined or
 * failure-scarred workload that still produced estimates keeps its
 * numbers and is flagged instead.
 */
struct SuiteWorkloadState
{
    std::string name;
    bool failed = false;
    bool quarantined = false;
    /** Invocation failures recorded across all tiers. */
    int failureCount = 0;
    /** Modelled ms spent measuring this workload (all tiers). */
    double modelledMs = 0.0;
    /** Estimated ms per iteration, one per kSuiteTiers entry. */
    std::array<double, kSuiteTierCount> tierMs{};
    /** Speedup over the baseline; [i] is kSuiteTiers[i + 1]'s. */
    std::array<SpeedupResult, kSuiteTierCount - 1> speedups;
};

/**
 * Persistent state of a suite run, written after every workload so an
 * interrupted suite can be resumed (`rigorbench suite --resume FILE`)
 * without re-measuring completed workloads. The design parameters are
 * stored so a resume with mismatched parameters is rejected rather
 * than silently mixing incomparable measurements.
 */
struct SuiteState
{
    uint64_t seed = 0;
    int invocations = 0;
    int iterations = 0;

    std::vector<SuiteWorkloadState> workloads;

    /** Entry for a workload, or nullptr if not yet measured. */
    const SuiteWorkloadState *find(const std::string &name) const;
};

/** Serialize suite state (JSON round-trips via suiteStateFromJson). */
Json suiteStateToJson(const SuiteState &state);

/** Rebuild suite state; throws FatalError/PanicError on bad input. */
SuiteState suiteStateFromJson(const Json &doc);

} // namespace harness
} // namespace rigor

#endif // RIGOR_HARNESS_REPORT_HH

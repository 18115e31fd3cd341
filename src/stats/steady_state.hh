/**
 * @file
 * Warmup and steady-state detection for per-iteration timing series.
 *
 * Managed runtimes (JIT-compiled Python in particular) exhibit an
 * initial warmup phase before reaching steady state — and sometimes
 * never reach one. The rigorous methodology detects the warmup/steady
 * boundary per VM invocation instead of discarding a fixed number of
 * iterations, and classifies pathological series (no steady state,
 * slowdown over time) so they are reported rather than silently
 * averaged away. The approach follows Kalibera & Jones and Barrett et
 * al. (OOPSLA'17): changepoint segmentation of the series plus rules
 * over the segment means.
 */

#ifndef RIGOR_STATS_STEADY_STATE_HH
#define RIGOR_STATS_STEADY_STATE_HH

#include <cstddef>
#include <vector>

namespace rigor {
namespace stats {

/** Classification of a per-iteration timing series. */
enum class SeriesClass
{
    Flat,           ///< no warmup: steady from the first iteration
    Warmup,         ///< initial slow phase, then steady state
    Slowdown,       ///< gets *slower* over time (pathological)
    NoSteadyState,  ///< oscillates between levels; no stable segment
};

/** One segment of a piecewise-constant fit. */
struct Segment
{
    size_t begin = 0;   ///< first index (inclusive)
    size_t end = 0;     ///< one past the last index
    double mean = 0.0;
    double variance = 0.0;

    size_t length() const { return end - begin; }
};

/** Outcome of steady-state analysis of one invocation's series. */
struct SteadyStateResult
{
    SeriesClass classification = SeriesClass::Flat;
    /** First iteration considered steady (== series length if none). */
    size_t steadyStart = 0;
    /** Piecewise-constant segmentation of the series. */
    std::vector<Segment> segments;
    /** Mean of the steady-state portion (0 if none). */
    double steadyMean = 0.0;

    /** True if a usable steady state was found. */
    bool
    hasSteadyState() const
    {
        return classification != SeriesClass::NoSteadyState;
    }
};

/** Tuning knobs for the detector. */
struct SteadyStateOptions
{
    /** Penalty multiplier for adding a changepoint (BIC-like). */
    double penaltyFactor = 3.0;
    /** Minimum segment length considered. */
    size_t minSegmentLength = 3;
    /**
     * Two adjacent segment means closer than this relative tolerance
     * are considered equivalent levels.
     */
    double equivalenceTolerance = 0.05;
    /**
     * The final segment must cover at least this fraction of the
     * series to count as a steady state.
     */
    double minSteadyFraction = 0.2;
};

/**
 * Changepoint segmentation by binary splitting with a BIC-style
 * penalty: each split must reduce the within-segment sum of squared
 * error by more than penaltyFactor * variance * log(n).
 */
std::vector<Segment> segmentSeries(const std::vector<double> &xs,
                                   const SteadyStateOptions &opts = {});

/**
 * Full steady-state analysis: segment the series, then classify it and
 * locate the steady-state start per the rules described above.
 */
SteadyStateResult detectSteadyState(const std::vector<double> &xs,
                                    const SteadyStateOptions &opts = {});

} // namespace stats
} // namespace rigor

#endif // RIGOR_STATS_STEADY_STATE_HH

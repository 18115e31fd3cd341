/**
 * @file
 * parallelFor: run independent items on the calling thread plus a few
 * helper threads, for work whose side effects the caller commits
 * afterwards in its own order ("verify in parallel, commit in
 * order").
 *
 * Helpers come from one process-wide budget of
 * std::thread::hardware_concurrency() - 1 live threads. When the
 * budget is used up (say, by other daemon connections running
 * queries at the same time) the caller does all the work itself, so
 * concurrent callers never multiply threads. The caller always works
 * too, so a call can never wait for a helper that does not come.
 *
 * The items must be independent: fn(i) writes only what belongs to
 * item i, and calls neither fsOps() nor warn()/inform(). A helper
 * thread has none of the caller's thread-local log sink or quiet
 * setting, and the FsOps seam is not thread-safe.
 */

#ifndef RIGOR_SUPPORT_PARALLEL_HH
#define RIGOR_SUPPORT_PARALLEL_HH

#include <cstddef>
#include <functional>

namespace rigor {

/**
 * Run fn(i) for every i in [0, n), on the calling thread and up to
 * n - 1 helper threads drawn from the process-wide budget. Returns
 * after every item ran and every helper was joined and returned to
 * the budget. An exception thrown by fn(i) is kept for item i and
 * the other items still run; afterwards the exception of the lowest
 * such i is rethrown, so a caller sees the error a serial loop over
 * the items would have stopped at.
 */
void parallelFor(size_t n, const std::function<void(size_t)> &fn);

/** Helper threads parallelFor may run at once, process-wide. */
int helperBudget();

/** Helper threads drawn from the budget right now, process-wide. */
int liveHelpers();

} // namespace rigor

#endif // RIGOR_SUPPORT_PARALLEL_HH

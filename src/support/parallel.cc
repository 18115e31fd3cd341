#include "support/parallel.hh"

#include <algorithm>
#include <atomic>
#include <climits>
#include <exception>
#include <thread>
#include <vector>

namespace rigor {

namespace {

/** Helpers drawn from the budget, by every parallelFor in the process. */
std::atomic<int> liveCount{0};

/** Draw up to `want` helpers from the budget; returns how many. */
int
drawHelpers(int want)
{
    int budget = helperBudget();
    int live = liveCount.load();
    for (;;) {
        int take = std::min(want, budget - live);
        if (take <= 0)
            return 0;
        if (liveCount.compare_exchange_weak(live, live + take))
            return take;
    }
}

} // namespace

int
helperBudget()
{
    static const int budget =
        std::max(0, static_cast<int>(std::thread::hardware_concurrency()) -
                        1);
    return budget;
}

int
liveHelpers()
{
    return liveCount.load();
}

void
parallelFor(size_t n, const std::function<void(size_t)> &fn)
{
    std::vector<std::exception_ptr> errors(n);
    std::atomic<size_t> next{0};
    auto work = [&] {
        for (size_t i; (i = next.fetch_add(1)) < n;) {
            try {
                fn(i);
            } catch (...) {
                errors[i] = std::current_exception();
            }
        }
    };

    std::vector<std::thread> helpers;
    int drawn = drawHelpers(
        static_cast<int>(std::min<size_t>(n > 0 ? n - 1 : 0, INT_MAX)));
    try {
        helpers.reserve(static_cast<size_t>(drawn));
        for (int h = 0; h < drawn; ++h)
            helpers.emplace_back(work);
    } catch (...) {
        // No more threads to be had: the caller and the helpers that
        // did start share the work.
    }
    work();
    for (auto &t : helpers)
        t.join();
    liveCount.fetch_sub(drawn);

    for (auto &e : errors)
        if (e)
            std::rethrow_exception(e);
}

} // namespace rigor

#include "spans.hh"

#include <algorithm>
#include <chrono>
#include <cmath>

#include <sys/resource.h>

namespace selfbench {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

namespace {

/** Open spans of the calling thread, innermost last. */
thread_local std::vector<int> tOpen;

} // namespace

void
Recorder::setPrefix(const std::string &prefix)
{
    std::lock_guard<std::mutex> g(mu_);
    prefix_ = prefix;
}

int
Recorder::begin(const char *name)
{
    if (!enabled_)
        return -1;
    std::lock_guard<std::mutex> g(mu_);
    Span s;
    s.name = prefix_ + name;
    s.parent = tOpen.empty() ? -1 : tOpen.back();
    s.begin = nowSeconds();
    spans_.push_back(std::move(s));
    int idx = static_cast<int>(spans_.size() - 1);
    tOpen.push_back(idx);
    return idx;
}

void
Recorder::end(int index)
{
    if (index < 0)
        return;
    double t = nowSeconds();
    std::lock_guard<std::mutex> g(mu_);
    Span &s = spans_[static_cast<size_t>(index)];
    s.end = t;
    if (s.parent >= 0)
        spans_[static_cast<size_t>(s.parent)].childSeconds += s.seconds();
    if (!tOpen.empty() && tOpen.back() == index)
        tOpen.pop_back();
}

void
Recorder::addSpan(const char *name, double begin, double end)
{
    if (!enabled_)
        return;
    std::lock_guard<std::mutex> g(mu_);
    Span s;
    s.name = prefix_ + name;
    s.parent = tOpen.empty() ? -1 : tOpen.back();
    s.begin = begin;
    s.end = end;
    if (s.parent >= 0)
        spans_[static_cast<size_t>(s.parent)].childSeconds += s.seconds();
    spans_.push_back(std::move(s));
}

void
Recorder::count(const std::string &name, double n)
{
    std::lock_guard<std::mutex> g(mu_);
    counters_[prefix_ + name] += n;
}

void
Recorder::sample(const std::string &name, double value)
{
    std::lock_guard<std::mutex> g(mu_);
    samples_[prefix_ + name].push_back(value);
}

bool
Recorder::has(const std::string &name) const
{
    std::lock_guard<std::mutex> g(mu_);
    if (counters_.count(name) || samples_.count(name))
        return true;
    for (const auto &s : spans_)
        if (s.name == name && s.end > 0.0)
            return true;
    return false;
}

double
Recorder::counter(const std::string &name) const
{
    std::lock_guard<std::mutex> g(mu_);
    auto it = counters_.find(name);
    return it == counters_.end() ? 0.0 : it->second;
}

std::vector<double>
Recorder::samples(const std::string &name) const
{
    std::lock_guard<std::mutex> g(mu_);
    auto it = samples_.find(name);
    return it == samples_.end() ? std::vector<double>{} : it->second;
}

std::vector<double>
Recorder::durations(const std::string &name) const
{
    std::lock_guard<std::mutex> g(mu_);
    std::vector<double> out;
    for (const auto &s : spans_)
        if (s.name == name && s.end > 0.0)
            out.push_back(s.seconds());
    return out;
}

double
Recorder::totalSeconds(const std::string &name) const
{
    double sum = 0.0;
    for (double d : durations(name))
        sum += d;
    return sum;
}

std::map<std::string, double>
Recorder::selfSecondsByName() const
{
    std::lock_guard<std::mutex> g(mu_);
    std::map<std::string, double> out;
    for (const auto &s : spans_)
        if (s.end > 0.0)
            out[s.name] += s.selfSeconds();
    return out;
}

Recorder &
recorder()
{
    static Recorder r;
    return r;
}

// --- TimingFsOps ----------------------------------------------------

TimingFsOps::TimingFsOps()
    : next_(rigor::fsOps()), previous_(rigor::setFsOps(this))
{}

TimingFsOps::~TimingFsOps() { rigor::setFsOps(previous_); }

int
TimingFsOps::open(const char *path, int flags, mode_t mode)
{
    return next_.open(path, flags, mode);
}

ssize_t
TimingFsOps::write(int fd, const void *buf, size_t n)
{
    ssize_t r = next_.write(fd, buf, n);
    if (r > 0 && recorder().enabled())
        recorder().count("support.durable_bytes",
                         static_cast<double>(r));
    return r;
}

int
TimingFsOps::fsync(int fd)
{
    double t0 = nowSeconds();
    int r = next_.fsync(fd);
    if (recorder().enabled())
        recorder().sample("support.fsync_ms", (nowSeconds() - t0) * 1e3);
    return r;
}

int
TimingFsOps::close(int fd)
{
    return next_.close(fd);
}

int
TimingFsOps::rename(const char *from, const char *to)
{
    int r = next_.rename(from, to);
    if (r == 0 && recorder().enabled())
        recorder().count("support.durable_writes", 1.0);
    return r;
}

int
TimingFsOps::unlink(const char *path)
{
    return next_.unlink(path);
}

// --- statistics helpers ---------------------------------------------

double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    double pos = q * static_cast<double>(xs.size() - 1);
    size_t lo = static_cast<size_t>(std::floor(pos));
    size_t hi = std::min(lo + 1, xs.size() - 1);
    double frac = pos - static_cast<double>(lo);
    return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

double
median(std::vector<double> xs)
{
    return quantile(std::move(xs), 0.5);
}

bool
tailValue(std::vector<double> xs, double &value, double &pct)
{
    // Below 21 samples that percentile would sit under the median.
    if (xs.size() < 21)
        return false;
    std::sort(xs.begin(), xs.end());
    size_t idx = xs.size() - 11;
    value = xs[idx];
    pct = 100.0 * static_cast<double>(idx + 1) /
        static_cast<double>(xs.size());
    return true;
}

double
selfPeakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

} // namespace selfbench

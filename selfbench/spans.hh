/**
 * @file
 * Benchmark-owned instrumentation: wall-clock spans around the calls
 * the self-benchmark makes into RigorBench's public functions, named
 * counters and sample lists, and a timing FsOps wrapper.
 *
 * Spans are kept in memory while the run executes and are aggregated
 * only when it ends. Every span records its parent (per thread), so a
 * span's self time is its duration minus the time its direct children
 * cover. When recording is disabled (untraced runs) a span costs one
 * branch and no clock read.
 */

#ifndef SELFBENCH_SPANS_HH
#define SELFBENCH_SPANS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "support/durable_io.hh"

namespace selfbench {

/** Monotonic wall clock in seconds. */
double nowSeconds();

/** One closed (or still open) span. */
struct Span
{
    std::string name;
    /** Index of the enclosing span on the same thread, or -1. */
    int parent = -1;
    double begin = 0.0;
    double end = 0.0;
    /** Summed duration of the direct children. */
    double childSeconds = 0.0;

    double seconds() const { return end - begin; }
    double selfSeconds() const { return seconds() - childSeconds; }
};

/** Process-wide span, counter and sample store (thread-safe). */
class Recorder
{
  public:
    void setEnabled(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /**
     * Prefix for every span, counter and sample recorded from now on
     * ("" for none). The layer sweep records under "sweep." so its
     * figures never mix with the measured workload's.
     */
    void setPrefix(const std::string &prefix);

    /** Open a span; returns its index, or -1 when disabled. */
    int begin(const char *name);
    /** Close the span `begin` returned (no-op for -1). */
    void end(int index);
    /**
     * Record a closed span timed elsewhere (e.g. from a progress
     * callback), as a child of the calling thread's innermost open span.
     */
    void addSpan(const char *name, double begin, double end);

    /** Add to a named counter (recorded even when disabled). */
    void count(const std::string &name, double n);
    /** Append one value to a named sample list. */
    void sample(const std::string &name, double value);

    /** Whether any span, counter or sample is called `name`. */
    bool has(const std::string &name) const;
    double counter(const std::string &name) const;
    std::vector<double> samples(const std::string &name) const;
    /** Durations in seconds of every closed span called `name`. */
    std::vector<double> durations(const std::string &name) const;
    /** Summed duration of every closed span called `name`. */
    double totalSeconds(const std::string &name) const;
    /** Self seconds summed per span name. */
    std::map<std::string, double> selfSecondsByName() const;

  private:
    mutable std::mutex mu_;
    std::atomic<bool> enabled_{false};
    std::string prefix_;
    std::vector<Span> spans_;
    std::map<std::string, double> counters_;
    std::map<std::string, std::vector<double>> samples_;
};

/** The process-wide recorder. */
Recorder &recorder();

/** RAII span on the process-wide recorder. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char *name) : idx_(recorder().begin(name))
    {}
    ~ScopedSpan() { recorder().end(idx_); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    int idx_;
};

/**
 * FsOps wrapper installed with rigor::setFsOps. Forwards every call
 * unchanged to the seam that was active when it was installed and,
 * while the recorder is enabled, records fsync latency
 * ("support.fsync_ms" samples), bytes written ("support.durable_bytes")
 * and completed atomic replacements ("support.durable_writes", one per
 * rename).
 */
class TimingFsOps : public rigor::FsOps
{
  public:
    /** Installs itself; the destructor restores the previous seam. */
    TimingFsOps();
    ~TimingFsOps() override;
    TimingFsOps(const TimingFsOps &) = delete;
    TimingFsOps &operator=(const TimingFsOps &) = delete;

    int open(const char *path, int flags, mode_t mode) override;
    ssize_t write(int fd, const void *buf, size_t n) override;
    int fsync(int fd) override;
    int close(int fd) override;
    int rename(const char *from, const char *to) override;
    int unlink(const char *path) override;

  private:
    rigor::FsOps &next_;
    rigor::FsOps *previous_;
};

// --- small statistics helpers --------------------------------------

/** Median (0 for an empty list). */
double median(std::vector<double> xs);

/** Linear-interpolated quantile q in [0, 1] (0 for an empty list). */
double quantile(std::vector<double> xs, double q);

/**
 * The highest percentile with at least ten samples beyond it: the
 * value at sorted index n - 11. Returns false when there are fewer
 * than 21 samples, where that value would not be a tail at all. `pct`
 * receives the percentile it represents.
 */
bool tailValue(std::vector<double> xs, double &value, double &pct);

/** Peak resident set size of this process in MiB. */
double selfPeakRssMb();

} // namespace selfbench

#endif // SELFBENCH_SPANS_HH

/**
 * @file
 * The self-benchmark's workload interface and the pieces the
 * workloads share.
 *
 * A workload has a set-up (timed several times for setup_s), a round
 * (one fixed unit of work, timed for wall_s; every round of a run does
 * the same work) and a finish step that runs the correctness checks a
 * round cannot do on its own. Each round records the latency of every
 * user-visible operation it performed (op_ms) and accumulates the
 * attempt/failure counts the final result line reports.
 */

#ifndef SELFBENCH_BENCH_HH
#define SELFBENCH_BENCH_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.hh"

namespace selfbench {

/** Command-line options of one benchmark process. */
struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Minimal sizes and a single round (smoke test, layer sweep). */
    bool smoke = false;
    /** Per-process scratch directory (removed when the run ends). */
    std::string workDir;
    /** Directory that persists across runs (digests, results). */
    std::string stateDir;
    /** Path of this executable (the daemon is a child mode of it). */
    std::string selfExe;
};

/** A named value with its unit. */
struct Metric
{
    Metric() = default;
    Metric(double v, std::string u, std::string n = "")
        : value(v), unit(std::move(u)), note(std::move(n))
    {}

    double value = 0.0;
    std::string unit;
    /** Optional note printed beside the value (e.g. percentile). */
    std::string note;
};

/** What a workload accumulates over its rounds. */
struct Outcome
{
    long attempted = 0;
    long failed = 0;
    /** Correctness failures, one message each (fail the run). */
    std::vector<std::string> errors;
    /** Latency of every user-visible operation, in ms. */
    std::vector<double> opMs;
    /** The same latencies by operation: every round repeats each key. */
    std::map<std::string, std::vector<double>> opByKey;

    /** Record one latency of the operation called `key`. */
    void
    addOp(const std::string &key, double ms)
    {
        opMs.push_back(ms);
        opByKey[key].push_back(ms);
    }
    /** Digest of the modelled artifacts of the last round. */
    std::string digest;
    /** Workload-specific end-to-end metrics (human report). */
    std::map<std::string, Metric> extra;
};

class Workload
{
  public:
    Workload() = default;
    virtual ~Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;

    /** Build the state rounds run against (replaces earlier state). */
    virtual void setup() = 0;
    /** Untimed preparation after the last set-up (references etc.). */
    virtual void prepare() {}
    /** One unit of work. */
    virtual void round() = 0;
    /** Untimed housekeeping after each round (keeps rounds equal). */
    virtual void between() {}
    /**
     * Untimed checks and metrics after the last round; `roundWall`
     * holds every round's wall time in seconds.
     */
    virtual void finish(const std::vector<double> &roundWall) = 0;
    /** Release processes and files. */
    virtual void teardown() {}
    /** Set-ups per untraced run; setup_s is their median. */
    virtual int setupRepeats() const { return 3; }
    /** Peak RSS in MiB of the process under test. */
    virtual double peakRssMb() { return selfPeakRssMb(); }

    Outcome out;
};

/** Every workload selfbench can run (the layer sweep runs them all). */
const std::vector<std::string> &workloadNames();

/** Construct a workload by name (nullptr for an unknown name). */
std::unique_ptr<Workload> makeWorkload(const Options &opts);

std::unique_ptr<Workload> makeSuiteWorkload(const Options &opts,
                                            bool observed);
std::unique_ptr<Workload> makeArchiveQueryWorkload(const Options &opts);
std::unique_ptr<Workload> makeDaemonWorkload(const Options &opts);

/** The suite design: both suite workloads and the layer probe use it. */
constexpr int kSuiteInvocations = 2;
constexpr int kSuiteIterations = 2;

/** RunnerConfig::seed of the suite workloads for --seed `seed`. */
uint64_t suiteSeed(uint64_t seed);

/**
 * Layer probe for the vm and uarch layers, on the suite design's
 * invocation 0 of every workload and tier at default size: bare VM
 * calls, and one recorded iteration replayed into PerfModel, the
 * cache hierarchy, the branch predictors and the observer mux. Also
 * times runExperiment at
 * --jobs 1 and 2. Records spans and counters only.
 * @return correctness failures (empty when the replay reproduced the
 * live counters exactly).
 */
std::vector<std::string> runLayerProbe(const Options &opts);

/** Daemon child mode: serve on `socket` until a shutdown op. */
int runDaemonChild(const std::string &socket, const std::string &stateDir,
                   const std::string &statsPath, bool timed);

// --- helpers shared by the workloads ----------------------------------

/** SplitMix64 step: a well-mixed seed derived from (seed, stream). */
uint64_t mixSeed(uint64_t seed, uint64_t stream);

/**
 * Set `<prefix>_p50_ms` and `<prefix>_tail_ms` in out.extra; the tail
 * is the highest percentile with at least ten samples beyond it, and
 * its note names that percentile and the sample count.
 */
void addLatencyMetrics(Outcome &out, const std::string &prefix,
                       const std::vector<double> &ms);

/** FNV-1a digest of `text` as 16 hex digits. */
std::string digestHex(const std::string &text);

/**
 * Compare `digest` with the one recorded under `key` by an earlier
 * process (records it when there is none yet).
 * @return an error message, or "" when they agree.
 */
std::string checkRecordedDigest(const Options &opts,
                                const std::string &key,
                                const std::string &digest);

} // namespace selfbench

#endif // SELFBENCH_BENCH_HH

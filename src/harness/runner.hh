/**
 * @file
 * The benchmark runner: executes the (invocation x iteration) design
 * for one workload on one runtime tier, collecting per-iteration
 * modelled times and perf counters.
 */

#ifndef RIGOR_HARNESS_RUNNER_HH
#define RIGOR_HARNESS_RUNNER_HH

#include <functional>
#include <string>

#include "harness/measurement.hh"
#include "harness/noise.hh"
#include "support/metrics.hh"
#include "support/trace.hh"
#include "uarch/perf_model.hh"
#include "workloads/workloads.hh"

namespace rigor {
namespace harness {

class FaultInjector;

/**
 * Default JIT hot threshold, matching vm::InterpConfig. This is the
 * single source of truth: RunnerConfig and the rigorbench CLI both
 * reference it (they used to disagree, 64 vs 4000).
 */
inline constexpr int kDefaultJitThreshold = 4000;

/**
 * Dispatch parameters for the direct-threaded tier. Threaded code
 * skips the bounds check, table load and shared re-branch of a switch
 * loop: each handler ends in a single indirect jump (the operand
 * fetch is already charged in the opcode base cost), so dispatch is
 * 1 uop instead of 6. Each handler's own jump also gives the host
 * branch predictor a per-opcode context, modelled as a deeper opcode
 * history for the dispatch predictor. Applied by the runner/profiler
 * whenever the configured tier is Tier::Threaded.
 */
inline constexpr uint32_t kThreadedDispatchUops = 1;
inline constexpr unsigned kThreadedDispatchHistoryOps = 6;

/** Configuration of one experiment run. */
struct RunnerConfig
{
    /** Number of fresh VM invocations. */
    int invocations = 10;
    /** In-process iterations per invocation. */
    int iterations = 30;
    /** Runtime tier to measure. */
    vm::Tier tier = vm::Tier::Interp;
    /** JIT hot threshold (adaptive tier). */
    int jitThreshold = kDefaultJitThreshold;
    /** Interpreter dispatch cost in micro-ops (see InterpConfig). */
    uint32_t dispatchUops = 6;
    /** Workload size (0 = the workload's defaultSize). */
    int64_t size = 0;
    /** Master seed; all invocation seeds derive from it. */
    uint64_t seed = 0xc0ffee;
    /** Noise model parameters. */
    NoiseConfig noise;
    /** Microarchitecture model parameters. */
    uarch::PerfModelConfig uarch;
    /** Modelled clock in cycles per millisecond (3 GHz default). */
    double cyclesPerMs = 3.0e6;

    /**
     * Worker threads executing invocations (1 = serial). Every
     * invocation derives an independent seed, so invocations are
     * sharded across a pool and their results committed in invocation
     * order; report, metrics, trace and resume artifacts are
     * byte-identical to a serial run (see docs/METHODOLOGY.md §11).
     */
    int jobs = 1;

    // --- fault tolerance ---------------------------------------------

    /** Retries per invocation after a failed attempt (0 = fail fast). */
    int maxRetries = 2;
    /** Base modelled backoff before the first retry; doubles per
     *  retry. Charged to the failure record, not slept. */
    double backoffBaseMs = 1.0;
    /** Backoff cap (exponential growth stops here). */
    double backoffCapMs = 64.0;
    /**
     * Quarantine the workload after this many *consecutive*
     * invocations whose every attempt failed (0 disables quarantine;
     * the run then keeps trying every requested invocation).
     */
    int quarantineAfter = 3;
    /** Per-invocation modelled-time deadline in ms (0 = none). A
     *  stalled invocation is aborted once its summed modelled time
     *  passes this. */
    double deadlineMs = 0.0;
    /** Optional fault injector (not owned); nullptr injects nothing. */
    const FaultInjector *faults = nullptr;

    // --- observability -----------------------------------------------

    /**
     * Optional metrics destination (not owned). When set, the harness
     * records invocation/iteration durations and retry / quarantine /
     * fault counts under "harness.*", and adds each attempt's VM
     * totals (InterpStats) under "vm.<tier>.*". See
     * docs/OBSERVABILITY.md for the schema.
     */
    MetricsRegistry *metrics = nullptr;
    /**
     * Optional trace destination (not owned). When set, the run emits
     * workload / invocation / iteration spans and instant events for
     * JIT compiles, deopts, injected faults, retries and quarantines,
     * all timestamped with the modelled clock.
     */
    TraceEmitter *trace = nullptr;

    // --- durability --------------------------------------------------

    /**
     * Fire onCheckpoint every this many committed invocation slots
     * (0 disables periodic checkpoints). Checkpoints happen at commit
     * boundaries on both the serial and the parallel committer path,
     * so the captured state is exactly what a fresh run would have
     * after that many invocations — which is why the final artifacts
     * are invariant under checkpoint cadence.
     */
    int checkpointEvery = 0;
    /**
     * Called with the partial run at each checkpoint boundary and,
     * regardless of cadence, when an interrupt stops the run (so the
     * last checkpoint always reflects the final committed slot). The
     * callback runs on the committing thread while the shared
     * metrics/trace sinks are quiescent; snapshotting them inside the
     * callback is race-free.
     */
    std::function<void(const RunResult &)> onCheckpoint;

    // --- progress ----------------------------------------------------

    /**
     * Called after *every* committed invocation slot, on the
     * committing thread, before onCheckpoint. Purely observational:
     * the serve daemon streams these as per-job progress events to
     * subscribed clients. Must not mutate the run or touch the
     * metrics/trace sinks in ways that alter artifacts — byte-identity
     * between hooked and unhooked runs is part of the contract.
     */
    std::function<void(const RunResult &)> onProgress;
};

/**
 * Run the full experiment design for one workload.
 *
 * Parallelism: with config.jobs > 1 the (independent-seeded)
 * invocations are executed by a worker pool. Workers run invocation
 * slots speculatively into per-worker metric/trace/log buffers; a
 * single committer folds the buffers into the shared sinks in
 * invocation order, so retry, checksum-verification and quarantine
 * decisions are made on the ordered result stream and every artifact
 * is byte-identical to jobs == 1.
 *
 * Failure handling: a VmError, a checksum divergence (between
 * iterations or across invocations) or a blown deadline no longer
 * aborts the run. The attempt is recorded as an InvocationFailure and
 * retried with a freshly derived seed, up to maxRetries times with
 * capped exponential backoff. After quarantineAfter consecutive
 * permanently-failed invocations the workload is quarantined and the
 * partial run returned. Failed attempts never contribute samples, so
 * every estimate is computed from successful invocations only.
 */
RunResult runExperiment(const workloads::WorkloadSpec &spec,
                        const RunnerConfig &config);

/** Convenience: look up the workload by name and run it. */
RunResult runExperiment(const std::string &workload_name,
                        const RunnerConfig &config);

/**
 * Append `additional` fresh invocations to an existing run (the new
 * invocation seeds continue the original sequence, so extending a run
 * equals having asked for more invocations upfront). Used by the
 * sequential-stopping design.
 */
void extendExperiment(const workloads::WorkloadSpec &spec,
                      const RunnerConfig &config, RunResult &run,
                      int additional);

/**
 * Continue an incomplete (checkpointed, then restored) run up to
 * config.invocations total attempted slots. Invocation seeds are pure
 * functions of (config.seed, slot index, attempt), so the continuation
 * reproduces exactly what an uninterrupted run would have done.
 *
 * Precondition: `run` is incomplete (not quarantined and
 * invocationsAttempted < config.invocations) and, when config.trace is
 * set, the emitter holds the restored checkpoint with the workload
 * span still open; the span is closed on return like runExperiment
 * does.
 */
void resumeExperiment(const workloads::WorkloadSpec &spec,
                      const RunnerConfig &config, RunResult &run);

} // namespace harness
} // namespace rigor

#endif // RIGOR_HARNESS_RUNNER_HH

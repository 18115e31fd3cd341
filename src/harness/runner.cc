#include "harness/runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <iterator>
#include <memory>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "harness/fault.hh"
#include "support/interrupt.hh"
#include "support/logging.hh"
#include "vm/compiler.hh"

namespace rigor {
namespace harness {

namespace {

uint64_t
deriveSeed(uint64_t master, uint64_t stream, uint64_t index)
{
    SplitMix64 sm(master ^ (stream * 0x9e3779b97f4a7c15ULL) ^
                  (index + 1));
    return sm.next();
}

/**
 * Seed for one invocation attempt. Attempt 0 reproduces the original
 * single-attempt derivation bit for bit (fault-free runs are
 * byte-identical to the pre-fault-tolerance harness); retries fork a
 * fresh stream off the invocation seed.
 */
uint64_t
attemptSeed(const RunnerConfig &config, int invocation, int attempt)
{
    uint64_t inv_seed =
        deriveSeed(config.seed, 1, static_cast<uint64_t>(invocation));
    if (attempt == 0)
        return inv_seed;
    return deriveSeed(inv_seed, 4, static_cast<uint64_t>(attempt));
}

/** Internal control-flow signal: this attempt failed; retry it. */
struct InvocationAbort
{
    FailureKind kind;
    std::string message;
};

/** Bucket bounds shared by the harness duration histograms. */
std::vector<double>
durationBucketsMs()
{
    return MetricsRegistry::exponentialBuckets(0.001, 4.0, 16);
}

/** Deopt instants one attempt may emit into a trace. */
constexpr uint64_t kMaxDeoptInstants = 64;

/**
 * The one observer on every run: the uarch model, which also emits
 * the two rare trace instants (`jit_compile`, and `deopt` up to
 * kMaxDeoptInstants per attempt; guard failures can number in the
 * millions) after the model has seen the event. Every other event
 * resolves to PerfModel's own methods.
 */
class TracedPerfModel : public uarch::PerfModel
{
  public:
    TracedPerfModel(const uarch::PerfModelConfig &config,
                    TraceEmitter *trace)
        : PerfModel(config), trace(trace)
    {}

    void
    onJitCompile(uint32_t code_id, uint64_t cost_uops) override
    {
        PerfModel::onJitCompile(code_id, cost_uops);
        if (!trace)
            return;
        Json args = Json::object();
        args.set("code_id", static_cast<int64_t>(code_id));
        args.set("cost_uops", static_cast<int64_t>(cost_uops));
        trace->instant("jit_compile", "vm", std::move(args));
    }

    void
    onGuardFailure(vm::Op op) override
    {
        PerfModel::onGuardFailure(op);
        if (!trace || deoptInstants == kMaxDeoptInstants)
            return;
        ++deoptInstants;
        Json args = Json::object();
        args.set("op", vm::opName(op));
        trace->instant("deopt", "vm", std::move(args));
    }

  private:
    TraceEmitter *trace;
    uint64_t deoptInstants = 0;
};

/** The `vm.<tier>.*` counters, in the order VmMetricsFold adds them. */
constexpr const char *kVmCounterNames[] = {
    "bytecodes",       "uops",         "dispatches",
    "branches",        "allocations",  "allocated_bytes",
    "calls",           "jit_compiles", "jit_compile_uops",
    "guard_failures"};

/**
 * Adds one attempt's VM totals to `vm.<tier>.*` when it goes out of
 * scope, so an aborted attempt counts as far as it ran. The totals
 * are the Interp's own InterpStats, plus the conditional branches the
 * model saw. The counters are created (zero or not) up front, so the
 * fold itself only adds. Does nothing without a registry.
 */
class VmMetricsFold
{
  public:
    VmMetricsFold(MetricsRegistry *registry, vm::Tier tier,
                  const vm::Interp &interp,
                  const uarch::PerfModel &model)
        : interp(interp), model(model)
    {
        if (!registry)
            return;
        std::string prefix = strprintf("vm.%s.", vm::tierName(tier));
        for (size_t i = 0; i < std::size(kVmCounterNames); ++i)
            counters[i] = &registry->counter(prefix + kVmCounterNames[i]);
    }

    ~VmMetricsFold()
    {
        if (!counters[0])
            return;
        const vm::InterpStats &s = interp.stats();
        const uint64_t totals[std::size(kVmCounterNames)] = {
            s.bytecodes, s.uops,
            std::accumulate(s.perOpDispatched.begin(),
                            s.perOpDispatched.end(), uint64_t{0}),
            model.snapshot().branches, s.allocations, s.allocatedBytes,
            s.calls, s.jitCompiles, s.jitCompileUops, s.guardFailures};
        for (size_t i = 0; i < std::size(kVmCounterNames); ++i)
            counters[i]->inc(totals[i]);
    }

    VmMetricsFold(const VmMetricsFold &) = delete;
    VmMetricsFold &operator=(const VmMetricsFold &) = delete;

  private:
    const vm::Interp &interp;
    const uarch::PerfModel &model;
    Counter *counters[std::size(kVmCounterNames)] = {};
};

/** Execute one VM invocation attempt of the experiment design. */
InvocationResult
runOneInvocation(const vm::Program &prog,
                 const workloads::WorkloadSpec &spec,
                 const RunnerConfig &config, int64_t size,
                 int invocation_index, int attempt, uint64_t inv_seed)
{
    MetricsRegistry *metrics = config.metrics;
    TraceEmitter *tr = config.trace;

    const FaultSpec *fault = config.faults
        ? config.faults->query(spec.name, invocation_index, attempt)
        : nullptr;
    if (fault) {
        if (metrics)
            metrics->counter("harness.faults_injected").inc();
        if (tr) {
            Json args = Json::object();
            args.set("kind", faultKindName(fault->kind));
            args.set("invocation", invocation_index);
            args.set("attempt", attempt);
            tr->instant("fault_injected", "harness", std::move(args));
        }
    }
    if (fault && fault->kind == FaultKind::Throw)
        throw vm::VmError(strprintf(
            "injected fault: VmError in %s invocation %d attempt %d",
            spec.name.c_str(), invocation_index, attempt));

    vm::InterpConfig icfg;
    icfg.tier = config.tier;
    icfg.jitThreshold = config.jitThreshold;
    icfg.dispatchUops = config.dispatchUops;
    icfg.hashSeed = deriveSeed(inv_seed, 2, 0);
    icfg.aslrSeed = deriveSeed(inv_seed, 3, 0);
    icfg.captureOutput = false;

    uarch::PerfModelConfig ucfg = config.uarch;
    if (config.tier == vm::Tier::Threaded) {
        icfg.dispatchUops = kThreadedDispatchUops;
        ucfg.dispatchHistoryOps = kThreadedDispatchHistoryOps;
    }

    TracedPerfModel model(ucfg, tr);
    vm::Interp interp(prog, icfg, &model);
    VmMetricsFold fold(metrics, config.tier, interp, model);
    interp.runModule();

    NoiseModel noise(config.noise, inv_seed);

    InvocationResult inv_result;
    inv_result.invocationSeed = inv_seed;
    inv_result.samples.reserve(
        static_cast<size_t>(config.iterations));

    double elapsed_ms = 0.0;
    uarch::CounterSet prev = model.snapshot();
    for (int it = 0; it < config.iterations; ++it) {
        if (tr) {
            Json args = Json::object();
            args.set("index", it);
            tr->beginSpan("iteration", "harness", std::move(args));
        }
        auto wall_start = std::chrono::steady_clock::now();
        vm::Value r =
            interp.callGlobal("run", {vm::Value::makeInt(size)});
        auto wall_end = std::chrono::steady_clock::now();

        int64_t checksum = r.isInt()
            ? r.asInt()
            : static_cast<int64_t>(r.numeric());
        if (inv_result.samples.empty()) {
            inv_result.checksum = checksum;
        } else if (inv_result.checksum != checksum) {
            throw InvocationAbort{
                FailureKind::ChecksumMismatch,
                strprintf("workload %s: checksum changed between "
                          "iterations (%lld vs %lld)",
                          spec.name.c_str(),
                          static_cast<long long>(inv_result.checksum),
                          static_cast<long long>(checksum))};
        }

        uarch::CounterSet now = model.snapshot();
        IterationSample sample;
        sample.counters = now.diff(prev);
        prev = now;
        sample.simCycles = sample.counters.cycles;
        sample.timeMs = static_cast<double>(sample.simCycles) /
            config.cyclesPerMs * noise.nextIterationFactor();
        if (fault)
            sample.timeMs *= FaultInjector::timeFactor(*fault, it);
        sample.wallNanos = static_cast<uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                wall_end - wall_start)
                .count());
        elapsed_ms += sample.timeMs;
        // The modelled clock advances even when the deadline check
        // below aborts: the aborted iteration's time did pass.
        if (tr)
            tr->advanceMs(sample.timeMs);
        if (metrics) {
            metrics->counter("harness.iterations").inc();
            metrics
                ->histogram("harness.iteration_ms",
                            durationBucketsMs())
                .observe(sample.timeMs);
        }
        if (config.deadlineMs > 0.0 && elapsed_ms > config.deadlineMs)
            throw InvocationAbort{
                FailureKind::DeadlineExceeded,
                strprintf("workload %s: invocation %d exceeded the "
                          "%.1f ms deadline after %d iterations "
                          "(%.1f ms modelled)",
                          spec.name.c_str(), invocation_index,
                          config.deadlineMs, it + 1, elapsed_ms)};
        if (tr)
            tr->endSpan();
        inv_result.samples.push_back(std::move(sample));
    }
    if (metrics)
        metrics
            ->histogram("harness.invocation_ms", durationBucketsMs())
            .observe(elapsed_ms);
    inv_result.vmStats = interp.stats();

    if (fault && fault->kind == FaultKind::CorruptChecksum)
        inv_result.checksum ^= 0x5A5A5A5ALL;
    return inv_result;
}

/** Capped exponential backoff charged before retry `attempt + 1`. */
double
backoffMs(const RunnerConfig &config, int attempt)
{
    double delay = config.backoffBaseMs;
    for (int i = 0; i < attempt && delay < config.backoffCapMs; ++i)
        delay *= 2.0;
    return std::min(delay, config.backoffCapMs);
}

/**
 * warn() plus a mirror of the message into the trace as a "log"
 * instant at the current modelled time. Mirroring is owned by the
 * runner, not by whatever log sink is installed: that way the
 * instant lands at the same position in the document whether the
 * message is delivered immediately (serial) or buffered and replayed
 * at commit time (parallel). Quiet runs mirror nothing, matching the
 * sink-after-setQuiet contract.
 */
__attribute__((format(printf, 2, 3))) void
warnTraced(TraceEmitter *tr, const char *fmt, ...)
{
    if (quietEnabled())
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrprintf(fmt, ap);
    va_end(ap);
    if (tr)
        tr->logInstant("warn", msg);
    warn("%s", msg.c_str());
}

/**
 * Everything one invocation slot produced: the retry loop's failure
 * records plus the successful result (if any). Slots have no side
 * effects on the RunResult — the caller commits outcomes in
 * invocation order, which is what keeps parallel execution
 * byte-identical to serial.
 */
struct SlotOutcome
{
    bool succeeded = false;
    InvocationResult result;
    std::vector<InvocationFailure> failures;
};

/**
 * Run the full attempt loop (with retries and backoff) for one
 * invocation slot. Metric, trace and log output goes to whatever
 * sinks config carries: the shared ones on the serial path,
 * per-worker buffers on the parallel path.
 *
 * @param ref_checksum checksum of the run's first successful
 * invocation for cross-invocation verification, or nullptr if no
 * invocation has succeeded yet (or, on the parallel path, if the
 * reference is not yet known — see extendParallel()).
 */
SlotOutcome
runInvocationSlot(const vm::Program &prog,
                  const workloads::WorkloadSpec &spec,
                  const RunnerConfig &config, int64_t size, int inv,
                  const int64_t *ref_checksum)
{
    SlotOutcome out;
    MetricsRegistry *metrics = config.metrics;
    TraceEmitter *tr = config.trace;
    if (metrics)
        metrics->counter("harness.invocations_attempted").inc();
    for (int attempt = 0; attempt <= config.maxRetries; ++attempt) {
        uint64_t seed = attemptSeed(config, inv, attempt);
        InvocationFailure failure;
        failure.invocation = inv;
        failure.attempt = attempt;
        failure.seed = seed;
        size_t spanDepth = tr ? tr->openSpans() : 0;
        if (tr) {
            Json args = Json::object();
            args.set("index", inv);
            args.set("attempt", attempt);
            tr->beginSpan("invocation", "harness", std::move(args));
        }
        try {
            InvocationResult r = runOneInvocation(
                prog, spec, config, size, inv, attempt, seed);
            // Cross-invocation checksum verification against the
            // first successful invocation. With a single prior
            // invocation the blame is ambiguous; we presume the
            // established reference is correct.
            if (ref_checksum && r.checksum != *ref_checksum) {
                throw InvocationAbort{
                    FailureKind::ChecksumMismatch,
                    strprintf(
                        "workload %s: checksum differs across "
                        "invocations (%lld vs %lld)",
                        spec.name.c_str(),
                        static_cast<long long>(r.checksum),
                        static_cast<long long>(*ref_checksum))};
            }
            out.result = std::move(r);
            out.succeeded = true;
            if (metrics)
                metrics->counter("harness.invocations").inc();
            if (tr)
                tr->endSpan();
            break;
        } catch (const vm::VmError &e) {
            failure.kind = FailureKind::VmError;
            failure.message = e.what();
        } catch (const InvocationAbort &a) {
            failure.kind = a.kind;
            failure.message = a.message;
        }
        if (attempt < config.maxRetries)
            failure.backoffMs = backoffMs(config, attempt);
        if (metrics) {
            metrics->counter("harness.failures").inc();
            metrics
                ->counter(strprintf(
                    "harness.failures.%s",
                    failureKindName(failure.kind)))
                .inc();
            if (attempt < config.maxRetries)
                metrics->counter("harness.retries").inc();
        }
        if (tr) {
            Json args = Json::object();
            args.set("kind", failureKindName(failure.kind));
            args.set("invocation", inv);
            args.set("attempt", attempt);
            args.set("message", failure.message);
            tr->instant("invocation_failure", "harness",
                        std::move(args));
            // Close the aborted iteration + invocation spans.
            tr->endSpansTo(spanDepth);
            if (attempt < config.maxRetries) {
                tr->advanceMs(failure.backoffMs);
                Json rargs = Json::object();
                rargs.set("invocation", inv);
                rargs.set("next_attempt", attempt + 1);
                rargs.set("backoff_ms", failure.backoffMs);
                tr->instant("retry", "harness", std::move(rargs));
            }
        }
        warnTraced(tr,
                   "workload %s: invocation %d attempt %d failed "
                   "(%s): %s",
                   spec.name.c_str(), inv, attempt,
                   failureKindName(failure.kind),
                   failure.message.c_str());
        out.failures.push_back(std::move(failure));
    }
    return out;
}

/**
 * Fold one slot's outcome into the run: append failure records and
 * the result, then apply the consecutive-failure / quarantine
 * accounting. Always runs on the committing thread, in invocation
 * order, against the shared sinks.
 */
void
commitSlot(const workloads::WorkloadSpec &spec,
           const RunnerConfig &config, RunResult &run,
           SlotOutcome &&out, int inv)
{
    MetricsRegistry *metrics = config.metrics;
    TraceEmitter *tr = config.trace;

    for (auto &f : out.failures)
        run.failures.push_back(std::move(f));
    bool succeeded = out.succeeded;
    if (succeeded)
        run.invocations.push_back(std::move(out.result));
    run.invocationsAttempted = inv + 1;
    if (succeeded) {
        run.consecutiveFailures = 0;
    } else if (++run.consecutiveFailures >= config.quarantineAfter &&
               config.quarantineAfter > 0) {
        run.quarantined = true;
        run.quarantineReason = strprintf(
            "%d consecutive invocations failed all %d attempt(s)",
            run.consecutiveFailures, config.maxRetries + 1);
        if (metrics)
            metrics->counter("harness.quarantines").inc();
        if (tr) {
            Json args = Json::object();
            args.set("workload", spec.name);
            args.set("reason", run.quarantineReason);
            tr->instant("quarantine", "harness", std::move(args));
        }
        warnTraced(tr, "workload %s quarantined: %s",
                   spec.name.c_str(), run.quarantineReason.c_str());
    }
}

/**
 * Commit-boundary bookkeeping shared by the serial loop and the
 * parallel committer: fire the periodic checkpoint callback at the
 * configured cadence and poll the interrupt flag. An interrupt fires
 * the callback too, regardless of cadence, so the final checkpoint
 * always reflects the last committed slot — and it fires *before* the
 * caller returns and runExperiment closes the workload trace span,
 * because the checkpoint must capture the span as still open for the
 * resume to continue it.
 *
 * @return true when the run should stop (interrupt requested).
 */
bool
afterCommit(const RunnerConfig &config, RunResult &run)
{
    if (config.onProgress)
        config.onProgress(run);
    bool stop = interruptRequested();
    if (config.onCheckpoint &&
        (stop ||
         (config.checkpointEvery > 0 &&
          run.invocationsAttempted % config.checkpointEvery == 0)))
        config.onCheckpoint(run);
    if (stop)
        run.interrupted = true;
    return stop;
}

/**
 * RAII capture of this thread's warn()/inform() output into a
 * buffer. The committer replays the buffered text through the normal
 * sink chain in invocation order, so a parallel run's log stream is
 * identical to a serial run's whatever sink the embedder installed.
 * (Trace mirroring is not the capture's job — warnTraced() already
 * placed the instant in the worker's trace buffer.)
 */
class ThreadLogCapture
{
  public:
    explicit ThreadLogCapture(
        std::vector<std::pair<LogLevel, std::string>> *buf)
    {
        prev = setThreadLogSink(
            [buf](LogLevel level, const std::string &msg) {
                buf->emplace_back(level, msg);
            });
    }

    ~ThreadLogCapture() { setThreadLogSink(std::move(prev)); }

    ThreadLogCapture(const ThreadLogCapture &) = delete;
    ThreadLogCapture &operator=(const ThreadLogCapture &) = delete;

  private:
    LogSink prev;
};

/**
 * Parallel invocation execution: workers run slots speculatively into
 * per-slot buffers; this (committing) thread folds the buffers into
 * the shared sinks and the RunResult in invocation order.
 *
 * Speculation: a worker cannot know the run's reference checksum (it
 * is established by the *earliest successful* invocation), so slots
 * run without cross-invocation verification. The committer performs
 * the check on the ordered stream; on a mismatch — only possible with
 * checksum-corrupting faults — it discards the slot's buffers and
 * re-executes the slot in-line with the true reference, which
 * reproduces the speculative attempts bit for bit (attempt seeds are
 * pure functions of the config) before diverging into the retry path
 * a serial run would have taken.
 */
void
extendParallel(const workloads::WorkloadSpec &spec,
               const RunnerConfig &config, RunResult &run, int start,
               int additional, const vm::Program &prog, int64_t size)
{
    struct Unit
    {
        SlotOutcome outcome;
        std::unique_ptr<MetricsRegistry> metrics;
        std::unique_ptr<TraceEmitter> trace;
        std::vector<std::pair<LogLevel, std::string>> logs;
        std::exception_ptr error;
        bool done = false;  ///< guarded by mu
    };

    const int n = additional;
    std::vector<Unit> units(static_cast<size_t>(n));
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<int> next{0};
    std::atomic<bool> cancelled{false};

    // Workers inherit the spawning thread's effective quiet state:
    // a per-thread quiet override (the serve daemon's way of honoring
    // one job's --quiet among concurrently streaming jobs) must apply
    // to the worker-side warnTraced() calls too, or a quiet parallel
    // job would mirror log instants into the trace that a quiet
    // serial run suppresses.
    const bool parentQuiet = quietEnabled();
    auto workerMain = [&]() {
        bool prevQuiet = setThreadQuiet(parentQuiet);
        // Each worker compiles its own program: compiled constants
        // hold refcounted Values, and refcounts are not atomic, so a
        // Program must never be shared across threads.
        std::unique_ptr<vm::Program> wprog;
        for (;;) {
            int u = next.fetch_add(1, std::memory_order_relaxed);
            if (u >= n || cancelled.load(std::memory_order_relaxed))
                break;
            Unit &unit = units[static_cast<size_t>(u)];
            try {
                if (!wprog)
                    wprog = std::make_unique<vm::Program>(
                        vm::compileSource(spec.source, spec.name));
                RunnerConfig ucfg = config;
                if (config.metrics) {
                    // Buffered: merge() then replays histogram
                    // observations in order for bit-exact sums.
                    unit.metrics =
                        std::make_unique<MetricsRegistry>(true);
                    ucfg.metrics = unit.metrics.get();
                }
                if (config.trace) {
                    unit.trace =
                        std::make_unique<TraceEmitter>(true);
                    ucfg.trace = unit.trace.get();
                }
                ThreadLogCapture capture(&unit.logs);
                unit.outcome = runInvocationSlot(
                    *wprog, spec, ucfg, size, start + u, nullptr);
            } catch (...) {
                unit.error = std::current_exception();
            }
            {
                std::lock_guard<std::mutex> lock(mu);
                unit.done = true;
            }
            cv.notify_all();
        }
        setThreadQuiet(prevQuiet);
    };

    int nthreads = std::min(config.jobs, n);
    std::vector<std::thread> pool;
    pool.reserve(static_cast<size_t>(nthreads));
    for (int t = 0; t < nthreads; ++t)
        pool.emplace_back(workerMain);
    auto joinAll = [&]() {
        cancelled.store(true, std::memory_order_relaxed);
        for (auto &t : pool)
            if (t.joinable())
                t.join();
    };

    try {
        for (int u = 0; u < n; ++u) {
            Unit &unit = units[static_cast<size_t>(u)];
            {
                std::unique_lock<std::mutex> lock(mu);
                cv.wait(lock, [&] { return unit.done; });
            }
            if (unit.error)
                std::rethrow_exception(unit.error);
            int inv = start + u;
            const int64_t *ref = run.invocations.empty()
                ? nullptr
                : &run.invocations.front().checksum;
            if (unit.outcome.succeeded && ref &&
                unit.outcome.result.checksum != *ref) {
                SlotOutcome redo = runInvocationSlot(
                    prog, spec, config, size, inv, ref);
                commitSlot(spec, config, run, std::move(redo), inv);
            } else {
                if (config.trace && unit.trace)
                    config.trace->append(std::move(*unit.trace));
                if (config.metrics && unit.metrics)
                    config.metrics->merge(*unit.metrics);
                for (const auto &[level, msg] : unit.logs)
                    emitLogMessage(level, msg);
                commitSlot(spec, config, run,
                           std::move(unit.outcome), inv);
            }
            if (afterCommit(config, run) || run.quarantined)
                break;
        }
    } catch (...) {
        joinAll();
        throw;
    }
    joinAll();
}

} // namespace

RunResult
runExperiment(const workloads::WorkloadSpec &spec,
              const RunnerConfig &config)
{
    RunResult result;
    result.workload = spec.name;
    result.tier = config.tier;
    result.size = config.size > 0 ? config.size : spec.defaultSize;

    TraceEmitter *tr = config.trace;
    size_t depth = tr ? tr->openSpans() : 0;
    if (tr) {
        Json args = Json::object();
        args.set("tier", vm::tierName(config.tier));
        args.set("size", result.size);
        tr->beginSpan(spec.name, "workload", std::move(args));
    }
    try {
        extendExperiment(spec, config, result, config.invocations);
    } catch (...) {
        if (tr)
            tr->endSpansTo(depth);
        throw;
    }
    if (tr)
        tr->endSpansTo(depth);
    return result;
}

void
extendExperiment(const workloads::WorkloadSpec &spec,
                 const RunnerConfig &config, RunResult &run,
                 int additional)
{
    if (run.quarantined)
        return;

    vm::Program prog = vm::compileSource(spec.source, spec.name);
    int64_t size = run.size > 0
        ? run.size
        : (config.size > 0 ? config.size : spec.defaultSize);
    run.size = size;

    int start = std::max(run.invocationsAttempted,
                         static_cast<int>(run.invocations.size()));
    if (config.jobs > 1 && additional > 1) {
        extendParallel(spec, config, run, start, additional, prog,
                       size);
        return;
    }
    for (int inv = start; inv < start + additional; ++inv) {
        const int64_t *ref = run.invocations.empty()
            ? nullptr
            : &run.invocations.front().checksum;
        SlotOutcome out =
            runInvocationSlot(prog, spec, config, size, inv, ref);
        commitSlot(spec, config, run, std::move(out), inv);
        if (afterCommit(config, run) || run.quarantined)
            return;
    }
}

void
resumeExperiment(const workloads::WorkloadSpec &spec,
                 const RunnerConfig &config, RunResult &run)
{
    TraceEmitter *tr = config.trace;
    // The restored checkpoint holds the workload span open (it was
    // open when the checkpoint was taken); close down to just outside
    // it on exit, mirroring runExperiment.
    size_t depth = tr && tr->openSpans() > 0 ? tr->openSpans() - 1 : 0;
    int additional = config.invocations - run.invocationsAttempted;
    try {
        if (additional > 0)
            extendExperiment(spec, config, run, additional);
    } catch (...) {
        if (tr)
            tr->endSpansTo(depth);
        throw;
    }
    if (tr)
        tr->endSpansTo(depth);
}

RunResult
runExperiment(const std::string &workload_name,
              const RunnerConfig &config)
{
    return runExperiment(workloads::findWorkload(workload_name),
                         config);
}

} // namespace harness
} // namespace rigor

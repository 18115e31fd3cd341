/**
 * @file
 * Job execution (moved from tools/rigorbench.cc so the daemon and the
 * one-shot CLI share one code path — see jobrun.hh). The bodies are
 * deliberately unchanged where possible: every output byte and every
 * checkpoint byte is part of the compatibility contract with state
 * files and test goldens written before the move.
 */

#include "serve/jobrun.hh"

#include <algorithm>
#include <array>
#include <cstdarg>
#include <deque>
#include <memory>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "archive/archive.hh"
#include "compare/compare.hh"
#include "explain/behavior_profile.hh"
#include "explain/explain.hh"
#include "harness/analysis.hh"
#include "harness/fault.hh"
#include "harness/profile.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "harness/sequential.hh"
#include "support/durable_io.hh"
#include "support/interrupt.hh"
#include "support/logging.hh"
#include "support/schema.hh"
#include "support/str.hh"
#include "support/table.hh"

namespace rigor {
namespace serve {

namespace {

/** printf-style adapter over the caller's output hook. */
class Out
{
  public:
    explicit Out(
        const std::function<void(const std::string &)> &sink)
        : sink_(sink)
    {}

    __attribute__((format(printf, 2, 3))) void
    operator()(const char *fmt, ...) const
    {
        va_list ap;
        va_start(ap, fmt);
        std::string s = vstrprintf(fmt, ap);
        va_end(ap);
        sink_(s);
    }

  private:
    const std::function<void(const std::string &)> &sink_;
};

/** Everything one job execution threads through its helpers. */
struct JobEnv
{
    const JobSpec &spec;
    const JobHooks &hooks;
    Out out;

    // Observability sinks (set only when the spec requests them).
    MetricsRegistry *metrics = nullptr;
    TraceEmitter *trace = nullptr;
    const harness::FaultInjector *faults = nullptr;
};

harness::RunnerConfig
makeConfig(const JobEnv &env, vm::Tier tier)
{
    harness::RunnerConfig cfg = makeRunnerConfig(
        env.spec, tier, env.faults, env.metrics, env.trace);
    if (env.hooks.progress) {
        auto progress = env.hooks.progress;
        int total = env.spec.invocations;
        cfg.onProgress = [progress,
                          total](const harness::RunResult &r) {
            progress(r, total);
        };
    }
    return cfg;
}

/** rigorousEstimate(run), or nothing when no invocation succeeded. */
std::optional<harness::RigorousEstimate>
estimateOf(const harness::RunResult &run)
{
    if (run.invocations.empty())
        return std::nullopt;
    return harness::rigorousEstimate(run);
}

/** The estimate block each measured run prints; `est` is estimateOf(run). */
std::string
renderEstimate(const harness::RunResult &run,
               const std::optional<harness::RigorousEstimate> &est)
{
    std::string s;
    auto add = [&s](const std::string &chunk) { s += chunk; };
    // Failure/quarantine bookkeeping appended after a degraded run.
    auto addFailures = [&]() {
        if (run.failures.empty() && !run.quarantined)
            return;
        add(strprintf("  failures: %zu recorded, %zu invocation(s) "
                      "succeeded of %d attempted\n",
                      run.failures.size(), run.invocations.size(),
                      run.invocationsAttempted));
        for (const auto &f : run.failures)
            add(strprintf("    inv %d attempt %d [%s]: %s\n",
                          f.invocation, f.attempt,
                          harness::failureKindName(f.kind),
                          f.message.c_str()));
        if (run.quarantined)
            add(strprintf("  QUARANTINED: %s\n",
                          run.quarantineReason.c_str()));
    };
    if (!est) {
        add(strprintf("%s / %s: no successful invocations\n",
                      run.workload.c_str(), vm::tierName(run.tier)));
        addFailures();
        return s;
    }
    const auto &ss = est->steadyState;
    add(strprintf("%s / %s  (%zu invocations x %zu iterations, "
                  "size %lld)\n",
                  run.workload.c_str(), vm::tierName(run.tier),
                  run.invocations.size(),
                  run.invocations.front().samples.size(),
                  static_cast<long long>(run.size)));
    if (est->invocationMeans.size() < 2)
        add(strprintf("  time/iter: %s ms   (%s)\n",
                      fmtDouble(est->ci.estimate, 4).c_str(),
                      harness::kNoInterval));
    else
        add(strprintf("  time/iter: %s ms   (%s)\n",
                      harness::formatCi(est->ci, 4).c_str(),
                      harness::formatCiPercent(est->ci, 4).c_str()));
    add(strprintf("  series: %d flat, %d warmup, %d slowdown, "
                  "%d no-steady-state; mean warmup %.1f iters\n",
                  ss.flat, ss.warmup, ss.slowdown, ss.noSteadyState,
                  ss.meanSteadyStart));
    add(strprintf("  first invocation: %s\n",
                  harness::sparkline(run.invocations.front().times())
                      .c_str()));
    addFailures();
    return s;
}

/** The --json/--csv artifacts, with a "wrote PATH" line per file. */
void
writeRunArtifacts(const JobEnv &env, const harness::RunResult &run)
{
    const JobSpec &spec = env.spec;
    if (!spec.jsonPath.empty()) {
        atomicWriteFile(spec.jsonPath,
                        harness::runToJson(run).dump(2) + "\n");
        env.out("wrote %s\n", spec.jsonPath.c_str());
    }
    if (!spec.csvPath.empty()) {
        std::ostringstream os;
        harness::writeSeriesCsv(os, run);
        atomicWriteFile(spec.csvPath, os.str());
        env.out("wrote %s\n", spec.csvPath.c_str());
    }
}

/**
 * inform()/warn() plus a mirror of the message into the trace as a
 * "log" instant, so suite progress lands next to the spans it
 * narrates. The runner mirrors its own messages the same way
 * (caller-owned mirroring keeps serial and parallel traces
 * byte-identical; a sink cannot, because parallel workers buffer
 * their messages and replay them later). The suite heartbeat goes
 * through here — i.e. through the LogSink seam — so a daemon job's
 * heartbeats land in the job's captured log stream, never interleaved
 * into another client's output, and --quiet silences them entirely.
 */
__attribute__((format(printf, 3, 4))) void
logTraced(const JobEnv &env, LogLevel level, const char *fmt, ...)
{
    if (env.spec.quiet)
        return;
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrprintf(fmt, ap);
    va_end(ap);
    if (env.trace)
        env.trace->logInstant(logLevelName(level), msg);
    if (level == LogLevel::Warn)
        warn("%s", msg.c_str());
    else
        inform("%s", msg.c_str());
}

using harness::kSuiteTierCount;
using harness::kSuiteTiers;

/**
 * The archived configuration: the resume fingerprint plus what it
 * leaves implicit — which workloads ran on which tiers, and the run
 * schema version. Two entries with equal fingerprints measured the
 * same experiment, so `compare` can promise that any difference is a
 * performance change.
 */
Json
archiveConfigJson(const JobSpec &spec)
{
    Json c = configJson(spec);
    c.set("schema_version", kRunSchemaVersion);
    Json wls = Json::array();
    Json tiers = Json::array();
    if (spec.command == "suite") {
        for (const auto &w : workloads::suite())
            wls.push(w.name);
        for (const auto &st : kSuiteTiers)
            tiers.push(vm::tierName(st.tier));
    } else {
        wls.push(spec.workload);
        tiers.push(vm::tierName(spec.tier));
    }
    c.set("workloads", std::move(wls));
    c.set("tiers", std::move(tiers));
    return c;
}

/**
 * Append completed runs to --archive DIR and say where they went.
 * Each run is archived with its behavior profile so a later
 * `explain` can attribute measured differences; the profile is a
 * pure function of the committed run, hence byte-identical across
 * repeats and --jobs values. (--archive excludes --resume, so runs
 * here always come from this process with live VM statistics.)
 */
void
archiveAppend(const JobEnv &env,
              const std::vector<harness::RunResult> &runs)
{
    archive::RunArchive ar(env.spec.archiveDir);
    std::vector<Json> profiles;
    for (const auto &r : runs) {
        // Only the uarch/clock parameters matter for the profile;
        // they are tier- and fault-independent.
        harness::RunnerConfig cfg = makeRunnerConfig(
            env.spec, r.tier, nullptr, nullptr, nullptr);
        profiles.push_back(
            explain::profileToJson(explain::buildProfile(r, cfg)));
    }
    int id = ar.append(archiveConfigJson(env.spec), env.spec.label,
                       env.spec.command, runs, profiles);
    env.out("archived as #%d in %s (%zu run(s) with behavior "
            "profiles)\n",
            id, env.spec.archiveDir.c_str(), runs.size());
}

/**
 * Writes the suite's checksummed resume state (durable_io envelope).
 * A checkpoint captures everything a resumed process needs to
 * continue byte-identically: the completed-workload table, the
 * partial run(s) of the workload in flight, and snapshots of the
 * shared metrics registry and trace emitter taken at the same commit
 * boundary (the runner invokes writeInProgress on the committing
 * thread while the shared sinks are quiescent, so the snapshot is
 * race-free at any --jobs value).
 */
class SuiteCheckpointer
{
  public:
    SuiteCheckpointer(const JobEnv &env,
                      const harness::SuiteState &state)
        : env_(env), state_(state)
    {}

    /** A workload's measurement is starting (no tier done yet). */
    void beginWorkload(const std::string &name)
    {
        currentName_ = name;
        doneRuns_.clear();
    }

    /**
     * A tier's run finished; `run` outlives the remaining tier runs
     * of this workload.
     */
    void setTierDone(const harness::RunResult *run)
    {
        doneRuns_.push_back(run);
    }

    /** The workload finished (or failed); nothing is in flight. */
    void endWorkload()
    {
        currentName_.clear();
        doneRuns_.clear();
    }

    /** Checkpoint between workloads (after a completed one commits). */
    void writeCompleted() { write(nullptr); }

    /** Mid-run checkpoint (the runner's onCheckpoint callback). */
    void writeInProgress(const harness::RunResult &run)
    {
        write(&run);
    }

  private:
    void
    write(const harness::RunResult *current)
    {
        Json payload = Json::object();
        payload.set("kind", "suite");
        payload.set("config", configJson(env_.spec));
        payload.set("suite", harness::suiteStateToJson(state_));
        if (current) {
            Json ip = Json::object();
            ip.set("name", currentName_);
            // Completed tiers first, then the partial run of the tier
            // in flight — each under its tier name, so a resumed
            // process can walk kSuiteTiers and find where this one
            // stopped.
            for (const harness::RunResult *run : doneRuns_)
                ip.set(vm::tierName(run->tier), harness::runToJson(*run));
            ip.set(vm::tierName(current->tier),
                   harness::runToJson(*current));
            payload.set("in_progress", std::move(ip));
        }
        if (env_.metrics)
            payload.set("metrics", env_.metrics->toJson());
        if (env_.trace)
            payload.set("trace", env_.trace->checkpointJson());
        writeStateFile(env_.spec.resumePath, payload);
    }

    const JobEnv &env_;
    const harness::SuiteState &state_;
    std::string currentName_;
    /** Completed tier runs of the current workload. */
    std::vector<const harness::RunResult *> doneRuns_;
};

/** Outcome of measuring (or resuming) one suite workload. */
struct SuiteStep
{
    harness::SuiteWorkloadState ws;
    /** True when an interrupt stopped the measurement mid-way. */
    bool interrupted = false;
    /** Full runs, kept only when the suite is being archived. */
    std::vector<harness::RunResult> runs;
};

/** Runner config for one suite run, wired to the checkpointer. */
harness::RunnerConfig
suiteRunConfig(const JobEnv &env, vm::Tier tier,
               SuiteCheckpointer *ckpt)
{
    harness::RunnerConfig cfg = makeConfig(env, tier);
    if (ckpt) {
        cfg.checkpointEvery = env.spec.checkpointEvery;
        cfg.onCheckpoint = [ckpt](const harness::RunResult &r) {
            ckpt->writeInProgress(r);
        };
    }
    return cfg;
}

/** Estimates and bookkeeping once every tier's run is complete. */
void
finishWorkloadState(harness::SuiteWorkloadState &ws,
                    const std::deque<harness::RunResult> &runs)
{
    bool measured = true;
    for (const auto &r : runs) {
        ws.quarantined = ws.quarantined || r.quarantined;
        ws.failureCount += static_cast<int>(r.failures.size());
        ws.modelledMs += r.totalModelledMs();
        measured = measured && r.invocations.size() >= 2;
    }
    if (!measured) {
        ws.failed = true;
        return;
    }
    std::vector<harness::RigorousEstimate> estimates;
    for (const auto &r : runs)
        estimates.push_back(harness::rigorousEstimate(r));
    for (size_t t = 0; t < runs.size(); ++t)
        ws.tierMs[t] = estimates[t].ci.estimate;
    for (size_t t = 1; t < runs.size(); ++t)
        ws.speedups[t - 1] = harness::speedupFromEstimates(
            estimates.front(), estimates[t]);
}

/** A checkpointed run is done once every slot ran (or quarantine). */
bool
runComplete(const harness::RunResult &run, const JobSpec &spec)
{
    return run.quarantined ||
        run.invocationsAttempted >= spec.invocations;
}

/**
 * When --trace is given on resume but the checkpoint carried no trace
 * snapshot (the interrupted process ran without --trace), the restored
 * partial run has no open workload span; open one so the span nesting
 * resumeExperiment expects holds. The resulting trace is well formed
 * but starts mid-suite — byte-identity needs identical flags across
 * the interruption, which the config fingerprint cannot enforce for
 * observability sinks.
 */
void
ensureWorkloadSpanOpen(const JobEnv &env,
                       const workloads::WorkloadSpec &w,
                       const harness::RunResult &run)
{
    if (!env.trace || env.trace->openSpans() > 1)
        return;
    Json args = Json::object();
    args.set("tier", vm::tierName(run.tier));
    args.set("size", run.size);
    env.trace->beginSpan(w.name, "workload", std::move(args));
}

/**
 * Measure one workload on every suite tier. `ip`, when given, is the
 * checkpoint's in_progress record for this workload: its run(s) are
 * the restored prefix, and the measurement continues where the
 * interrupted process stopped. Invocation seeds are pure functions of
 * (seed, slot, attempt), so extending a restored run reproduces
 * exactly what the uninterrupted run would have measured — estimates,
 * metrics and trace come out byte-identical.
 *
 * Degrades gracefully: failures and quarantines are recorded in the
 * returned state instead of propagating, so one broken workload
 * cannot sink the suite.
 */
SuiteStep
runSuiteWorkload(const workloads::WorkloadSpec &w, const JobEnv &env,
                 SuiteCheckpointer *ckpt, const Json *ip)
{
    SuiteStep step;
    step.ws.name = w.name;
    // Deserialize the checkpointed run(s) before entering the
    // degrade-gracefully region: a record that cannot be restored
    // (e.g. an unknown tier string in a hand-edited file) means the
    // checkpoint itself cannot be trusted, so the resume must abort
    // loudly instead of re-measuring the workload as merely "failed".
    std::array<std::optional<harness::RunResult>, kSuiteTierCount>
        restored;
    if (ip)
        for (size_t t = 0; t < kSuiteTierCount; ++t)
            if (const Json *tj =
                    ip->get(vm::tierName(kSuiteTiers[t].tier)))
                restored[t] = harness::runFromJson(*tj);
    if (ckpt)
        ckpt->beginWorkload(w.name);
    try {
        // Deque, not vector: setTierDone keeps a pointer into the
        // container, so earlier runs must not move when later tiers
        // are appended.
        std::deque<harness::RunResult> runs;
        for (size_t t = 0; t < kSuiteTierCount; ++t) {
            vm::Tier tier = kSuiteTiers[t].tier;
            if (!restored[t]) {
                runs.push_back(harness::runExperiment(
                    w, suiteRunConfig(env, tier, ckpt)));
            } else if (!runComplete(*restored[t], env.spec)) {
                runs.push_back(std::move(*restored[t]));
                ensureWorkloadSpanOpen(env, w, runs.back());
                harness::resumeExperiment(
                    w, suiteRunConfig(env, tier, ckpt), runs.back());
            } else {
                runs.push_back(std::move(*restored[t]));
                // A restored-complete run still has its workload span
                // open in the restored trace (the checkpoint fired at
                // the final commit boundary, before the span closed);
                // emit the close the uninterrupted run would have
                // emitted. Only when the next tier's run had not
                // started yet, though: once it has, this tier's span
                // was closed before the checkpoint and the open span
                // belongs to the next tier's run.
                bool nextRestored = t + 1 < kSuiteTierCount &&
                    restored[t + 1].has_value();
                if (env.trace && !nextRestored)
                    env.trace->endSpansTo(1);
            }
            if (runs.back().interrupted) {
                step.interrupted = true;
                return step;
            }
            if (ckpt)
                ckpt->setTierDone(&runs.back());
        }
        if (ckpt)
            ckpt->endWorkload();
        finishWorkloadState(step.ws, runs);
        if (!env.spec.archiveDir.empty())
            for (auto &r : runs)
                step.runs.push_back(std::move(r));
    } catch (const FatalError &) {
        // Infrastructure failure (a checkpoint write died on a full
        // disk, say), not a workload failure: recording it as
        // "workload failed" would let the suite carry on without the
        // durability the user asked for. Abort loudly instead.
        throw;
    } catch (const std::exception &e) {
        if (ckpt)
            ckpt->endWorkload();
        logTraced(env, LogLevel::Warn, "workload %s failed: %s",
                  w.name.c_str(), e.what());
        step.ws.failed = true;
    }
    return step;
}

int
runRunJob(JobEnv &env)
{
    auto run = harness::runExperiment(env.spec.workload,
                                      makeConfig(env, env.spec.tier));
    env.out("%s", renderEstimate(run, estimateOf(run)).c_str());
    writeRunArtifacts(env, run);
    if (run.interrupted)
        return kExitInterrupted;
    if (run.invocations.empty())
        return kExitFailure;
    // Only completed runs are archived: a partial run would later
    // compare as if it were the whole measurement.
    if (!env.spec.archiveDir.empty())
        archiveAppend(env, {run});
    return kExitSuccess;
}

int
runSequentialJob(JobEnv &env)
{
    const JobSpec &spec = env.spec;
    harness::SequentialConfig seq;
    seq.targetRelativeHalfWidth = spec.targetPct / 100.0;
    seq.maxInvocations = std::max(spec.invocations, 8);
    auto res = harness::runSequential(spec.workload,
                                      makeConfig(env, spec.tier), seq);
    env.out("%s", renderEstimate(res.run, estimateOf(res.run)).c_str());
    if (!res.run.invocations.empty() && !res.run.interrupted) {
        env.out("  sequential: %s after %d invocations "
                "(target ±%.1f%%)\n",
                res.converged ? "converged" : "budget exhausted",
                res.invocationsUsed, spec.targetPct);
        std::string widths;
        for (double w : res.widthTrajectory)
            widths += strprintf(" %.2f%%", 100.0 * w);
        env.out("  width trajectory:%s\n", widths.c_str());
    }
    writeRunArtifacts(env, res.run);
    if (res.run.interrupted)
        return kExitInterrupted;
    return res.run.invocations.empty() ? kExitFailure : kExitSuccess;
}

/** `compare <workload>`: the adaptive tier's speedup over interp. */
int
runCompareJob(JobEnv &env)
{
    const std::string &w = env.spec.workload;
    auto interp =
        harness::runExperiment(w, makeConfig(env, vm::Tier::Interp));
    auto interpEst = estimateOf(interp);
    if (interp.interrupted) {
        env.out("%s", renderEstimate(interp, interpEst).c_str());
        return kExitInterrupted;
    }
    auto jit =
        harness::runExperiment(w, makeConfig(env, vm::Tier::Adaptive));
    auto jitEst = estimateOf(jit);
    env.out("%s%s", renderEstimate(interp, interpEst).c_str(),
            renderEstimate(jit, jitEst).c_str());
    if (jit.interrupted)
        return kExitInterrupted;
    if (!interpEst || !jitEst)
        return kExitFailure;
    auto s = harness::speedupFromEstimates(*interpEst, *jitEst);
    if (interp.invocations.size() < 2 || jit.invocations.size() < 2)
        env.out("speedup (adaptive over interp): %s (%s)\n",
                fmtDouble(s.ci.estimate, 3).c_str(), harness::kNoInterval);
    else
        env.out("speedup (adaptive over interp): %s %s\n",
                harness::formatCi(s.ci, 3).c_str(),
                s.significant ? "(significant)" : "(not significant)");
    return kExitSuccess;
}

int
runProfileJob(JobEnv &env)
{
    harness::ProfileConfig cfg;
    cfg.tier = env.spec.tier;
    cfg.iterations = env.spec.iterations;
    cfg.size = env.spec.size;
    cfg.seed = env.spec.seed;
    cfg.jitThreshold = env.spec.jitThreshold;
    env.out("%s", harness::renderProfile(
                      harness::profileWorkload(env.spec.workload, cfg))
                      .c_str());
    return kExitSuccess;
}

int
runSuiteJob(JobEnv &env)
{
    const JobSpec &spec = env.spec;
    harness::SuiteState state;
    state.seed = spec.seed;
    state.invocations = spec.invocations;
    state.iterations = spec.iterations;

    std::unique_ptr<SuiteCheckpointer> ckpt;
    Json inProgress;  // null unless a checkpoint left a run in flight
    if (!spec.resumePath.empty()) {
        ckpt = std::make_unique<SuiteCheckpointer>(env, state);
        if (stateFileExists(spec.resumePath)) {
            StateLoad load = loadStateFile(spec.resumePath);
            if (load.usedBackup)
                warn("%s", load.warning.c_str());
            const Json &payload = load.payload;
            if (!payload.has("kind") ||
                payload.at("kind").asString() != "suite")
                fatal("%s does not hold suite resume state",
                      spec.resumePath.c_str());
            Json current = configJson(spec);
            if (payload.at("config").dump() != current.dump())
                fatal("%s was recorded with a different "
                      "configuration; refusing to mix incomparable "
                      "measurements\n  recorded: %s\n  current:  %s",
                      spec.resumePath.c_str(),
                      payload.at("config").dump().c_str(),
                      current.dump().c_str());
            state = harness::suiteStateFromJson(payload.at("suite"));
            if (env.metrics)
                if (const Json *m = payload.get("metrics"))
                    env.metrics->restoreFromJson(*m);
            if (env.trace)
                if (const Json *t = payload.get("trace"))
                    env.trace->restoreCheckpoint(*t);
            if (const Json *ip = payload.get("in_progress"))
                inProgress = *ip;
            // Plain inform(), not logTraced(): the bookkeeping
            // message must not land in the trace, or a resumed trace
            // would differ from an uninterrupted one.
            if (!spec.quiet)
                inform("resuming from %s: %zu workload(s) already "
                       "done%s",
                       spec.resumePath.c_str(),
                       state.workloads.size(),
                       inProgress.isNull() ? ""
                                           : ", one in progress");
        }
    }

    // A restored trace checkpoint already has the suite span open.
    if (env.trace && env.trace->openSpans() == 0)
        env.trace->beginSpan("suite", "harness");

    // Heartbeat bookkeeping: long sweeps print one progress line per
    // workload so a terminal (or a daemon client's event stream)
    // shows where the suite is and how much modelled time and how
    // many failures have accumulated.
    size_t total = workloads::suite().size();
    size_t done = 0;
    double modelledMsTotal = 0.0;
    int failuresTotal = 0;
    bool interrupted = false;
    std::vector<harness::RunResult> archiveRuns;
    for (const auto &w : workloads::suite()) {
        ++done;
        // Completed by the process this one resumes.
        if (const auto *ws = state.find(w.name)) {
            modelledMsTotal += ws->modelledMs;
            failuresTotal += ws->failureCount;
            continue;
        }
        // Poll between workloads too, so a signal caught outside a
        // run (e.g. while estimates were computed) stops the suite
        // before more measurement work starts.
        if (interruptRequested()) {
            interrupted = true;
            break;
        }
        bool continues = !inProgress.isNull() &&
            inProgress.at("name").asString() == w.name;
        SuiteStep step = runSuiteWorkload(
            w, env, ckpt.get(), continues ? &inProgress : nullptr);
        if (step.interrupted) {
            // The final checkpoint was already written at the commit
            // boundary that observed the interrupt (with the partial
            // run attached); writing another here would capture
            // post-run state instead.
            interrupted = true;
            break;
        }
        for (auto &r : step.runs)
            archiveRuns.push_back(std::move(r));
        state.workloads.push_back(std::move(step.ws));
        const auto &ws = state.workloads.back();
        modelledMsTotal += ws.modelledMs;
        failuresTotal += ws.failureCount;
        logTraced(env, LogLevel::Info,
                  "suite [%zu/%zu] %s: %s; %.1f ms modelled, "
                  "%d failure(s) so far",
                  done, total, w.name.c_str(),
                  ws.quarantined ? "quarantined"
                      : ws.failed ? "failed"
                                  : "ok",
                  modelledMsTotal, failuresTotal);
        if (env.metrics) {
            env.metrics->gauge("suite.workloads_done")
                .set(static_cast<double>(done));
            env.metrics->gauge("suite.modelled_ms_total")
                .set(modelledMsTotal);
        }
        if (ckpt)
            ckpt->writeCompleted();
    }

    if (env.trace)
        env.trace->endSpansTo(0);

    // One estimate column per tier, then each tier's speedup over the
    // baseline with its significance.
    std::vector<std::string> header = {"benchmark"};
    for (const auto &st : kSuiteTiers)
        header.push_back(std::string(vm::tierName(st.tier)) + " ms");
    for (size_t i = 1; i < kSuiteTierCount; ++i)
        header.insert(header.end(),
                      {std::string(vm::tierName(kSuiteTiers[i].tier)) +
                           " speedup (95% CI)",
                       "sig"});
    Table t(header);
    std::array<std::vector<harness::SpeedupResult>, kSuiteTierCount - 1>
        speedups;
    int measured = 0;
    int degraded = 0;
    for (const auto &w : workloads::suite()) {
        const auto *ws = state.find(w.name);
        if (!ws)
            continue;
        std::vector<std::string> row = {ws->name};
        if (ws->failed) {
            row.resize(header.size(), "-");
            row[1 + kSuiteTierCount] =
                ws->quarantined ? "(quarantined)" : "(failed)";
            t.addRow(row);
            ++degraded;
            continue;
        }
        ++measured;
        for (double ms : ws->tierMs)
            row.push_back(fmtDouble(ms, 4));
        for (size_t i = 0; i < speedups.size(); ++i) {
            const auto &sp = ws->speedups[i];
            speedups[i].push_back(sp);
            row.push_back(harness::formatCi(sp.ci, 2));
            row.push_back(sp.significant ? "y" : "n");
        }
        t.addRow(row);
        if (ws->quarantined || ws->failureCount > 0)
            ++degraded;
    }
    env.out("%s", t.render().c_str());
    if (measured > 0)
        for (size_t i = 0; i < speedups.size(); ++i)
            env.out("geomean speedup (%s over %s): %s\n",
                    vm::tierName(kSuiteTiers[i + 1].tier),
                    vm::tierName(kSuiteTiers[0].tier),
                    harness::formatCi(
                        harness::geomeanSpeedup(speedups[i]), 2)
                        .c_str());

    if (degraded > 0) {
        Table ft({"benchmark", "status", "failures"});
        for (const auto &ws : state.workloads) {
            if (!ws.failed && !ws.quarantined &&
                ws.failureCount == 0)
                continue;
            const char *status = ws.quarantined ? "quarantined"
                : ws.failed                     ? "failed"
                                                : "degraded";
            ft.addRow({ws.name, status,
                       std::to_string(ws.failureCount)});
        }
        env.out("\nfailure summary (%d of %zu workloads "
                "affected):\n%s",
                degraded, state.workloads.size(),
                ft.render().c_str());
    }

    if (interrupted) {
        if (!spec.quiet) {
            if (!spec.resumePath.empty())
                inform("interrupted; resume with: rigorbench suite "
                       "--resume %s",
                       spec.resumePath.c_str());
            else
                inform("interrupted; rerun with --resume FILE to "
                       "make interruptions resumable");
        }
        return kExitInterrupted;
    }
    // Partial results are a success; only a suite where *nothing*
    // could be measured exits nonzero.
    if (measured == 0)
        return kExitFailure;
    if (!spec.archiveDir.empty() && !archiveRuns.empty())
        archiveAppend(env, archiveRuns);
    return kExitSuccess;
}

} // namespace

Json
configJson(const JobSpec &spec)
{
    Json c = Json::object();
    c.set("seed", strprintf("0x%016llx",
                            static_cast<unsigned long long>(
                                spec.seed)));
    c.set("invocations", spec.invocations);
    c.set("iterations", spec.iterations);
    c.set("size", spec.size);
    c.set("jit_threshold", spec.jitThreshold);
    c.set("max_retries", spec.maxRetries);
    c.set("deadline_ms", spec.deadlineMs);
    c.set("no_noise", spec.noNoise);
    // Cosmetic at first sight, but --quiet suppresses the log-mirror
    // instants in the trace, so it changes artifact bytes.
    c.set("quiet", spec.quiet);
    Json inj = Json::array();
    // io:* specs are excluded: they perturb the durability layer,
    // never the measurements, and the main reason to resume is a
    // crash one of them injected — the resume command won't (and must
    // not need to) repeat the flag.
    for (const auto &s : spec.injectSpecs)
        if (!startsWith(s, "io:"))
            inj.push(s);
    c.set("inject", std::move(inj));
    return c;
}

harness::RunnerConfig
makeRunnerConfig(const JobSpec &spec, vm::Tier tier,
                 const harness::FaultInjector *faults,
                 MetricsRegistry *metrics, TraceEmitter *trace)
{
    harness::RunnerConfig cfg;
    cfg.invocations = spec.invocations;
    cfg.iterations = spec.iterations;
    cfg.tier = tier;
    cfg.size = spec.size;
    cfg.seed = spec.seed;
    cfg.jobs = spec.jobs;
    cfg.jitThreshold = spec.jitThreshold;
    cfg.noise.enabled = !spec.noNoise;
    cfg.maxRetries = spec.maxRetries;
    cfg.deadlineMs = spec.deadlineMs;
    cfg.faults = faults;
    cfg.metrics = metrics;
    cfg.trace = trace;
    return cfg;
}

void
writeObservability(const MetricsRegistry *metrics,
                   const std::string &metricsPath, TraceEmitter *trace,
                   const std::string &tracePath,
                   const std::function<void(const std::string &)> &out)
{
    if (metrics && !metricsPath.empty()) {
        atomicWriteFile(metricsPath, metrics->toJson().dump(2) + "\n");
        out(strprintf("wrote %s\n", metricsPath.c_str()));
    }
    if (trace && !tracePath.empty()) {
        trace->endSpansTo(0);
        atomicWriteFile(tracePath, trace->toJson().dump(1) + "\n");
        out(strprintf("wrote %s\n", tracePath.c_str()));
    }
}

int
executeJob(const JobSpec &spec, const JobHooks &hooks)
{
    if (!hooks.output)
        panic("executeJob needs an output hook");
    validateJobSpec(spec);

    harness::FaultPlan plan;
    for (const auto &s : spec.injectSpecs)
        plan.add(s);
    harness::FaultInjector injector(plan, spec.seed);

    MetricsRegistry metrics;
    TraceEmitter trace;
    JobEnv env{spec, hooks, Out(hooks.output)};
    if (!spec.metricsPath.empty())
        env.metrics = &metrics;
    if (!spec.tracePath.empty())
        env.trace = &trace;
    env.faults = plan.empty() ? nullptr : &injector;

    int rc = spec.command == "suite" ? runSuiteJob(env)
        : spec.command == "sequential" ? runSequentialJob(env)
        : spec.command == "compare"    ? runCompareJob(env)
        : spec.command == "profile"    ? runProfileJob(env)
                                       : runRunJob(env);
    // Partial artifacts are flushed even after an interrupt, so what
    // was measured is never lost.
    writeObservability(env.metrics, spec.metricsPath, env.trace,
                       spec.tracePath, hooks.output);
    return rc;
}

QueryResult
runQuery(const QuerySpec &query)
{
    compare::CompareConfig cfg;
    cfg.confidence = query.confidence;
    cfg.resamples = query.resamples;
    cfg.seed = query.seed;
    cfg.baselineTier = query.baseTier;
    cfg.candidateTier = query.candTier;

    // `gate` defaults the candidate to the newest entry.
    std::string candRef = query.candRef;
    if (candRef.empty() && query.kind == "gate")
        candRef = "HEAD";
    // Checked here for every caller: the CLI leaves --archive to this
    // check (a runtime failure), and a spec from the socket skipped
    // the CLI's argument count.
    if (query.archiveDir.empty())
        fatal("comparing archive entries requires --archive DIR");
    if (query.baseRef.empty() || candRef.empty())
        fatal("%s takes two entry refs, e.g. '%s HEAD~1 HEAD "
              "--archive DIR'",
              query.kind.c_str(), query.kind.c_str());

    archive::RunArchive ar(query.archiveDir);
    archive::ScanResult scanned = ar.scan();
    archive::Entry base = ar.resolve(scanned, query.baseRef);
    archive::Entry cand = ar.resolve(scanned, candRef);
    auto report = compare::compareEntries(base, cand, cfg);
    report.baselineRef = query.baseRef;
    report.candidateRef = candRef;

    QueryResult res;
    if (query.kind == "compare") {
        res.text = compare::renderMarkdown(report);
        res.doc = compare::reportToJson(report);
        return res;
    }
    if (query.kind == "explain") {
        auto ex = explain::explainEntries(base, cand, report);
        res.text = explain::renderMarkdown(ex);
        res.doc = explain::reportToJson(ex);
        return res;
    }
    // gate
    auto gate = compare::evaluateGate(report, query.gateThresholdPct);
    res.text = compare::renderGate(gate, report);
    if (query.explainGate && !gate.pass) {
        // Root-cause every failing pair, worst first (the gate's
        // regression order), straight into the CI log.
        auto ex = explain::explainEntries(base, cand, report);
        res.text += "\n";
        for (const auto &r : gate.regressions) {
            const explain::PairExplanation *pe =
                explain::findPair(ex, r.workload, r.tier);
            if (pe)
                res.text += explain::renderPair(*pe) + "\n";
        }
    }
    Json root = compare::reportToJson(report);
    Json g = Json::object();
    g.set("pass", gate.pass);
    g.set("threshold_pct", gate.thresholdPct);
    Json regs = Json::array();
    for (const auto &r : gate.regressions) {
        Json j = Json::object();
        j.set("workload", r.workload);
        j.set("tier", r.tier);
        j.set("slowdown_pct", r.slowdownPct);
        regs.push(std::move(j));
    }
    g.set("regressions", std::move(regs));
    root.set("gate", std::move(g));
    res.doc = std::move(root);
    res.exitCode = gate.pass ? kExitSuccess : kExitRegression;
    return res;
}

} // namespace serve
} // namespace rigor

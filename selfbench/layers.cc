/**
 * @file
 * The layer probe of a traced run: host cost per simulated bytecode of
 * the VM alone and of the uarch layer fed a recorded event stream;
 * plus runExperiment at --jobs 1 and 2.
 *
 * The probe runs the suite design's first invocation of every workload
 * and tier: default size, the runner's seeds and configs, two
 * iterations. Replay isolates the uarch layer from the VM: a
 * benchmark-owned observer records one invocation's event stream
 * (module set-up plus two iterations), which is then fed through the
 * layer's public entry points; only the second iteration's replay is
 * timed. The replayed PerfModel must reproduce the counters of a
 * PerfModel that watched the live run, bit for bit.
 */

#include <thread>

#include "bench.hh"
#include "harness/runner.hh"
#include "serve/jobrun.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "uarch/perf_model.hh"
#include "vm/compiler.hh"
#include "vm/interp.hh"
#include "vm/metrics_observer.hh"
#include "workloads/workloads.hh"

namespace selfbench {

namespace {

using rigor::vm::Op;

/** One recorded observer callback (16 bytes). */
struct Event
{
    enum Kind : uint8_t
    {
        Bytecode, Dispatch, Branch, CodeFetch, Mem, Alloc, AllocSite,
        Call, Return, JitCompile, Guard
    };
    Kind kind;
    bool flag;
    uint16_t op;
    uint32_t size;
    uint64_t addr;
};

/** Records the event stream the VM emits. */
class RecordingObserver : public rigor::vm::ExecutionObserver
{
  public:
    std::vector<Event> events;
    uint64_t bytecodes = 0;

    void
    onBytecode(Op op, uint32_t uops) override
    {
        ++bytecodes;
        add(Event::Bytecode, false, op, uops, 0);
    }
    void onDispatch(Op op) override { add(Event::Dispatch, false, op, 0, 0); }
    void
    onBranch(uint64_t site, bool taken) override
    {
        add(Event::Branch, taken, Op{}, 0, site);
    }
    void
    onCodeFetch(uint64_t addr) override
    {
        add(Event::CodeFetch, false, Op{}, 0, addr);
    }
    void
    onMemAccess(uint64_t addr, uint32_t size, bool is_write) override
    {
        add(Event::Mem, is_write, Op{}, size, addr);
    }
    void
    onAlloc(uint64_t addr, uint32_t size) override
    {
        add(Event::Alloc, false, Op{}, size, addr);
    }
    void
    onAllocSite(uint64_t site, uint32_t size) override
    {
        add(Event::AllocSite, false, Op{}, size, site);
    }
    void onCall() override { add(Event::Call, false, Op{}, 0, 0); }
    void onReturn() override { add(Event::Return, false, Op{}, 0, 0); }
    void
    onJitCompile(uint32_t code_id, uint64_t cost_uops) override
    {
        add(Event::JitCompile, false, Op{}, code_id, cost_uops);
    }
    void onGuardFailure(Op op) override { add(Event::Guard, false, op, 0, 0); }

  private:
    void
    add(Event::Kind k, bool flag, Op op, uint32_t size, uint64_t addr)
    {
        events.push_back(
            {k, flag, static_cast<uint16_t>(op), size, addr});
    }
};

/** A recorded stream: [0, warmEnd) warms state, the rest is timed. */
struct Stream
{
    std::vector<Event> events;
    size_t warmEnd = 0;
    /** Bytecodes in the timed part. */
    uint64_t timedBytecodes = 0;
};

/** Feed events [begin, end) to any observer. */
void
replay(const std::vector<Event> &events, size_t begin, size_t end,
       rigor::vm::ExecutionObserver &o)
{
    for (size_t i = begin; i < end; ++i) {
        const Event &e = events[i];
        Op op = static_cast<Op>(e.op);
        switch (e.kind) {
          case Event::Bytecode: o.onBytecode(op, e.size); break;
          case Event::Dispatch: o.onDispatch(op); break;
          case Event::Branch: o.onBranch(e.addr, e.flag); break;
          case Event::CodeFetch: o.onCodeFetch(e.addr); break;
          case Event::Mem: o.onMemAccess(e.addr, e.size, e.flag); break;
          case Event::Alloc: o.onAlloc(e.addr, e.size); break;
          case Event::AllocSite: o.onAllocSite(e.addr, e.size); break;
          case Event::Call: o.onCall(); break;
          case Event::Return: o.onReturn(); break;
          case Event::JitCompile: o.onJitCompile(e.size, e.addr); break;
          case Event::Guard: o.onGuardFailure(op); break;
        }
    }
}

/** The cache accesses PerfModel::onMemAccess/onAlloc would make. */
uint64_t
replayCaches(const std::vector<Event> &events, size_t begin, size_t end,
             rigor::uarch::CacheHierarchy &caches)
{
    uint64_t accesses = 0;
    for (size_t i = begin; i < end; ++i) {
        const Event &e = events[i];
        if (e.kind != Event::Mem && e.kind != Event::Alloc)
            continue;
        uint32_t size = e.kind == Event::Alloc && e.size > 64 ? 64
                                                               : e.size;
        uint64_t first = e.addr / 64;
        uint64_t last = (e.addr + (size ? size - 1 : 0)) / 64;
        for (uint64_t line = first; line <= last; ++line) {
            caches.access(line * 64);
            ++accesses;
        }
    }
    return accesses;
}

/** The predictor updates PerfModel::onBranch/onDispatch would make. */
uint64_t
replayBranches(const std::vector<Event> &events, size_t begin, size_t end,
               rigor::uarch::GsharePredictor &cond,
               rigor::uarch::DispatchPredictor &dispatch)
{
    uint64_t n = 0;
    for (size_t i = begin; i < end; ++i) {
        const Event &e = events[i];
        if (e.kind == Event::Branch) {
            cond.predictAndUpdate(e.addr, e.flag);
            ++n;
        } else if (e.kind == Event::Dispatch) {
            dispatch.predictAndUpdate(e.op);
            ++n;
        }
    }
    return n;
}

/** The seed runner.cc derives from (master, stream, index). */
uint64_t
runnerSeed(uint64_t master, uint64_t stream, uint64_t index)
{
    rigor::SplitMix64 sm(master ^ (stream * 0x9e3779b97f4a7c15ULL) ^
                         (index + 1));
    return sm.next();
}

/**
 * The configs the runner builds for invocation 0 (first attempt) of
 * the suite design on `tier`.
 */
void
tierConfigs(rigor::vm::Tier tier, const Options &opts,
            rigor::vm::InterpConfig &icfg,
            rigor::uarch::PerfModelConfig &ucfg)
{
    rigor::serve::JobSpec spec;
    spec.seed = suiteSeed(opts.seed);
    auto rc = rigor::serve::makeRunnerConfig(spec, tier, nullptr, nullptr,
                                             nullptr);
    uint64_t inv = runnerSeed(rc.seed, 1, 0);
    icfg = {};
    icfg.tier = tier;
    icfg.jitThreshold = rc.jitThreshold;
    icfg.dispatchUops = rc.dispatchUops;
    icfg.hashSeed = runnerSeed(inv, 2, 0);
    icfg.aslrSeed = runnerSeed(inv, 3, 0);
    icfg.captureOutput = false;
    ucfg = rc.uarch;
    if (tier == rigor::vm::Tier::Threaded) {
        icfg.dispatchUops = rigor::harness::kThreadedDispatchUops;
        ucfg.dispatchHistoryOps =
            rigor::harness::kThreadedDispatchHistoryOps;
    }
}

bool
sameCounters(const rigor::uarch::CounterSet &a,
             const rigor::uarch::CounterSet &b)
{
    return a.bytecodes == b.bytecodes && a.instructions == b.instructions &&
        a.cycles == b.cycles && a.branchMisses == b.branchMisses &&
        a.dispatchMisses == b.dispatchMisses &&
        a.l1dMisses == b.l1dMisses && a.l1iMisses == b.l1iMisses &&
        a.l2Misses == b.l2Misses && a.llcMisses == b.llcMisses;
}

/**
 * The iterations of one invocation, as the runner makes them: each
 * call of run(size) is timed, and the bytecodes they execute are
 * counted.
 */
void
timedCalls(rigor::vm::Interp &interp, int64_t size, const char *span,
           const std::string &counter)
{
    for (int i = 0; i < kSuiteIterations; ++i) {
        uint64_t before = interp.stats().bytecodes;
        {
            ScopedSpan s(span);
            interp.callGlobal("run", {rigor::vm::Value::makeInt(size)});
        }
        recorder().count(counter, static_cast<double>(
                                      interp.stats().bytecodes - before));
    }
}

/** vm and uarch layers over every workload and tier. */
void
probeVmAndUarch(const Options &opts, std::vector<std::string> &errors)
{
    static const rigor::vm::Tier tiers[] = {rigor::vm::Tier::Interp,
                                            rigor::vm::Tier::Adaptive,
                                            rigor::vm::Tier::Threaded};
    rigor::MetricsRegistry registry;
    for (const auto &w : rigor::workloads::suite()) {
        rigor::vm::Program prog;
        {
            ScopedSpan c("vm.compile");
            prog = rigor::vm::compileSource(w.source, w.name);
        }
        for (rigor::vm::Tier tier : tiers) {
            rigor::vm::InterpConfig icfg;
            rigor::uarch::PerfModelConfig ucfg;
            tierConfigs(tier, opts, icfg, ucfg);
            std::string tname = rigor::vm::tierName(tier);
            const int64_t size = w.defaultSize;
            {
                // The VM with no observer: pure dispatch cost.
                rigor::vm::Interp bare(prog, icfg, nullptr);
                bare.runModule();
                std::string span = "vm." + tname + ".call";
                timedCalls(bare, size, span.c_str(),
                           "vm." + tname + ".bytecodes");
            }
            // Record module set-up plus two iterations next to a live
            // model, then replay the stream into each uarch entry
            // point: the first iteration warms the replayed state
            // untimed, the second is timed.
            RecordingObserver rec;
            rigor::uarch::PerfModel watched(ucfg);
            rigor::vm::MultiplexObserver tee;
            tee.add(&rec);
            tee.add(&watched);
            Stream st;
            {
                rigor::vm::Interp interp(prog, icfg, &tee);
                interp.runModule();
                interp.callGlobal("run", {rigor::vm::Value::makeInt(size)});
                st.warmEnd = rec.events.size();
                uint64_t before = rec.bytecodes;
                interp.callGlobal("run", {rigor::vm::Value::makeInt(size)});
                st.timedBytecodes = rec.bytecodes - before;
            }
            st.events = std::move(rec.events);
            const auto &ev = st.events;
            const size_t mid = st.warmEnd, end = ev.size();
            recorder().count("uarch.replay.bytecodes",
                             static_cast<double>(st.timedBytecodes));
            {
                rigor::uarch::PerfModel model(ucfg);
                replay(ev, 0, mid, model);
                {
                    ScopedSpan s("uarch.model.replay");
                    replay(ev, mid, end, model);
                }
                if (!sameCounters(model.snapshot(), watched.snapshot()))
                    errors.push_back(rigor::strprintf(
                        "replayed PerfModel counters differ from the "
                        "live ones for %s/%s",
                        w.name.c_str(), tname.c_str()));
            }
            {
                // The replay loop itself, into observers that do nothing.
                rigor::vm::ExecutionObserver none;
                ScopedSpan s("uarch.null.replay");
                replay(ev, mid, end, none);
            }
            {
                auto caches = rigor::uarch::CacheHierarchy::makeDefault();
                replayCaches(ev, 0, mid, caches);
                uint64_t n;
                {
                    ScopedSpan s("uarch.cache.replay");
                    n = replayCaches(ev, mid, end, caches);
                }
                recorder().count("uarch.cache.accesses",
                                 static_cast<double>(n));
            }
            {
                rigor::uarch::GsharePredictor cond;
                rigor::uarch::DispatchPredictor dispatch(
                    12, ucfg.dispatchHistoryOps);
                replayBranches(ev, 0, mid, cond, dispatch);
                uint64_t n;
                {
                    ScopedSpan s("uarch.branch.replay");
                    n = replayBranches(ev, mid, end, cond, dispatch);
                }
                recorder().count("uarch.branch.events",
                                 static_cast<double>(n));
            }
            {
                rigor::uarch::PerfModel model(ucfg);
                rigor::vm::MetricsObserver mobs(&registry, "vm." + tname);
                rigor::vm::MultiplexObserver mux;
                mux.add(&model);
                mux.add(&mobs);
                replay(ev, 0, mid, mux);
                ScopedSpan s("uarch.mux.replay");
                replay(ev, mid, end, mux);
            }
        }
    }
}

/** The same runExperiment calls at --jobs 1 and at --jobs 2. */
void
probeJobs(const Options &opts)
{
    static const char *names[] = {"nbody", "richards", "hashtable",
                                  "fannkuch"};
    unsigned hw = std::thread::hardware_concurrency();
    for (int jobs : {1, hw >= 2 ? 2 : 1}) {
        ScopedSpan all(jobs == 1 ? "harness.jobs1" : "harness.jobs2");
        for (const char *name : names) {
            const auto &w = rigor::workloads::findWorkload(name);
            rigor::harness::RunnerConfig cfg;
            cfg.invocations = 4;
            cfg.iterations = kSuiteIterations;
            cfg.seed = suiteSeed(opts.seed);
            cfg.jobs = jobs;
            rigor::harness::runExperiment(w, cfg);
        }
    }
}

} // namespace

std::vector<std::string>
runLayerProbe(const Options &opts)
{
    std::vector<std::string> errors;
    probeVmAndUarch(opts, errors);
    probeJobs(opts);
    return errors;
}

} // namespace selfbench

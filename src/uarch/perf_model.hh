/**
 * @file
 * The performance model: an ExecutionObserver that converts the VM's
 * dynamic event stream into simulated cycles and perf counters.
 *
 * The timing model is additive: committed micro-ops retire at the
 * machine's issue width; branch/dispatch mispredictions and cache
 * misses add penalty cycles on top. Memory-level parallelism is
 * modelled by scaling miss latency with an overlap factor, as a stand
 * -in for out-of-order overlap.
 */

#ifndef RIGOR_UARCH_PERF_MODEL_HH
#define RIGOR_UARCH_PERF_MODEL_HH

#include <memory>

#include "uarch/branch.hh"
#include "uarch/cache.hh"
#include "uarch/counters.hh"
#include "vm/observer.hh"

namespace rigor {
namespace uarch {

/** Knobs of the performance model. */
struct PerfModelConfig
{
    /** Micro-ops retired per cycle at best. */
    double issueWidth = 4.0;
    /** Penalty cycles per conditional-branch mispredict. */
    uint32_t branchMissPenalty = 14;
    /** Penalty cycles per mispredicted interpreter dispatch. */
    uint32_t dispatchMissPenalty = 18;
    /** Fraction of miss latency exposed (models OoO/MLP overlap). */
    double memOverlapFactor = 0.45;
    /**
     * Opcode-history depth available to the dispatch predictor.
     * ~2 models a switch-based interpreter (one shared indirect
     * branch); ~6 models threaded code (per-handler branches).
     */
    unsigned dispatchHistoryOps = 2;
    /** Conditional predictor flavour. */
    enum class Predictor { Bimodal, Gshare } predictor =
        Predictor::Gshare;
    /** Model caches (false = cost-model-only ablation). */
    bool modelCaches = true;
    /** Penalty cycles per L1I miss (refill from L2). */
    uint32_t l1iMissPenalty = 10;
    /** Model branch predictors (false = fixed rates ablation). */
    bool modelBranches = true;
};

/** ExecutionObserver that simulates the microarchitecture. */
class PerfModel : public vm::ExecutionObserver
{
  public:
    explicit PerfModel(PerfModelConfig config = {});

    // ExecutionObserver interface. onStep does the fetch, dispatch
    // and retire work inline; the three per-part callbacks do the
    // same work one part at a time.
    void onStep(vm::Op op, uint32_t uops, uint64_t fetch_addr,
                bool dispatched) override;
    void onBytecode(vm::Op op, uint32_t uops) override;
    void onCodeFetch(uint64_t addr) override;
    void onDispatch(vm::Op op) override;
    void onBranch(uint64_t site, bool taken) override;
    void onMemAccess(uint64_t addr, uint32_t size,
                     bool is_write) override;
    void onAlloc(uint64_t addr, uint32_t size) override;
    void onJitCompile(uint32_t code_id, uint64_t cost_uops) override;
    void onGuardFailure(vm::Op op) override;

    /** Current counter values (cycles computed on the fly). */
    CounterSet snapshot() const;

    /** Reset counters AND microarchitectural state (cold start). */
    void reset();

    /** Reset counters only; caches/predictors stay warm. */
    void resetCounters();

    const PerfModelConfig &config() const { return cfg; }

    /** The data-cache hierarchy behind the l1d/l2/llc counters. */
    const CacheHierarchy &dataCaches() const { return caches; }

  private:
    void fetch(uint64_t addr);
    void dispatch(vm::Op op);
    void retire(uint32_t uops);

    PerfModelConfig cfg;
    CounterSet counters;
    double penaltyCycles = 0.0;

    std::unique_ptr<BranchPredictor> branchPred;
    DispatchPredictor dispatchPred;
    CacheHierarchy caches;
    Cache icache;
};

} // namespace uarch
} // namespace rigor

#endif // RIGOR_UARCH_PERF_MODEL_HH

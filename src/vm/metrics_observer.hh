/**
 * @file
 * ExecutionObserver that streams the VM's dynamic events into
 * per-tier counters of a MetricsRegistry. It is selfbench's
 * per-layer probe of the observer fan-out (with MultiplexObserver):
 * the runner folds its `vm.<tier>.*` metrics from InterpStats instead
 * and runs the uarch model as its only observer. Both classes go with
 * ROADMAP item 9.
 *
 * Counters are resolved once at construction (name -> pointer), so
 * the per-event cost is one virtual call plus a few integer adds.
 * Metric names are prefixed per tier ("vm.interp.*" /
 * "vm.adaptive.*"): the same registry can carry both tiers of a
 * comparison without the totals bleeding into each other.
 */

#ifndef RIGOR_VM_METRICS_OBSERVER_HH
#define RIGOR_VM_METRICS_OBSERVER_HH

#include "support/metrics.hh"
#include "vm/observer.hh"

namespace rigor {
namespace vm {

/** Streams VM execution events into metrics counters. */
class MetricsObserver : public ExecutionObserver
{
  public:
    /**
     * @param registry destination registry, or nullptr (counts
     *        nothing).
     * @param tier_prefix metric-name prefix, e.g. "vm.interp".
     */
    MetricsObserver(MetricsRegistry *registry,
                    const std::string &tier_prefix);

    void onBytecode(Op op, uint32_t uops) override;
    void onDispatch(Op op) override;
    void onBranch(uint64_t site, bool taken) override;
    void onAlloc(uint64_t addr, uint32_t size) override;
    void onCall() override;
    void onJitCompile(uint32_t code_id, uint64_t cost_uops) override;
    void onGuardFailure(Op op) override;

  private:
    // Cached metric handles (null when no registry was given).
    Counter *bytecodes = nullptr;
    Counter *uopsTotal = nullptr;
    Counter *dispatches = nullptr;
    Counter *branches = nullptr;
    Counter *allocations = nullptr;
    Counter *allocatedBytes = nullptr;
    Counter *calls = nullptr;
    Counter *jitCompiles = nullptr;
    Counter *jitCompileUops = nullptr;
    Counter *guardFailures = nullptr;
};

} // namespace vm
} // namespace rigor

#endif // RIGOR_VM_METRICS_OBSERVER_HH

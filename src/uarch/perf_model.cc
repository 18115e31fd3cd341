#include "uarch/perf_model.hh"

#include <cmath>

namespace rigor {
namespace uarch {

PerfModel::PerfModel(PerfModelConfig config)
    : cfg(config), dispatchPred(12, config.dispatchHistoryOps),
      caches(CacheHierarchy::makeDefault()),
      icache({32 * 1024, 64, 8})
{
    if (cfg.predictor == PerfModelConfig::Predictor::Bimodal)
        branchPred = std::make_unique<BimodalPredictor>();
    else
        branchPred = std::make_unique<GsharePredictor>();
}

void
PerfModel::onBytecode(vm::Op op, uint32_t uops)
{
    (void)op;
    ++counters.bytecodes;
    counters.instructions += uops;
}

void
PerfModel::onCodeFetch(uint64_t addr)
{
    if (!cfg.modelCaches)
        return;
    ++counters.l1iAccesses;
    if (!icache.access(addr)) {
        ++counters.l1iMisses;
        penaltyCycles += cfg.l1iMissPenalty;
    }
}

void
PerfModel::onDispatch(vm::Op op)
{
    ++counters.dispatches;
    if (!cfg.modelBranches)
        return;
    bool correct =
        dispatchPred.predictAndUpdate(static_cast<uint16_t>(op));
    if (!correct) {
        ++counters.dispatchMisses;
        penaltyCycles += cfg.dispatchMissPenalty;
    }
}

void
PerfModel::onBranch(uint64_t site, bool taken)
{
    ++counters.branches;
    if (!cfg.modelBranches)
        return;
    if (!branchPred->predictAndUpdate(site, taken)) {
        ++counters.branchMisses;
        penaltyCycles += cfg.branchMissPenalty;
    }
}

void
PerfModel::onMemAccess(uint64_t addr, uint32_t size, bool is_write)
{
    if (is_write)
        ++counters.stores;
    else
        ++counters.loads;
    if (!cfg.modelCaches)
        return;
    // Touch every line the access spans (usually one).
    uint64_t first = addr / 64;
    uint64_t last = (addr + (size ? size - 1 : 0)) / 64;
    for (uint64_t line = first; line <= last; ++line) {
        ++counters.l1dAccesses;
        // Every level above the one that hit missed.
        unsigned level = caches.accessLevel(line * 64);
        counters.l1dMisses += level > CacheHierarchy::L1;
        counters.l2Misses += level > CacheHierarchy::L2;
        counters.llcMisses += level > CacheHierarchy::Llc;
        penaltyCycles += cfg.memOverlapFactor * caches.latency(level);
    }
}

void
PerfModel::onAlloc(uint64_t addr, uint32_t size)
{
    ++counters.allocations;
    counters.allocatedBytes += size;
    // Allocation writes the header line (write-allocate traffic).
    onMemAccess(addr, size > 64 ? 64 : size, true);
}

void
PerfModel::onJitCompile(uint32_t code_id, uint64_t cost_uops)
{
    (void)code_id;
    // Compilation work retires like ordinary instructions; it shows
    // up as the warmup spike in per-iteration times.
    counters.instructions += cost_uops;
}

void
PerfModel::onGuardFailure(vm::Op op)
{
    (void)op;
    // Deopt path: modelled as a mispredicted branch.
    penaltyCycles += cfg.branchMissPenalty;
}

CounterSet
PerfModel::snapshot() const
{
    CounterSet out = counters;
    out.cycles = static_cast<uint64_t>(
        std::llround(static_cast<double>(counters.instructions) /
                         cfg.issueWidth +
                     penaltyCycles));
    return out;
}

void
PerfModel::reset()
{
    resetCounters();
    branchPred->reset();
    dispatchPred.reset();
    caches.reset();
    icache.reset();
}

void
PerfModel::resetCounters()
{
    counters = {};
    penaltyCycles = 0.0;
}

} // namespace uarch
} // namespace rigor

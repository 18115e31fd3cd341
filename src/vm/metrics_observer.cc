#include "vm/metrics_observer.hh"

namespace rigor {
namespace vm {

MetricsObserver::MetricsObserver(MetricsRegistry *registry,
                                 const std::string &tier_prefix)
{
    if (!registry)
        return;
    auto c = [&](const char *name) -> Counter * {
        return &registry->counter(tier_prefix + "." + name);
    };
    bytecodes = c("bytecodes");
    uopsTotal = c("uops");
    dispatches = c("dispatches");
    branches = c("branches");
    allocations = c("allocations");
    allocatedBytes = c("allocated_bytes");
    calls = c("calls");
    jitCompiles = c("jit_compiles");
    jitCompileUops = c("jit_compile_uops");
    guardFailures = c("guard_failures");
}

void
MetricsObserver::onBytecode(Op op, uint32_t uops)
{
    (void)op;
    if (bytecodes) {
        bytecodes->inc();
        uopsTotal->inc(uops);
    }
}

void
MetricsObserver::onDispatch(Op op)
{
    (void)op;
    if (dispatches)
        dispatches->inc();
}

void
MetricsObserver::onBranch(uint64_t site, bool taken)
{
    (void)site;
    (void)taken;
    if (branches)
        branches->inc();
}

void
MetricsObserver::onAlloc(uint64_t addr, uint32_t size)
{
    (void)addr;
    if (allocations) {
        allocations->inc();
        allocatedBytes->inc(size);
    }
}

void
MetricsObserver::onCall()
{
    if (calls)
        calls->inc();
}

void
MetricsObserver::onJitCompile(uint32_t code_id, uint64_t cost_uops)
{
    (void)code_id;
    if (jitCompiles) {
        jitCompiles->inc();
        jitCompileUops->inc(cost_uops);
    }
}

void
MetricsObserver::onGuardFailure(Op op)
{
    (void)op;
    if (guardFailures)
        guardFailures->inc();
}

} // namespace vm
} // namespace rigor

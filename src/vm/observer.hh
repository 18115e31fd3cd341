/**
 * @file
 * Execution-event observer interface.
 *
 * The interpreter streams dynamic-execution events (bytecodes with
 * their micro-op cost, conditional branches, simulated memory
 * accesses, allocations, interpreter dispatches) to an observer. The
 * microarchitecture model implements this interface to derive cycles,
 * IPC, branch MPKI and cache MPKI; the instruction-mix profiler
 * implements it to classify the dynamic bytecode stream.
 */

#ifndef RIGOR_VM_OBSERVER_HH
#define RIGOR_VM_OBSERVER_HH

#include <cstdint>
#include <vector>

#include "vm/code.hh"

namespace rigor {
namespace vm {

/**
 * Observer of the VM's dynamic execution. All callbacks have empty
 * default implementations so observers override only what they need.
 */
class ExecutionObserver
{
  public:
    virtual ~ExecutionObserver() = default;

    /**
     * One bytecode executed: the VM's only per-bytecode call, made
     * where it accounts the bytecode, after the bytecode's own
     * branch, memory, allocation and guard events (Call and MakeClass
     * before the code they run, Raise before it throws). The default
     * delivers its three parts in order: onCodeFetch(fetch_addr),
     * onDispatch(op) when `dispatched`, then onBytecode(op, uops). An
     * observer that needs no per-part virtual call overrides this.
     *
     * A bytecode that throws before it is accounted delivers only its
     * fetch, through onCodeFetch; the handler entry that catches it is
     * delivered through onBytecode(Op::Raise, ...) alone.
     */
    virtual void
    onStep(Op op, uint32_t uops, uint64_t fetch_addr, bool dispatched)
    {
        onCodeFetch(fetch_addr);
        if (dispatched)
            onDispatch(op);
        onBytecode(op, uops);
    }

    /**
     * One bytecode completed.
     * @param op the (possibly quickened) opcode.
     * @param uops micro-ops this bytecode expanded to, including any
     *        interpreter dispatch overhead.
     */
    virtual void
    onBytecode(Op op, uint32_t uops)
    {
        (void)op;
        (void)uops;
    }

    /**
     * Interpreter dispatch: the indirect branch selecting the next
     * handler. Emitted by the dispatching tiers (baseline interpreter
     * and direct-threaded); the adaptive tier's compiled code has no
     * dispatch.
     * @param op the opcode being dispatched to.
     */
    virtual void
    onDispatch(Op op)
    {
        (void)op;
    }

    /**
     * A conditional branch resolved.
     * @param site static branch site id (unique per bytecode pc).
     * @param taken branch outcome.
     */
    virtual void
    onBranch(uint64_t site, bool taken)
    {
        (void)site;
        (void)taken;
    }

    /**
     * Instruction fetch for the code implementing this bytecode.
     * Interpreter tiers fetch from a small shared handler table
     * (one region per opcode); compiled code fetches from a
     * per-(code object, pc) region, giving the JIT a much larger
     * instruction footprint.
     */
    virtual void
    onCodeFetch(uint64_t addr)
    {
        (void)addr;
    }

    /** A simulated data-memory access. */
    virtual void
    onMemAccess(uint64_t addr, uint32_t size, bool is_write)
    {
        (void)addr;
        (void)size;
        (void)is_write;
    }

    /** A heap object allocated at the simulated address. */
    virtual void
    onAlloc(uint64_t addr, uint32_t size)
    {
        (void)addr;
        (void)size;
    }

    /**
     * Bytecode-site attribution of an allocation (profiling).
     * @param site (codeId << 20) | pc of the allocating bytecode, the
     *        same encoding branch sites use; 0 when the allocation
     *        happened outside bytecode execution (VM setup).
     */
    virtual void
    onAllocSite(uint64_t site, uint32_t size)
    {
        (void)site;
        (void)size;
    }

    /** Entering a MiniPy function call. */
    virtual void onCall() {}
    /** Returning from a MiniPy function call. */
    virtual void onReturn() {}

    /**
     * The adaptive tier compiled a code object (modelled compile
     * pause) or the threaded tier quickened one up-front;
     * `cost_uops` is the modelled compilation/quickening work.
     */
    virtual void
    onJitCompile(uint32_t code_id, uint64_t cost_uops)
    {
        (void)code_id;
        (void)cost_uops;
    }

    /** A specialization guard failed (deoptimization to generic path). */
    virtual void
    onGuardFailure(Op op)
    {
        (void)op;
    }
};

/**
 * Fans the event stream out to several observers. The VM takes a
 * single observer pointer, and the runner attaches only the uarch
 * model; this class remains as selfbench's per-layer probe of the
 * fan-out cost (with MetricsObserver) and goes with ROADMAP item 9.
 */
class MultiplexObserver : public ExecutionObserver
{
  public:
    /** Attach a sink (not owned; must outlive the multiplexer). */
    void
    add(ExecutionObserver *observer)
    {
        if (observer)
            sinks.push_back(observer);
    }

    void
    onStep(Op op, uint32_t uops, uint64_t fetch_addr,
           bool dispatched) override
    {
        for (auto *s : sinks)
            s->onStep(op, uops, fetch_addr, dispatched);
    }

    void
    onBytecode(Op op, uint32_t uops) override
    {
        for (auto *s : sinks)
            s->onBytecode(op, uops);
    }

    void
    onDispatch(Op op) override
    {
        for (auto *s : sinks)
            s->onDispatch(op);
    }

    void
    onBranch(uint64_t site, bool taken) override
    {
        for (auto *s : sinks)
            s->onBranch(site, taken);
    }

    void
    onCodeFetch(uint64_t addr) override
    {
        for (auto *s : sinks)
            s->onCodeFetch(addr);
    }

    void
    onMemAccess(uint64_t addr, uint32_t size, bool is_write) override
    {
        for (auto *s : sinks)
            s->onMemAccess(addr, size, is_write);
    }

    void
    onAlloc(uint64_t addr, uint32_t size) override
    {
        for (auto *s : sinks)
            s->onAlloc(addr, size);
    }

    void
    onAllocSite(uint64_t site, uint32_t size) override
    {
        for (auto *s : sinks)
            s->onAllocSite(site, size);
    }

    void
    onCall() override
    {
        for (auto *s : sinks)
            s->onCall();
    }

    void
    onReturn() override
    {
        for (auto *s : sinks)
            s->onReturn();
    }

    void
    onJitCompile(uint32_t code_id, uint64_t cost_uops) override
    {
        for (auto *s : sinks)
            s->onJitCompile(code_id, cost_uops);
    }

    void
    onGuardFailure(Op op) override
    {
        for (auto *s : sinks)
            s->onGuardFailure(op);
    }

  private:
    std::vector<ExecutionObserver *> sinks;
};

} // namespace vm
} // namespace rigor

#endif // RIGOR_VM_OBSERVER_HH

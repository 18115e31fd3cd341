/**
 * @file
 * The MiniPy virtual machine.
 *
 * One Interp instance models one *VM invocation*: it owns the module
 * globals, the hash-randomization seed, the simulated heap layout
 * (ASLR-like base offset) and — when the adaptive tier is enabled —
 * all JIT state (hot counters, quickened code, inline caches). Running
 * the same Program in a fresh Interp therefore reproduces the
 * cross-invocation non-determinism the methodology studies.
 */

#ifndef RIGOR_VM_INTERP_HH
#define RIGOR_VM_INTERP_HH

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "vm/code.hh"
#include "vm/observer.hh"
#include "vm/value.hh"

namespace rigor {
namespace vm {

/** Which runtime tier executes the program. */
enum class Tier : uint8_t
{
    Interp,    ///< baseline interpreter (CPython-like)
    Adaptive,  ///< hot-loop quickening tier (PyPy-like warmup model)
    Threaded,  ///< direct-threaded fast tier (quickened up-front)
};

/** Name of a tier ("interp" / "adaptive" / "threaded"). */
const char *tierName(Tier t);

/**
 * Parse a tier name back. The inverse of tierName, used by every
 * deserialization site (resume files, archive entries, behavior
 * profiles) so an unknown tier string is rejected loudly instead of
 * silently defaulting to an existing tier.
 * @throws FatalError on an unknown name.
 */
Tier tierFromName(const std::string &name);

/** Configuration of one VM invocation. */
struct InterpConfig
{
    /** Hash-randomization seed (varies dict layouts per invocation). */
    uint64_t hashSeed = 0x517cc1b727220a95ULL;
    /** Seed for the simulated-heap base offset (ASLR model). */
    uint64_t aslrSeed = 0;
    /** Runtime tier. */
    Tier tier = Tier::Interp;
    /**
     * Hotness (loop back-edges + function entries) before a code
     * object is compiled by the adaptive tier.
     */
    int jitThreshold = 4000;
    /**
     * Cost scale applied to non-quickened opcodes inside compiled
     * code, modelling the unboxing/inlining a tracing JIT performs
     * beyond opcode specialization. Expressed as percent (40 = 0.4x).
     */
    int compiledCostPercent = 35;
    /** Modelled micro-op cost of compiling one code object. */
    uint64_t jitCompileUopsPerInstr = 2500;
    /**
     * Modelled micro-op overhead of one interpreter dispatch.
     * 6 models a switch interpreter; ~2 models direct-threaded code
     * (computed goto), which saves the bounds check and re-branch.
     * The runner sets this per tier.
     */
    uint32_t dispatchUops = 6;
    /**
     * Modelled micro-op cost, per instruction, of the threaded
     * tier's up-front quickening pass (superinstruction fusion +
     * cache-slot setup). Orders of magnitude cheaper than a JIT
     * compile; charged through the jitCompile counters.
     */
    uint64_t quickenUopsPerInstr = 3;
    /** Maximum MiniPy call depth. */
    int maxCallDepth = 800;
    /** If true, print() output is appended to Interp::output. */
    bool captureOutput = true;
};

/** Dynamic-execution counters maintained by the VM. */
struct InterpStats
{
    uint64_t bytecodes = 0;
    uint64_t uops = 0;
    uint64_t allocations = 0;
    uint64_t allocatedBytes = 0;
    uint64_t calls = 0;
    uint64_t guardFailures = 0;
    uint64_t jitCompiles = 0;
    /** Uops charged for JIT compilation (included in `uops`). */
    uint64_t jitCompileUops = 0;
    uint64_t dictLookups = 0;
    /** Dynamic count per opcode. */
    std::array<uint64_t, static_cast<size_t>(Op::NumOpcodes)> perOp{};
    /** Uops charged per opcode (dispatch overhead included). */
    std::array<uint64_t, static_cast<size_t>(Op::NumOpcodes)>
        perOpUops{};
    /** Interpreter-dispatched executions per opcode. */
    std::array<uint64_t, static_cast<size_t>(Op::NumOpcodes)>
        perOpDispatched{};
    /** Guard (speculation) failures per opcode. */
    std::array<uint64_t, static_cast<size_t>(Op::NumOpcodes)>
        perOpGuards{};
};

/**
 * The virtual machine. Executes a compiled Program; see file comment
 * for the invocation model.
 */
class Interp
{
  public:
    /**
     * @param program compiled program (must outlive the Interp).
     * @param config invocation configuration.
     * @param observer optional execution observer (may be null).
     */
    Interp(const Program &program, InterpConfig config = {},
           ExecutionObserver *observer = nullptr);
    ~Interp();

    Interp(const Interp &) = delete;
    Interp &operator=(const Interp &) = delete;

    /** Execute the module top-level code (defines globals). */
    void runModule();

    /**
     * Call a module-level function by name.
     * @throws VmError if the name is missing or not callable.
     */
    Value callGlobal(const std::string &name, std::vector<Value> args);

    /** Call an arbitrary callable value. */
    Value callValue(const Value &callee, std::vector<Value> args);

    /**
     * Value slots in one chunk of the frame arena. A frame whose
     * window is larger gets a chunk of its own size.
     */
    static constexpr size_t kArenaChunkSlots = 4096;

    /** The module globals dict. */
    DictObj &globals() { return *globalsDict; }

    /** Look up a global by name (None + false if missing). */
    bool getGlobal(const std::string &name, Value &out) const;

    /** Execution statistics so far. */
    const InterpStats &stats() const { return stats_; }

    /** Captured print() output (when configured). */
    const std::string &output() const { return outputBuf; }
    /** Clear captured output. */
    void clearOutput() { outputBuf.clear(); }

    /** This invocation's configuration. */
    const InterpConfig &config() const { return cfg; }

    /** Allocate and track a heap object of concrete type T. */
    template <typename T, typename... Args>
    T *
    alloc(Args &&...args)
    {
        T *obj = new T(std::forward<Args>(args)...);
        trackAlloc(obj);
        return obj;
    }

    /** Hash seed for dict creation. */
    uint64_t hashSeed() const { return cfg.hashSeed; }

    /** Append to the print buffer (builtins use this). */
    void printLine(const std::string &line);

    // -- internals shared with builtins.cc ---------------------------------

    /** Per-code-object runtime state for the adaptive/threaded tiers. */
    struct CodeRuntime
    {
        uint64_t backedges = 0;
        bool compiled = false;
        /** Quickened up-front by the threaded tier (not compiled). */
        bool threaded = false;
        std::vector<Instr> quickened;
        /** Inline caches, one per instruction slot. */
        struct Cache
        {
            const void *key = nullptr;  ///< class ptr / dict version
            Value value;                ///< cached result
            bool valid = false;
        };
        std::vector<Cache> caches;
    };

  private:
    friend void installBuiltins(Interp &interp, DictObj &builtins);

    /**
     * LIFO storage for frame windows: chunks of Value slots that live
     * as long as the Interp. A window never spans two chunks. Every
     * slot outside the live [locals, sp) range of a frame holds None.
     */
    class FrameArena
    {
      public:
        /** Arena state before an acquire; release() returns to it. */
        struct Mark
        {
            size_t used = 0;
            Value *top = nullptr;
            Value *limit = nullptr;
        };

        /** Reserve `n` contiguous slots; `mark` records the state. */
        Value *acquire(size_t n, Mark &mark);
        /** Hand back every slot acquired since `mark`. */
        void
        release(const Mark &mark)
        {
            used = mark.used;
            top = mark.top;
            limit = mark.limit;
        }

      private:
        struct Chunk
        {
            std::unique_ptr<Value[]> slots;
            size_t size = 0;
        };
        std::vector<Chunk> chunks;
        size_t used = 0;          ///< chunks in use; top is in the last
        Value *top = nullptr;     ///< first free slot
        Value *limit = nullptr;   ///< end of the chunk top is in
    };

    /** An installed try/except handler. */
    struct ExceptHandler
    {
        size_t handlerPc = 0;
        Value *sp = nullptr;  ///< operand-stack top to restore
    };

    /** One activation record: a window of the frame arena. */
    struct Frame
    {
        const CodeObject *code = nullptr;
        const std::vector<Instr> *instrs = nullptr;
        CodeRuntime *runtime = nullptr;
        /** Window base: numLocals local slots, then the operand stack. */
        Value *locals = nullptr;
        /** First free operand slot (current whenever evalFrame exits). */
        Value *sp = nullptr;
        DictObj *nameSpace = nullptr;  ///< class-body namespace (or null)
        size_t pc = 0;
        /** handlers.size() on entry: the frame's own handlers follow. */
        size_t handlerBase = 0;
        uint64_t localsBase = 0;  ///< simulated address of locals area
        FrameArena::Mark mark;
    };

    /**
     * Call `callee` with an optional leading argument `self` (a bound
     * receiver or a new instance) and the `nargs` values at `argv`,
     * which usually sit on the caller's operand stack. A call that
     * returns has moved every argument out, leaving None.
     */
    Value call(const Value &callee, const Value *self, Value *argv,
               size_t nargs);
    /** A function call: the arguments go straight into its window. */
    Value callFunction(const FunctionObj &fn, const Value *self,
                       Value *argv, size_t nargs);

    /** Execute a module or class body to completion. */
    Value execCode(const CodeObject *code, DictObj *name_space);
    /**
     * Enter `code`: check the call depth, tier it up, and give the
     * frame a window of numLocals + maxStack None slots.
     * @throws VmError past maxCallDepth, before any state changes.
     */
    void pushFrame(Frame &frame, const CodeObject *code,
                   DictObj *name_space);
    /** Run a pushed frame, then pop it, also when it unwinds. */
    Value runFrame(Frame &frame);
    /** Reset the frame's live slots to None; release its window. */
    void popFrame(Frame &frame);

    /** Main bytecode evaluation loop over one frame. */
    Value evalFrame(Frame &frame);

    void trackAlloc(Object *obj);

    /** Resolve attribute access on any value. */
    Value loadAttr(const Value &obj, const Value &name, Frame &frame,
                   size_t pc);
    void storeAttr(const Value &obj, const Value &name,
                   const Value &val);
    Value loadSubscr(const Value &obj, const Value &idx);
    void storeSubscr(const Value &obj, const Value &idx,
                     const Value &val);
    void deleteSubscr(const Value &obj, const Value &idx);
    Value binaryOp(Op op, const Value &a, const Value &b);
    Value compareOp(Op op, const Value &a, const Value &b);
    Value makeIterator(const Value &iterable);

    CodeRuntime &
    runtimeFor(const CodeObject *code)
    {
        return codeRt[code->codeId];
    }
    /** Quicken (model-compile) a hot code object. */
    void jitCompile(const CodeObject *code, CodeRuntime &rt);
    /**
     * Threaded-tier up-front quickening: rewrite generic opcodes to
     * their specialized forms and fuse hot pairs into
     * superinstructions (never across a jump target).
     */
    void threadedQuicken(const CodeObject *code, CodeRuntime &rt);

    /**
     * Count one executed bytecode in stats_.
     * @return its uops, dispatch overhead included.
     */
    uint32_t countBytecode(Op op, uint32_t uops, bool dispatched);
    /** Count one bytecode and deliver it as one observer step. */
    void accountBytecode(Op op, uint32_t uops, bool dispatched,
                         uint32_t code_id, size_t pc);
    void emitBranch(const Frame &frame, size_t pc, bool taken);
    void emitMem(uint64_t addr, uint32_t size, bool write);

    const Program &prog;
    InterpConfig cfg;
    ExecutionObserver *obs;
    InterpStats stats_;

    DictObj *globalsDict = nullptr;
    DictObj *builtinsDict = nullptr;

    /** Simulated-heap bump pointer (includes ASLR base). */
    uint64_t simBrk = 0;
    /**
     * Site of the bytecode currently executing, (codeId << 20) | pc
     * (the branch-site encoding); attributes allocations to their
     * allocating bytecode for onAllocSite(). Maintained only while an
     * observer is attached.
     */
    uint64_t curSite = 0;
    int callDepth = 0;

    std::string outputBuf;

    /** Indexed by CodeObject::codeId (dense, Program::codeCount). */
    std::vector<CodeRuntime> codeRt;

    FrameArena arena;
    /** Installed handlers of every live frame, innermost last. */
    std::vector<ExceptHandler> handlers;

    /** Values retained for the lifetime of the interp (e.g. consts). */
    std::vector<Value> retained;

    /** The "__init__" key every class call looks up, made once. */
    const Value initName = makeStr("__init__");
};

/** Install the builtin functions into the given namespace dict. */
void installBuiltins(Interp &interp, DictObj &builtins);

/**
 * Resolve a builtin-type method (str/list/dict) as a bound method.
 * @return true and set `out` if the type has such a method.
 */
bool getBuiltinTypeMethod(Interp &interp, const Value &receiver,
                          const std::string &name, Value &out);

/** Base micro-op cost of an opcode (excluding dispatch overhead). */
uint32_t opBaseUops(Op op);

/** Micro-op overhead of one interpreter dispatch. */
constexpr uint32_t kDispatchUops = 6;

} // namespace vm
} // namespace rigor

#endif // RIGOR_VM_INTERP_HH

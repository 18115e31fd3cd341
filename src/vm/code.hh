/**
 * @file
 * MiniPy bytecode: opcode set, instruction encoding and code objects.
 *
 * The opcode set follows CPython's stack-machine design. The opcodes
 * after FirstQuickened are *specialized* forms installed by the
 * adaptive (JIT-model) tier; the baseline interpreter never emits or
 * executes them.
 */

#ifndef RIGOR_VM_CODE_HH
#define RIGOR_VM_CODE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "vm/value.hh"

namespace rigor {
namespace vm {

/** Bytecode operations. */
enum class Op : uint8_t
{
    Nop,
    LoadConst,        ///< arg: constant index
    LoadFast,         ///< arg: local slot
    StoreFast,        ///< arg: local slot
    LoadGlobal,       ///< arg: name index
    StoreGlobal,      ///< arg: name index
    LoadName,         ///< arg: name index (class-body namespaces)
    StoreName,        ///< arg: name index (class-body namespaces)
    LoadAttr,         ///< arg: name index
    StoreAttr,        ///< arg: name index
    LoadSubscr,
    StoreSubscr,
    DeleteSubscr,

    BinaryAdd,
    BinarySub,
    BinaryMul,
    BinaryDiv,
    BinaryFloorDiv,
    BinaryMod,
    BinaryPow,
    BinaryAnd,
    BinaryOr,
    BinaryXor,
    BinaryLshift,
    BinaryRshift,

    UnaryNeg,
    UnaryNot,

    CompareEq,
    CompareNe,
    CompareLt,
    CompareLe,
    CompareGt,
    CompareGe,
    CompareIn,
    CompareNotIn,

    Jump,             ///< arg: absolute target
    PopJumpIfFalse,   ///< arg: absolute target
    PopJumpIfTrue,    ///< arg: absolute target
    JumpIfFalseOrPop, ///< arg: absolute target
    JumpIfTrueOrPop,  ///< arg: absolute target

    GetIter,
    ForIter,          ///< arg: absolute target on exhaustion

    Call,             ///< arg: positional argument count
    Return,

    Pop,
    Dup,
    DupTwo,
    RotTwo,
    RotThree,

    BuildList,        ///< arg: element count
    BuildTuple,       ///< arg: element count
    BuildDict,        ///< arg: pair count
    BuildSlice,       ///< arg: 2 or 3

    UnpackSequence,   ///< arg: target count

    MakeFunction,     ///< arg: child-code index (defaults on stack)
    MakeClass,        ///< arg: child-code index (base on stack)

    SetupExcept,      ///< arg: handler target (push handler)
    PopExcept,        ///< pop the innermost handler
    Raise,            ///< pop value, raise it

    ListAppend,       ///< arg: list's depth below TOS (comprehensions)

    // ---- Quickened forms (adaptive/threaded tiers only) ----
    FirstQuickened,
    AddIntInt = FirstQuickened,
    SubIntInt,
    MulIntInt,
    AddFloatFloat,
    SubFloatFloat,
    MulFloatFloat,
    CompareLtIntInt,
    CompareLeIntInt,
    CompareGtIntInt,
    CompareGeIntInt,
    CompareEqIntInt,
    ForIterRange,     ///< arg: absolute target on exhaustion
    LoadAttrCached,   ///< arg: name index (uses inline cache)
    LoadGlobalCached, ///< arg: name index (uses inline cache)

    // ---- Superinstructions (threaded tier only) ----
    // Fused by threadedQuicken for the hottest adjacent pairs. A
    // superinstruction accounts as ONE bytecode and skips the dead
    // slot it absorbed (which quickening rewrites to Nop).
    LoadFastLoadFast, ///< arg: (slot1 << 16) | slot2
    LoadFastBinaryAdd,///< arg: local slot (then add, int fast path)

    NumOpcodes,
};

/** Mnemonic for an opcode. */
const char *opName(Op op);

/** True for opcodes whose arg is a jump target. */
bool opIsJump(Op op);

/** A fixed-width instruction. */
struct Instr
{
    Op op = Op::Nop;
    int32_t arg = 0;
};

/**
 * Compiled code for one function, class body, or module. Owns its
 * constants, referenced names and child code objects.
 */
class CodeObject
{
  public:
    CodeObject() = default;
    ~CodeObject() = default;

    CodeObject(const CodeObject &) = delete;
    CodeObject &operator=(const CodeObject &) = delete;

    std::string name = "<module>";
    /** Positional parameter count. */
    int numParams = 0;
    /** Count of trailing parameters with default values. */
    int numDefaults = 0;
    /** Total local-variable slots (params first). */
    int numLocals = 0;
    /**
     * Deepest operand stack any path through `instrs` reaches, as the
     * compiler counts it. A frame's window is numLocals + maxStack
     * value slots.
     */
    int maxStack = 0;
    /** True for class-body code (uses LoadName/StoreName). */
    bool isClassBody = false;

    /** Local variable names, indexed by slot (params first). */
    std::vector<std::string> varNames;
    /** Constant pool. */
    std::vector<Value> constants;
    /**
     * Name pool for globals/attributes, as interned str Values so the
     * interpreter can use them directly as dict keys.
     */
    std::vector<Value> names;
    /** Plain-string view of the name pool (for disassembly). */
    std::vector<std::string> nameStrings;
    /** The instruction stream. */
    std::vector<Instr> instrs;
    /** Nested function/class-body code objects. */
    std::vector<std::unique_ptr<CodeObject>> children;

    /** Unique id used to key per-interpreter runtime state. */
    uint32_t codeId = 0;

    /** Add a constant, returning its pool index (deduplicates). */
    int addConstant(const Value &v);
    /** Add a name, returning its pool index (deduplicates). */
    int addName(const std::string &n);

    /** Human-readable disassembly (recursive over children). */
    std::string disassemble(int indent = 0) const;

    /** Count instructions recursively (for suite characterization). */
    size_t totalInstrs() const;
};

/**
 * Operand-stack change of a compiler-emitted instruction of `code`:
 * along its fall-through edge, or with `jump`, along its jump edge
 * (a SetupExcept's jump edge is its handler's entry). Quickened
 * opcodes never appear in compiled code and are rejected.
 */
int stackEffect(const CodeObject &code, const Instr &ins, bool jump);

/**
 * A compiled MiniPy program: the module code object plus bookkeeping
 * shared by every interpreter that runs it.
 */
class Program
{
  public:
    std::unique_ptr<CodeObject> module;
    /** Number of code objects in the tree (ids are 0..count-1). */
    uint32_t codeCount = 0;

    /** Source text the program was compiled from (for reporting). */
    std::string sourceName = "<string>";
};

} // namespace vm
} // namespace rigor

#endif // RIGOR_VM_CODE_HH

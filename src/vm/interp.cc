#include "vm/interp.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <new>

#include "support/logging.hh"
#include "support/rng.hh"

namespace rigor {
namespace vm {

const char *
tierName(Tier t)
{
    // Exhaustive switch, no default: adding a Tier without updating
    // this is a -Wswitch (-Werror) build break, not a silent
    // mislabel. The old two-way ternary named every new tier
    // "adaptive", which poisoned archives and resume files.
    switch (t) {
      case Tier::Interp: return "interp";
      case Tier::Adaptive: return "adaptive";
      case Tier::Threaded: return "threaded";
    }
    panic("unknown tier %d", static_cast<int>(t));
}

Tier
tierFromName(const std::string &name)
{
    if (name == "interp")
        return Tier::Interp;
    if (name == "adaptive")
        return Tier::Adaptive;
    if (name == "threaded")
        return Tier::Threaded;
    fatal("unknown tier '%s' (expected interp|adaptive|threaded)",
          name.c_str());
}

uint32_t
opBaseUops(Op op)
{
    switch (op) {
      case Op::Nop:
        return 1;
      case Op::LoadConst:
      case Op::LoadFast:
      case Op::StoreFast:
      case Op::Pop:
      case Op::Dup:
      case Op::DupTwo:
      case Op::RotTwo:
      case Op::RotThree:
        return 2;
      case Op::BinaryAdd:
      case Op::BinarySub:
      case Op::BinaryMul:
      case Op::BinaryAnd:
      case Op::BinaryOr:
      case Op::BinaryXor:
      case Op::BinaryLshift:
      case Op::BinaryRshift:
      case Op::UnaryNeg:
      case Op::UnaryNot:
        return 8;   // unbox, type-dispatch, operate, box
      case Op::BinaryDiv:
      case Op::BinaryFloorDiv:
      case Op::BinaryMod:
        return 12;
      case Op::BinaryPow:
        return 24;
      case Op::CompareEq:
      case Op::CompareNe:
      case Op::CompareLt:
      case Op::CompareLe:
      case Op::CompareGt:
      case Op::CompareGe:
        return 7;
      case Op::CompareIn:
      case Op::CompareNotIn:
        return 14;
      case Op::Jump:
        return 1;
      case Op::PopJumpIfFalse:
      case Op::PopJumpIfTrue:
      case Op::JumpIfFalseOrPop:
      case Op::JumpIfTrueOrPop:
        return 3;
      case Op::GetIter:
        return 10;
      case Op::ForIter:
        return 8;
      case Op::Call:
        return 30;  // frame setup, arg copy
      case Op::Return:
        return 10;
      case Op::LoadGlobal:
      case Op::LoadName:
        return 14;  // dict probe
      case Op::StoreGlobal:
      case Op::StoreName:
        return 14;
      case Op::LoadAttr:
        return 18;  // instance dict + class chain probes
      case Op::StoreAttr:
        return 16;
      case Op::LoadSubscr:
        return 10;
      case Op::StoreSubscr:
        return 11;
      case Op::DeleteSubscr:
        return 12;
      case Op::BuildList:
      case Op::BuildTuple:
        return 12;
      case Op::BuildDict:
        return 18;
      case Op::BuildSlice:
        return 8;
      case Op::UnpackSequence:
        return 8;
      case Op::MakeFunction:
        return 16;
      case Op::MakeClass:
        return 40;
      case Op::SetupExcept:
        return 3;
      case Op::PopExcept:
        return 2;
      case Op::Raise:
        return 40;  // unwind machinery
      case Op::ListAppend:
        return 6;
      // Quickened forms: the modelled compiled fast paths.
      case Op::AddIntInt:
      case Op::SubIntInt:
      case Op::MulIntInt:
      case Op::AddFloatFloat:
      case Op::SubFloatFloat:
      case Op::MulFloatFloat:
        return 1;
      case Op::CompareLtIntInt:
      case Op::CompareLeIntInt:
      case Op::CompareGtIntInt:
      case Op::CompareGeIntInt:
      case Op::CompareEqIntInt:
        return 1;
      case Op::ForIterRange:
        return 2;
      case Op::LoadAttrCached:
        return 3;
      case Op::LoadGlobalCached:
        return 2;
      // Superinstructions: one dispatch covers two bytecodes, and the
      // fused pair shares its operand staging.
      case Op::LoadFastLoadFast:
        return 3;
      case Op::LoadFastBinaryAdd:
        return 3;
      case Op::NumOpcodes:
        break;
    }
    return 4;
}

Interp::Interp(const Program &program, InterpConfig config,
               ExecutionObserver *observer)
    : prog(program), cfg(config), obs(observer), codeRt(program.codeCount)
{
    // ASLR model: the simulated heap starts at a seed-dependent offset
    // so physical cache-set mappings differ across invocations.
    SplitMix64 sm(cfg.aslrSeed ^ 0x5851f42d4c957f2dULL);
    simBrk = 0x10000000ULL + (sm.next() & 0x3fffffULL) * 64;

    globalsDict = alloc<DictObj>(cfg.hashSeed);
    globalsDict->incRef();
    builtinsDict = alloc<DictObj>(cfg.hashSeed);
    builtinsDict->incRef();
    installBuiltins(*this, *builtinsDict);
}

Interp::~Interp()
{
    globalsDict->decRef();
    builtinsDict->decRef();
}

void
Interp::trackAlloc(Object *obj)
{
    obj->simAddr = simBrk;
    uint64_t sz = (obj->simSize + 15ULL) & ~15ULL;
    simBrk += sz;
    ++stats_.allocations;
    stats_.allocatedBytes += sz;
    if (obs) {
        obs->onAlloc(obj->simAddr, obj->simSize);
        obs->onAllocSite(curSite, obj->simSize);
    }
}

void
Interp::printLine(const std::string &line)
{
    if (cfg.captureOutput) {
        outputBuf += line;
        outputBuf += '\n';
    }
}

namespace {

/**
 * Instruction-fetch model: interpreter handlers live in a small
 * shared region (one slot per opcode, ~16 KiB total -> L1I friendly);
 * compiled code occupies a per-(code, pc) region (~32 B of machine
 * code per bytecode -> much larger footprint).
 */
inline uint64_t
fetchAddress(bool dispatched, Op op, uint32_t code_id, size_t pc)
{
    return dispatched
        ? 0x400000ULL + static_cast<uint64_t>(op) * 192
        : 0x100000000ULL + static_cast<uint64_t>(code_id) * 0x40000 +
            static_cast<uint64_t>(pc) * 32;
}

} // namespace

uint32_t
Interp::countBytecode(Op op, uint32_t uops, bool dispatched)
{
    if (dispatched)
        uops += cfg.dispatchUops;
    ++stats_.bytecodes;
    stats_.uops += uops;
    ++stats_.perOp[static_cast<size_t>(op)];
    stats_.perOpUops[static_cast<size_t>(op)] += uops;
    if (dispatched)
        ++stats_.perOpDispatched[static_cast<size_t>(op)];
    return uops;
}

void
Interp::accountBytecode(Op op, uint32_t uops, bool dispatched,
                        uint32_t code_id, size_t pc)
{
    uops = countBytecode(op, uops, dispatched);
    if (obs)
        obs->onStep(op, uops, fetchAddress(dispatched, op, code_id, pc),
                    dispatched);
}

void
Interp::emitBranch(const Frame &frame, size_t pc, bool taken)
{
    if (obs) {
        uint64_t site =
            (static_cast<uint64_t>(frame.code->codeId) << 20) | pc;
        obs->onBranch(site, taken);
    }
}

void
Interp::emitMem(uint64_t addr, uint32_t size, bool write)
{
    if (obs)
        obs->onMemAccess(addr, size, write);
}

void
Interp::runModule()
{
    execCode(prog.module.get(), nullptr);
}

bool
Interp::getGlobal(const std::string &name, Value &out) const
{
    Value key = makeStr(name);
    if (const Value *v = globalsDict->find(key)) {
        out = *v;
        return true;
    }
    return false;
}

Value
Interp::callGlobal(const std::string &name, std::vector<Value> args)
{
    Value fn;
    if (!getGlobal(name, fn))
        throw VmError("name '" + name + "' is not defined");
    return callValue(fn, std::move(args));
}

Value
Interp::callValue(const Value &callee, std::vector<Value> args)
{
    return call(callee, nullptr, args.data(), args.size());
}

Value
Interp::call(const Value &callee, const Value *self, Value *argv,
             size_t nargs)
{
    ++stats_.calls;
    if (obs)
        obs->onCall();
    struct ReturnNotify
    {
        ExecutionObserver *obs;
        ~ReturnNotify()
        {
            if (obs)
                obs->onReturn();
        }
    } notify{obs};

    if (!callee.isObj())
        throw VmError("'" + callee.typeName() + "' is not callable");

    Object *o = callee.asObj();
    // Only a function or a builtin takes the leading argument
    // directly; any other callee gets it as its first positional
    // argument, through a vector (no workload takes this path).
    std::vector<Value> spilled;
    if (self && o->kind() != ObjKind::Function &&
        o->kind() != ObjKind::Builtin) {
        spilled.reserve(nargs + 1);
        spilled.push_back(*self);
        for (size_t i = 0; i < nargs; ++i)
            spilled.push_back(std::move(argv[i]));
        self = nullptr;
        argv = spilled.data();
        nargs = spilled.size();
    }

    switch (o->kind()) {
      case ObjKind::Function:
        return callFunction(*static_cast<FunctionObj *>(o), self, argv,
                            nargs);
      case ObjKind::Builtin: {
        auto *fn = static_cast<BuiltinObj *>(o);
        std::vector<Value> args;
        args.reserve(nargs + (self ? 1 : 0));
        if (self)
            args.push_back(*self);
        for (size_t i = 0; i < nargs; ++i)
            args.push_back(std::move(argv[i]));
        int given = static_cast<int>(args.size());
        if (given < fn->minArgs ||
            (fn->maxArgs >= 0 && given > fn->maxArgs)) {
            throw VmError(fn->name + "(): wrong number of arguments (" +
                          std::to_string(given) + ")");
        }
        return fn->fn(*this, args);
      }
      case ObjKind::BoundMethod: {
        auto *bm = static_cast<BoundMethodObj *>(o);
        return call(bm->callee, &bm->receiver, argv, nargs);
      }
      case ObjKind::Class: {
        auto *cls = static_cast<ClassObj *>(o);
        InstanceObj *inst = alloc<InstanceObj>(cls, cfg.hashSeed);
        Value instance = Value::makeObj(inst);
        if (const Value *init = cls->lookup(initName)) {
            // A copy: __init__ may rebind the class's attributes.
            Value init_fn = *init;
            call(init_fn, &instance, argv, nargs);
        } else if (nargs != 0) {
            throw VmError(cls->name + "() takes no arguments");
        }
        return instance;
      }
      default:
        throw VmError("'" + callee.typeName() + "' is not callable");
    }
}

Value
Interp::callFunction(const FunctionObj &fn, const Value *self,
                     Value *argv, size_t nargs)
{
    const CodeObject *code = fn.code;
    int given = static_cast<int>(nargs) + (self ? 1 : 0);
    int required = code->numParams - code->numDefaults;
    if (given < required || given > code->numParams) {
        throw VmError(fn.name + "() takes " +
                      std::to_string(code->numParams) +
                      " arguments, got " + std::to_string(given));
    }
    Frame frame;
    pushFrame(frame, code, nullptr);
    Value *slot = frame.locals;
    if (self)
        *slot++ = *self;
    for (size_t i = 0; i < nargs; ++i)
        *slot++ = std::move(argv[i]);
    // Fill missing trailing params from defaults.
    for (int i = given; i < code->numParams; ++i)
        *slot++ = fn.defaults[static_cast<size_t>(i - required)];
    return runFrame(frame);
}

Value
Interp::execCode(const CodeObject *code, DictObj *name_space)
{
    Frame frame;
    pushFrame(frame, code, name_space);
    return runFrame(frame);
}

Value *
Interp::FrameArena::acquire(size_t n, Mark &mark)
{
    mark = {used, top, limit};
    if (static_cast<size_t>(limit - top) < n) {
        // No live window is past the current chunk, so the next one
        // can be replaced when it is too small.
        if (used == chunks.size())
            chunks.emplace_back();
        Chunk &c = chunks[used++];
        if (c.size < n) {
            c.size = std::max(n, kArenaChunkSlots);
            c.slots = std::make_unique<Value[]>(c.size);
        }
        top = c.slots.get();
        limit = top + c.size;
    }
    Value *window = top;
    top += n;
    return window;
}

void
Interp::pushFrame(Frame &frame, const CodeObject *code,
                  DictObj *name_space)
{
    if (callDepth >= cfg.maxCallDepth)
        throw VmError("maximum recursion depth exceeded");
    ++callDepth;

    frame.code = code;
    frame.runtime = &runtimeFor(code);
    // Function entries count toward hotness so loop-free but
    // frequently-called functions (typical OO methods) tier up too.
    if (cfg.tier == Tier::Adaptive && !frame.runtime->compiled) {
        if (++frame.runtime->backedges >=
            static_cast<uint64_t>(cfg.jitThreshold))
            jitCompile(code, *frame.runtime);
    }
    // The threaded tier quickens eagerly: no warmup counter, just a
    // cheap linear rewrite on the first entry of each code object.
    if (cfg.tier == Tier::Threaded && !frame.runtime->threaded)
        threadedQuicken(code, *frame.runtime);
    frame.instrs =
        frame.runtime->compiled || frame.runtime->threaded
            ? &frame.runtime->quickened
            : &code->instrs;
    frame.nameSpace = name_space;
    frame.localsBase = simBrk;
    simBrk += (static_cast<uint64_t>(code->numLocals) + 4) * 8;
    frame.locals = arena.acquire(
        static_cast<size_t>(code->numLocals + code->maxStack),
        frame.mark);
    frame.sp = frame.locals + code->numLocals;
    frame.handlerBase = handlers.size();
}

Value
Interp::runFrame(Frame &frame)
{
    try {
        Value result = evalFrame(frame);
        popFrame(frame);
        return result;
    } catch (...) {
        popFrame(frame);
        throw;
    }
}

void
Interp::popFrame(Frame &frame)
{
    for (Value *slot = frame.locals; slot != frame.sp; ++slot)
        *slot = Value();
    arena.release(frame.mark);
    handlers.resize(frame.handlerBase);
    --callDepth;
}

namespace {

/** Integer value of an int-or-bool. */
inline int64_t
intOf(const Value &v)
{
    return v.isBool() ? (v.asBool() ? 1 : 0) : v.asInt();
}

inline bool
intLike(const Value &v)
{
    return v.isInt() || v.isBool();
}

/** Python floor division for ints. */
inline int64_t
pyFloorDiv(int64_t a, int64_t b)
{
    if (b == 0)
        throw VmError("integer division or modulo by zero");
    int64_t q = a / b;
    if ((a % b != 0) && ((a < 0) != (b < 0)))
        --q;
    return q;
}

/** Python modulo for ints (result has the sign of the divisor). */
inline int64_t
pyMod(int64_t a, int64_t b)
{
    if (b == 0)
        throw VmError("integer division or modulo by zero");
    int64_t r = a % b;
    if (r != 0 && ((r < 0) != (b < 0)))
        r += b;
    return r;
}

/** Python float modulo (sign of the divisor). */
inline double
pyFmod(double a, double b)
{
    if (b == 0.0)
        throw VmError("float modulo by zero");
    double r = std::fmod(a, b);
    if (r != 0.0 && ((r < 0.0) != (b < 0.0)))
        r += b;
    return r;
}

/** Adjust a possibly-negative index into [0, len), throwing on range. */
inline int64_t
normalizeIndex(int64_t idx, int64_t len, const char *what)
{
    if (idx < 0)
        idx += len;
    if (idx < 0 || idx >= len)
        throw VmError(std::string(what) + " index out of range");
    return idx;
}

/** Clamp a slice bound into [0, len]. */
inline int64_t
clampSliceBound(int64_t v, int64_t len)
{
    if (v < 0)
        v += len;
    if (v < 0)
        return 0;
    if (v > len)
        return len;
    return v;
}

/**
 * Resolve a slice's (start, stop, step) against a sequence length,
 * with CPython's rules for negative steps and missing bounds.
 */
void
resolveSlice(const SliceObj &slice, int64_t len, int64_t &start,
             int64_t &stop, int64_t &step)
{
    step = slice.step.isNone() ? 1 : intOf(slice.step);
    if (step == 0)
        throw VmError("slice step cannot be zero");
    if (step > 0) {
        start = slice.start.isNone() ? 0
                                     : clampSliceBound(
                                           intOf(slice.start), len);
        stop = slice.stop.isNone() ? len
                                   : clampSliceBound(intOf(slice.stop),
                                                     len);
    } else {
        if (slice.start.isNone()) {
            start = len - 1;
        } else {
            start = intOf(slice.start);
            if (start < 0)
                start += len;
            if (start >= len)
                start = len - 1;
        }
        if (slice.stop.isNone()) {
            stop = -1;
        } else {
            stop = intOf(slice.stop);
            if (stop < 0)
                stop += len;
            if (stop < -1)
                stop = -1;
        }
    }
}

} // namespace

Value
Interp::binaryOp(Op op, const Value &a, const Value &b)
{
    // Fast numeric paths.
    if (intLike(a) && intLike(b)) {
        int64_t x = intOf(a), y = intOf(b);
        switch (op) {
          case Op::BinaryAdd:
            return Value::makeInt(static_cast<int64_t>(
                static_cast<uint64_t>(x) + static_cast<uint64_t>(y)));
          case Op::BinarySub:
            return Value::makeInt(static_cast<int64_t>(
                static_cast<uint64_t>(x) - static_cast<uint64_t>(y)));
          case Op::BinaryMul:
            return Value::makeInt(static_cast<int64_t>(
                static_cast<uint64_t>(x) * static_cast<uint64_t>(y)));
          case Op::BinaryDiv:
            if (y == 0)
                throw VmError("division by zero");
            return Value::makeFloat(static_cast<double>(x) /
                                    static_cast<double>(y));
          case Op::BinaryFloorDiv:
            return Value::makeInt(pyFloorDiv(x, y));
          case Op::BinaryMod:
            return Value::makeInt(pyMod(x, y));
          case Op::BinaryPow: {
            if (y < 0)
                return Value::makeFloat(
                    std::pow(static_cast<double>(x),
                             static_cast<double>(y)));
            uint64_t result = 1;
            uint64_t base = static_cast<uint64_t>(x);
            int64_t exp = y;
            while (exp > 0) {
                if (exp & 1)
                    result *= base;
                base *= base;
                exp >>= 1;
            }
            return Value::makeInt(static_cast<int64_t>(result));
          }
          case Op::BinaryAnd: return Value::makeInt(x & y);
          case Op::BinaryOr: return Value::makeInt(x | y);
          case Op::BinaryXor: return Value::makeInt(x ^ y);
          case Op::BinaryLshift:
            return Value::makeInt(
                static_cast<int64_t>(static_cast<uint64_t>(x)
                                     << (y & 63)));
          case Op::BinaryRshift: return Value::makeInt(x >> (y & 63));
          default:
            break;
        }
    }

    bool numeric_a = intLike(a) || a.isFloat();
    bool numeric_b = intLike(b) || b.isFloat();
    if (numeric_a && numeric_b) {
        double x = a.numeric(), y = b.numeric();
        switch (op) {
          case Op::BinaryAdd: return Value::makeFloat(x + y);
          case Op::BinarySub: return Value::makeFloat(x - y);
          case Op::BinaryMul: return Value::makeFloat(x * y);
          case Op::BinaryDiv:
            if (y == 0.0)
                throw VmError("float division by zero");
            return Value::makeFloat(x / y);
          case Op::BinaryFloorDiv:
            if (y == 0.0)
                throw VmError("float floor division by zero");
            return Value::makeFloat(std::floor(x / y));
          case Op::BinaryMod:
            return Value::makeFloat(pyFmod(x, y));
          case Op::BinaryPow:
            return Value::makeFloat(std::pow(x, y));
          default:
            throw VmError("unsupported float operation");
        }
    }

    // String / sequence operations.
    if (op == Op::BinaryAdd) {
        if (a.isObjKind(ObjKind::Str) && b.isObjKind(ObjKind::Str)) {
            auto *sa = static_cast<StrObj *>(a.asObj());
            auto *sb = static_cast<StrObj *>(b.asObj());
            StrObj *out = alloc<StrObj>(sa->value + sb->value);
            return Value::makeObj(out);
        }
        if (a.isObjKind(ObjKind::List) && b.isObjKind(ObjKind::List)) {
            auto *la = static_cast<ListObj *>(a.asObj());
            auto *lb = static_cast<ListObj *>(b.asObj());
            ListObj *out = alloc<ListObj>();
            out->items = la->items;
            out->items.insert(out->items.end(), lb->items.begin(),
                              lb->items.end());
            return Value::makeObj(out);
        }
        if (a.isObjKind(ObjKind::Tuple) &&
            b.isObjKind(ObjKind::Tuple)) {
            auto *ta = static_cast<TupleObj *>(a.asObj());
            auto *tb = static_cast<TupleObj *>(b.asObj());
            TupleObj *out = alloc<TupleObj>();
            out->items = ta->items;
            out->items.insert(out->items.end(), tb->items.begin(),
                              tb->items.end());
            return Value::makeObj(out);
        }
    }
    if (op == Op::BinaryMul) {
        const Value *seq = nullptr, *count = nullptr;
        if ((a.isObjKind(ObjKind::Str) || a.isObjKind(ObjKind::List)) &&
            intLike(b)) {
            seq = &a;
            count = &b;
        } else if ((b.isObjKind(ObjKind::Str) ||
                    b.isObjKind(ObjKind::List)) &&
                   intLike(a)) {
            seq = &b;
            count = &a;
        }
        if (seq) {
            int64_t n = std::max<int64_t>(0, intOf(*count));
            if (seq->isObjKind(ObjKind::Str)) {
                auto *s = static_cast<StrObj *>(seq->asObj());
                std::string out;
                out.reserve(s->value.size() *
                            static_cast<size_t>(n));
                for (int64_t i = 0; i < n; ++i)
                    out += s->value;
                return Value::makeObj(alloc<StrObj>(std::move(out)));
            }
            auto *l = static_cast<ListObj *>(seq->asObj());
            ListObj *out = alloc<ListObj>();
            out->items.reserve(l->items.size() *
                               static_cast<size_t>(n));
            for (int64_t i = 0; i < n; ++i)
                out->items.insert(out->items.end(), l->items.begin(),
                                  l->items.end());
            return Value::makeObj(out);
        }
    }
    if (op == Op::BinaryMod && a.isObjKind(ObjKind::Str)) {
        // Minimal printf-style formatting: %s %d %f only, with a
        // tuple or single value on the right.
        auto *fmt = static_cast<StrObj *>(a.asObj());
        std::vector<Value> args;
        if (b.isObjKind(ObjKind::Tuple)) {
            args = static_cast<TupleObj *>(b.asObj())->items;
        } else {
            args.push_back(b);
        }
        std::string out;
        size_t ai = 0;
        for (size_t i = 0; i < fmt->value.size(); ++i) {
            char c = fmt->value[i];
            if (c != '%' || i + 1 >= fmt->value.size()) {
                out += c;
                continue;
            }
            char spec = fmt->value[++i];
            if (spec == '%') {
                out += '%';
                continue;
            }
            if (ai >= args.size())
                throw VmError("not enough arguments for format "
                              "string");
            const Value &v = args[ai++];
            if (spec == 's') {
                out += v.str();
            } else if (spec == 'd') {
                out += std::to_string(
                    static_cast<int64_t>(v.numeric()));
            } else if (spec == 'f') {
                char buf[64];
                std::snprintf(buf, sizeof(buf), "%f", v.numeric());
                out += buf;
            } else {
                throw VmError(std::string("unsupported format "
                                          "specifier '%") +
                              spec + "'");
            }
        }
        return Value::makeObj(alloc<StrObj>(std::move(out)));
    }

    throw VmError(std::string("unsupported operand types for ") +
                  opName(op) + ": '" + a.typeName() + "' and '" +
                  b.typeName() + "'");
}

Value
Interp::compareOp(Op op, const Value &a, const Value &b)
{
    switch (op) {
      case Op::CompareEq:
        return Value::makeBool(a.equals(b));
      case Op::CompareNe:
        return Value::makeBool(!a.equals(b));
      case Op::CompareIn:
      case Op::CompareNotIn: {
        bool found = false;
        if (b.isObjKind(ObjKind::List)) {
            for (const auto &v :
                 static_cast<ListObj *>(b.asObj())->items) {
                if (v.equals(a)) {
                    found = true;
                    break;
                }
            }
        } else if (b.isObjKind(ObjKind::Tuple)) {
            for (const auto &v :
                 static_cast<TupleObj *>(b.asObj())->items) {
                if (v.equals(a)) {
                    found = true;
                    break;
                }
            }
        } else if (b.isObjKind(ObjKind::Dict)) {
            ++stats_.dictLookups;
            found = static_cast<DictObj *>(b.asObj())->find(a) !=
                nullptr;
        } else if (b.isObjKind(ObjKind::Str)) {
            if (!a.isObjKind(ObjKind::Str))
                throw VmError("'in <string>' requires string operand");
            found = static_cast<StrObj *>(b.asObj())
                        ->value.find(static_cast<StrObj *>(a.asObj())
                                         ->value) != std::string::npos;
        } else if (b.isObjKind(ObjKind::Range)) {
            auto *r = static_cast<RangeObj *>(b.asObj());
            if (intLike(a)) {
                int64_t v = intOf(a);
                if (r->step > 0) {
                    found = v >= r->start && v < r->stop &&
                        (v - r->start) % r->step == 0;
                } else {
                    found = v <= r->start && v > r->stop &&
                        (r->start - v) % (-r->step) == 0;
                }
            }
        } else {
            throw VmError("argument of type '" + b.typeName() +
                          "' is not iterable");
        }
        return Value::makeBool(op == Op::CompareIn ? found : !found);
      }
      default:
        break;
    }

    // Ordering comparisons.
    bool numeric_a = intLike(a) || a.isFloat();
    bool numeric_b = intLike(b) || b.isFloat();
    if (numeric_a && numeric_b) {
        if (a.isInt() && b.isInt()) {
            int64_t x = a.asInt(), y = b.asInt();
            switch (op) {
              case Op::CompareLt: return Value::makeBool(x < y);
              case Op::CompareLe: return Value::makeBool(x <= y);
              case Op::CompareGt: return Value::makeBool(x > y);
              case Op::CompareGe: return Value::makeBool(x >= y);
              default: break;
            }
        }
        double x = a.numeric(), y = b.numeric();
        switch (op) {
          case Op::CompareLt: return Value::makeBool(x < y);
          case Op::CompareLe: return Value::makeBool(x <= y);
          case Op::CompareGt: return Value::makeBool(x > y);
          case Op::CompareGe: return Value::makeBool(x >= y);
          default: break;
        }
    }
    if (a.isObjKind(ObjKind::Str) && b.isObjKind(ObjKind::Str)) {
        const std::string &x = static_cast<StrObj *>(a.asObj())->value;
        const std::string &y = static_cast<StrObj *>(b.asObj())->value;
        switch (op) {
          case Op::CompareLt: return Value::makeBool(x < y);
          case Op::CompareLe: return Value::makeBool(x <= y);
          case Op::CompareGt: return Value::makeBool(x > y);
          case Op::CompareGe: return Value::makeBool(x >= y);
          default: break;
        }
    }
    throw VmError("'" + a.typeName() + "' and '" + b.typeName() +
                  "' are not orderable");
}

Value
Interp::makeIterator(const Value &iterable)
{
    if (!iterable.isObj())
        throw VmError("'" + iterable.typeName() +
                      "' object is not iterable");
    Object *o = iterable.asObj();
    IteratorObj::Source src;
    switch (o->kind()) {
      case ObjKind::List: src = IteratorObj::Source::List; break;
      case ObjKind::Tuple: src = IteratorObj::Source::Tuple; break;
      case ObjKind::Str: src = IteratorObj::Source::Str; break;
      case ObjKind::Range: src = IteratorObj::Source::Range; break;
      case ObjKind::Dict: src = IteratorObj::Source::DictKeys; break;
      case ObjKind::Iterator:
        return iterable;
      default:
        throw VmError("'" + iterable.typeName() +
                      "' object is not iterable");
    }
    return Value::makeObj(alloc<IteratorObj>(src, iterable));
}

Value
Interp::loadAttr(const Value &obj, const Value &name, Frame &frame,
                 size_t pc)
{
    (void)frame;
    (void)pc;
    const std::string &attr =
        static_cast<StrObj *>(name.asObj())->value;

    if (obj.isObjKind(ObjKind::Instance)) {
        auto *inst = static_cast<InstanceObj *>(obj.asObj());
        ++stats_.dictLookups;
        emitMem(inst->fields->simAddr +
                    ((name.hash(cfg.hashSeed) & 63) * 16),
                16, false);
        if (const Value *v = inst->fields->find(name))
            return *v;
        if (const Value *v = inst->cls->lookup(name)) {
            ++stats_.dictLookups;
            emitMem(inst->cls->attrs->simAddr +
                        ((name.hash(cfg.hashSeed) & 63) * 16),
                    16, false);
            if (v->isObjKind(ObjKind::Function) ||
                v->isObjKind(ObjKind::Builtin)) {
                BoundMethodObj *bm = alloc<BoundMethodObj>(obj, *v);
                return Value::makeObj(bm);
            }
            return *v;
        }
        throw VmError("'" + inst->cls->name +
                      "' object has no attribute '" + attr + "'");
    }
    if (obj.isObjKind(ObjKind::Class)) {
        auto *cls = static_cast<ClassObj *>(obj.asObj());
        ++stats_.dictLookups;
        if (const Value *v = cls->lookup(name))
            return *v;
        throw VmError("class '" + cls->name +
                      "' has no attribute '" + attr + "'");
    }
    // Builtin-type methods (str/list/dict), provided by builtins.cc.
    Value method;
    if (getBuiltinTypeMethod(*this, obj, attr, method))
        return method;
    throw VmError("'" + obj.typeName() + "' object has no attribute '" +
                  attr + "'");
}

void
Interp::storeAttr(const Value &obj, const Value &name, const Value &val)
{
    if (obj.isObjKind(ObjKind::Instance)) {
        auto *inst = static_cast<InstanceObj *>(obj.asObj());
        ++stats_.dictLookups;
        emitMem(inst->fields->simAddr +
                    ((name.hash(cfg.hashSeed) & 63) * 16),
                16, true);
        inst->fields->set(name, val);
        return;
    }
    if (obj.isObjKind(ObjKind::Class)) {
        static_cast<ClassObj *>(obj.asObj())->attrs->set(name, val);
        return;
    }
    throw VmError("cannot set attributes on '" + obj.typeName() + "'");
}

Value
Interp::loadSubscr(const Value &obj, const Value &idx)
{
    if (!obj.isObj())
        throw VmError("'" + obj.typeName() +
                      "' object is not subscriptable");
    Object *o = obj.asObj();

    if (idx.isObjKind(ObjKind::Slice)) {
        auto *slice = static_cast<SliceObj *>(idx.asObj());
        int64_t start, stop, step;
        switch (o->kind()) {
          case ObjKind::List: {
            auto *l = static_cast<ListObj *>(o);
            int64_t len = static_cast<int64_t>(l->items.size());
            resolveSlice(*slice, len, start, stop, step);
            ListObj *out = alloc<ListObj>();
            if (step > 0) {
                for (int64_t i = start; i < stop; i += step)
                    out->items.push_back(
                        l->items[static_cast<size_t>(i)]);
            } else {
                for (int64_t i = start; i > stop; i += step)
                    out->items.push_back(
                        l->items[static_cast<size_t>(i)]);
            }
            return Value::makeObj(out);
          }
          case ObjKind::Str: {
            auto *s = static_cast<StrObj *>(o);
            int64_t len = static_cast<int64_t>(s->value.size());
            resolveSlice(*slice, len, start, stop, step);
            std::string out;
            if (step > 0) {
                for (int64_t i = start; i < stop; i += step)
                    out += s->value[static_cast<size_t>(i)];
            } else {
                for (int64_t i = start; i > stop; i += step)
                    out += s->value[static_cast<size_t>(i)];
            }
            return Value::makeObj(alloc<StrObj>(std::move(out)));
          }
          case ObjKind::Tuple: {
            auto *t = static_cast<TupleObj *>(o);
            int64_t len = static_cast<int64_t>(t->items.size());
            resolveSlice(*slice, len, start, stop, step);
            TupleObj *out = alloc<TupleObj>();
            if (step > 0) {
                for (int64_t i = start; i < stop; i += step)
                    out->items.push_back(
                        t->items[static_cast<size_t>(i)]);
            } else {
                for (int64_t i = start; i > stop; i += step)
                    out->items.push_back(
                        t->items[static_cast<size_t>(i)]);
            }
            return Value::makeObj(out);
          }
          default:
            throw VmError("'" + obj.typeName() +
                          "' object does not support slicing");
        }
    }

    switch (o->kind()) {
      case ObjKind::List: {
        auto *l = static_cast<ListObj *>(o);
        if (!intLike(idx))
            throw VmError("list indices must be integers");
        int64_t i = normalizeIndex(
            intOf(idx), static_cast<int64_t>(l->items.size()), "list");
        emitMem(l->simAddr + 16 + static_cast<uint64_t>(i) * 8, 8,
                false);
        return l->items[static_cast<size_t>(i)];
      }
      case ObjKind::Tuple: {
        auto *t = static_cast<TupleObj *>(o);
        if (!intLike(idx))
            throw VmError("tuple indices must be integers");
        int64_t i = normalizeIndex(
            intOf(idx), static_cast<int64_t>(t->items.size()),
            "tuple");
        emitMem(t->simAddr + 16 + static_cast<uint64_t>(i) * 8, 8,
                false);
        return t->items[static_cast<size_t>(i)];
      }
      case ObjKind::Str: {
        auto *s = static_cast<StrObj *>(o);
        if (!intLike(idx))
            throw VmError("string indices must be integers");
        int64_t i = normalizeIndex(
            intOf(idx), static_cast<int64_t>(s->value.size()),
            "string");
        emitMem(s->simAddr + 16 + static_cast<uint64_t>(i), 1, false);
        return Value::makeObj(alloc<StrObj>(
            std::string(1, s->value[static_cast<size_t>(i)])));
      }
      case ObjKind::Dict: {
        auto *d = static_cast<DictObj *>(o);
        ++stats_.dictLookups;
        emitMem(d->simAddr + ((idx.hash(cfg.hashSeed) & 255) * 16), 16,
                false);
        if (const Value *v = d->find(idx))
            return *v;
        throw VmError("KeyError: " + idx.repr());
      }
      default:
        throw VmError("'" + obj.typeName() +
                      "' object is not subscriptable");
    }
}

void
Interp::storeSubscr(const Value &obj, const Value &idx, const Value &val)
{
    if (!obj.isObj())
        throw VmError("'" + obj.typeName() +
                      "' does not support item assignment");
    Object *o = obj.asObj();
    switch (o->kind()) {
      case ObjKind::List: {
        auto *l = static_cast<ListObj *>(o);
        if (!intLike(idx))
            throw VmError("list indices must be integers");
        int64_t i = normalizeIndex(
            intOf(idx), static_cast<int64_t>(l->items.size()), "list");
        emitMem(l->simAddr + 16 + static_cast<uint64_t>(i) * 8, 8,
                true);
        l->items[static_cast<size_t>(i)] = val;
        return;
      }
      case ObjKind::Dict: {
        auto *d = static_cast<DictObj *>(o);
        ++stats_.dictLookups;
        emitMem(d->simAddr + ((idx.hash(cfg.hashSeed) & 255) * 16), 16,
                true);
        d->set(idx, val);
        return;
      }
      default:
        throw VmError("'" + obj.typeName() +
                      "' does not support item assignment");
    }
}

void
Interp::deleteSubscr(const Value &obj, const Value &idx)
{
    if (obj.isObjKind(ObjKind::Dict)) {
        auto *d = static_cast<DictObj *>(obj.asObj());
        if (!d->erase(idx))
            throw VmError("KeyError: " + idx.repr());
        return;
    }
    if (obj.isObjKind(ObjKind::List)) {
        auto *l = static_cast<ListObj *>(obj.asObj());
        if (!intLike(idx))
            throw VmError("list indices must be integers");
        int64_t i = normalizeIndex(
            intOf(idx), static_cast<int64_t>(l->items.size()), "list");
        l->items.erase(l->items.begin() +
                       static_cast<ptrdiff_t>(i));
        return;
    }
    throw VmError("'" + obj.typeName() +
                  "' does not support item deletion");
}

void
Interp::jitCompile(const CodeObject *code, CodeRuntime &rt)
{
    rt.quickened = code->instrs;
    rt.caches.assign(code->instrs.size(), {});
    for (auto &ins : rt.quickened) {
        switch (ins.op) {
          case Op::BinaryAdd: ins.op = Op::AddIntInt; break;
          case Op::BinarySub: ins.op = Op::SubIntInt; break;
          case Op::BinaryMul: ins.op = Op::MulIntInt; break;
          case Op::CompareLt: ins.op = Op::CompareLtIntInt; break;
          case Op::CompareLe: ins.op = Op::CompareLeIntInt; break;
          case Op::CompareGt: ins.op = Op::CompareGtIntInt; break;
          case Op::CompareGe: ins.op = Op::CompareGeIntInt; break;
          case Op::CompareEq: ins.op = Op::CompareEqIntInt; break;
          case Op::ForIter: ins.op = Op::ForIterRange; break;
          case Op::LoadAttr: ins.op = Op::LoadAttrCached; break;
          case Op::LoadGlobal: ins.op = Op::LoadGlobalCached; break;
          default:
            break;
        }
    }
    rt.compiled = true;
    ++stats_.jitCompiles;
    uint64_t cost =
        cfg.jitCompileUopsPerInstr * code->instrs.size();
    stats_.uops += cost;
    stats_.jitCompileUops += cost;
    if (obs)
        obs->onJitCompile(code->codeId, cost);
}

void
Interp::threadedQuicken(const CodeObject *code, CodeRuntime &rt)
{
    rt.quickened = code->instrs;
    rt.caches.assign(code->instrs.size(), {});
    size_t n = rt.quickened.size();

    // A superinstruction consumes the slot after it, so it must never
    // swallow a control-flow join: mark every jump target (including
    // except-handler entry points) and refuse to fuse across one.
    std::vector<bool> isTarget(n, false);
    for (const auto &ins : code->instrs) {
        if ((opIsJump(ins.op) || ins.op == Op::SetupExcept) &&
            ins.arg >= 0 && static_cast<size_t>(ins.arg) < n)
            isTarget[static_cast<size_t>(ins.arg)] = true;
    }

    // Pass 1: fuse the hottest adjacent pairs. The absorbed slot is
    // rewritten to Nop (defensive: the superinstruction skips it with
    // ++pc, and no jump can land there).
    for (size_t i = 0; i + 1 < n; ++i) {
        const Instr a = rt.quickened[i];
        const Instr b = rt.quickened[i + 1];
        if (a.op != Op::LoadFast || isTarget[i + 1])
            continue;
        if (b.op == Op::LoadFast && a.arg >= 0 && a.arg < 0x10000 &&
            b.arg >= 0 && b.arg < 0x10000) {
            rt.quickened[i] = {Op::LoadFastLoadFast,
                               (a.arg << 16) | b.arg};
            rt.quickened[i + 1] = {Op::Nop, 0};
            ++i;  // the dead slot cannot start another pair
        } else if (b.op == Op::BinaryAdd) {
            rt.quickened[i] = {Op::LoadFastBinaryAdd, a.arg};
            rt.quickened[i + 1] = {Op::Nop, 0};
            ++i;
        }
    }

    // Pass 2: specialize what is left generic (same opcode map as the
    // adaptive tier, so both share the guarded fast-path handlers).
    for (auto &ins : rt.quickened) {
        switch (ins.op) {
          case Op::BinaryAdd: ins.op = Op::AddIntInt; break;
          case Op::BinarySub: ins.op = Op::SubIntInt; break;
          case Op::BinaryMul: ins.op = Op::MulIntInt; break;
          case Op::CompareLt: ins.op = Op::CompareLtIntInt; break;
          case Op::CompareLe: ins.op = Op::CompareLeIntInt; break;
          case Op::CompareGt: ins.op = Op::CompareGtIntInt; break;
          case Op::CompareGe: ins.op = Op::CompareGeIntInt; break;
          case Op::CompareEq: ins.op = Op::CompareEqIntInt; break;
          case Op::ForIter: ins.op = Op::ForIterRange; break;
          case Op::LoadAttr: ins.op = Op::LoadAttrCached; break;
          case Op::LoadGlobal: ins.op = Op::LoadGlobalCached; break;
          default:
            break;
        }
    }

    rt.threaded = true;
    // Quickening is a linear pass, not a compile: charge a few uops
    // per instruction through the jit counters so warmup analyses see
    // the (small) tier-up cost.
    ++stats_.jitCompiles;
    uint64_t cost = cfg.quickenUopsPerInstr * code->instrs.size();
    stats_.uops += cost;
    stats_.jitCompileUops += cost;
    if (obs)
        obs->onJitCompile(code->codeId, cost);
}

/*
 * Dispatch mechanism of the evaluation loop.
 *
 * On GCC/Clang the loop is direct-threaded: a static table maps each
 * opcode to the address of its handler label and dispatch is a single
 * computed goto, the classic CPython/Forth technique that gives the
 * host branch predictor one indirect-jump site per handler instead of
 * one shared site for the whole switch. Everywhere else (or with
 * -DRIGOR_NO_COMPUTED_GOTO, which CI exercises) the exact same
 * handler bodies compile as a portable switch. The macros keep both
 * forms textually identical:
 *
 *   VM_SWITCH(op)   open dispatch on `op`
 *   VM_CASE(Name)   handler entry for Op::Name
 *   VM_BREAK        end of handler (falls through to accounting)
 *   VM_SWITCH_END   close dispatch
 *
 * Every VM_CASE body must leave via VM_BREAK, continue, return or
 * throw; in threaded mode falling off the end would run the next
 * handler.
 */
#if defined(__GNUC__) && !defined(RIGOR_NO_COMPUTED_GOTO)
#define RIGOR_DIRECT_THREADED 1
#define VM_SWITCH(op) goto *kOpTargets[static_cast<size_t>(op)];
#define VM_CASE(name) vm_tgt_##name:
#define VM_BREAK goto vm_dispatch_done
#define VM_SWITCH_END vm_dispatch_done:;
#else
#define VM_SWITCH(op) switch (op) {
#define VM_CASE(name) case Op::name:
#define VM_BREAK break
#define VM_SWITCH_END }
#endif

Value
Interp::evalFrame(Frame &frame)
{
    const CodeObject *code = frame.code;
    Value *const locals = frame.locals;
    // The operand stack grows up from the end of the locals. Every
    // slot at or above sp holds None, so a push constructs in place
    // and a pop moves out; the compiler's maxStack bounds the depth.
    Value *sp = frame.sp;
    [[maybe_unused]] Value *const stack_limit =
        locals + code->numLocals + code->maxStack;

    // Forwarding, not by-value: a pushed lvalue is copied straight
    // into its slot, with no temporary to move from and destroy.
    auto push = [&](auto &&v) {
        assert(sp < stack_limit && sp->isNone());
        ::new (static_cast<void *>(sp)) Value(
            std::forward<decltype(v)>(v));
        ++sp;
    };
    auto pop = [&sp]() -> Value { return std::move(*--sp); };
    auto drop = [&sp]() { *--sp = Value(); };

#if RIGOR_DIRECT_THREADED
    // Handler-label address table, indexed by Op. Order must match the
    // Op enum exactly (FirstQuickened aliases AddIntInt, so it has no
    // slot of its own); the trailing NumOpcodes slot keeps a stray
    // encoding on the panic path rather than off the end of the table.
    static const void *const kOpTargets[] = {
        &&vm_tgt_Nop,
        &&vm_tgt_LoadConst,
        &&vm_tgt_LoadFast,
        &&vm_tgt_StoreFast,
        &&vm_tgt_LoadGlobal,
        &&vm_tgt_StoreGlobal,
        &&vm_tgt_LoadName,
        &&vm_tgt_StoreName,
        &&vm_tgt_LoadAttr,
        &&vm_tgt_StoreAttr,
        &&vm_tgt_LoadSubscr,
        &&vm_tgt_StoreSubscr,
        &&vm_tgt_DeleteSubscr,
        &&vm_tgt_BinaryAdd,
        &&vm_tgt_BinarySub,
        &&vm_tgt_BinaryMul,
        &&vm_tgt_BinaryDiv,
        &&vm_tgt_BinaryFloorDiv,
        &&vm_tgt_BinaryMod,
        &&vm_tgt_BinaryPow,
        &&vm_tgt_BinaryAnd,
        &&vm_tgt_BinaryOr,
        &&vm_tgt_BinaryXor,
        &&vm_tgt_BinaryLshift,
        &&vm_tgt_BinaryRshift,
        &&vm_tgt_UnaryNeg,
        &&vm_tgt_UnaryNot,
        &&vm_tgt_CompareEq,
        &&vm_tgt_CompareNe,
        &&vm_tgt_CompareLt,
        &&vm_tgt_CompareLe,
        &&vm_tgt_CompareGt,
        &&vm_tgt_CompareGe,
        &&vm_tgt_CompareIn,
        &&vm_tgt_CompareNotIn,
        &&vm_tgt_Jump,
        &&vm_tgt_PopJumpIfFalse,
        &&vm_tgt_PopJumpIfTrue,
        &&vm_tgt_JumpIfFalseOrPop,
        &&vm_tgt_JumpIfTrueOrPop,
        &&vm_tgt_GetIter,
        &&vm_tgt_ForIter,
        &&vm_tgt_Call,
        &&vm_tgt_Return,
        &&vm_tgt_Pop,
        &&vm_tgt_Dup,
        &&vm_tgt_DupTwo,
        &&vm_tgt_RotTwo,
        &&vm_tgt_RotThree,
        &&vm_tgt_BuildList,
        &&vm_tgt_BuildTuple,
        &&vm_tgt_BuildDict,
        &&vm_tgt_BuildSlice,
        &&vm_tgt_UnpackSequence,
        &&vm_tgt_MakeFunction,
        &&vm_tgt_MakeClass,
        &&vm_tgt_SetupExcept,
        &&vm_tgt_PopExcept,
        &&vm_tgt_Raise,
        &&vm_tgt_ListAppend,
        &&vm_tgt_AddIntInt,
        &&vm_tgt_SubIntInt,
        &&vm_tgt_MulIntInt,
        &&vm_tgt_AddFloatFloat,
        &&vm_tgt_SubFloatFloat,
        &&vm_tgt_MulFloatFloat,
        &&vm_tgt_CompareLtIntInt,
        &&vm_tgt_CompareLeIntInt,
        &&vm_tgt_CompareGtIntInt,
        &&vm_tgt_CompareGeIntInt,
        &&vm_tgt_CompareEqIntInt,
        &&vm_tgt_ForIterRange,
        &&vm_tgt_LoadAttrCached,
        &&vm_tgt_LoadGlobalCached,
        &&vm_tgt_LoadFastLoadFast,
        &&vm_tgt_LoadFastBinaryAdd,
        &&vm_tgt_NumOpcodes,
    };
    static_assert(sizeof(kOpTargets) / sizeof(kOpTargets[0]) ==
                      static_cast<size_t>(Op::NumOpcodes) + 1,
                  "dispatch table out of sync with the Op enum");
#endif

    bool compiled = frame.runtime->compiled;
    const bool adaptive = cfg.tier == Tier::Adaptive;

    for (;;) {
        const Instr &ins = (*frame.instrs)[frame.pc];
        size_t pc = frame.pc;
        ++frame.pc;
        Op op = ins.op;
        uint32_t uops = opBaseUops(op);
        bool dispatched = !compiled;
        // Set once the observer has the bytecode's step; a bytecode
        // that throws before that delivers its fetch on the way out.
        bool accounted = false;
        if (obs)
            curSite = (static_cast<uint64_t>(code->codeId) << 20) | pc;
        // Compiled code unboxes and inlines beyond quickening: scale
        // down the cost of opcodes that stayed generic.
        if (compiled && op < Op::FirstQuickened) {
            uint32_t scaled = uops *
                static_cast<uint32_t>(cfg.compiledCostPercent) / 100;
            uops = scaled > 0 ? scaled : 1;
        }

        try {
        VM_SWITCH(op)
          VM_CASE(Nop)
            VM_BREAK;

          VM_CASE(LoadConst)
            push(code->constants[static_cast<size_t>(ins.arg)]);
            VM_BREAK;

          VM_CASE(LoadFast)
            emitMem(frame.localsBase +
                        static_cast<uint64_t>(ins.arg) * 8,
                    8, false);
            push(locals[static_cast<size_t>(ins.arg)]);
            VM_BREAK;

          VM_CASE(StoreFast)
            emitMem(frame.localsBase +
                        static_cast<uint64_t>(ins.arg) * 8,
                    8, true);
            locals[static_cast<size_t>(ins.arg)] = pop();
            VM_BREAK;

          VM_CASE(LoadGlobal)
          VM_CASE(LoadGlobalCached) {
            const Value &name =
                code->names[static_cast<size_t>(ins.arg)];
            bool cheap = false;
            if (op == Op::LoadGlobalCached) {
                auto &cache =
                    frame.runtime->caches[pc];
                if (cache.valid && cache.key == globalsDict) {
                    cheap = true;
                } else {
                    cache.valid = true;
                    cache.key = globalsDict;
                    uops = opBaseUops(Op::LoadGlobal);
                }
            }
            ++stats_.dictLookups;
            if (!cheap)
                emitMem(globalsDict->simAddr +
                            ((name.hash(cfg.hashSeed) & 255) * 16),
                        16, false);
            if (const Value *v = globalsDict->find(name)) {
                push(*v);
            } else if (const Value *b = builtinsDict->find(name)) {
                push(*b);
            } else {
                throw VmError(
                    "name '" +
                    code->nameStrings[static_cast<size_t>(ins.arg)] +
                    "' is not defined");
            }
            VM_BREAK;
          }

          VM_CASE(StoreGlobal) {
            const Value &name =
                code->names[static_cast<size_t>(ins.arg)];
            ++stats_.dictLookups;
            emitMem(globalsDict->simAddr +
                        ((name.hash(cfg.hashSeed) & 255) * 16),
                    16, true);
            globalsDict->set(name, pop());
            VM_BREAK;
          }

          VM_CASE(LoadName) {
            const Value &name =
                code->names[static_cast<size_t>(ins.arg)];
            ++stats_.dictLookups;
            const Value *v = nullptr;
            if (frame.nameSpace)
                v = frame.nameSpace->find(name);
            if (!v)
                v = globalsDict->find(name);
            if (!v)
                v = builtinsDict->find(name);
            if (!v) {
                throw VmError(
                    "name '" +
                    code->nameStrings[static_cast<size_t>(ins.arg)] +
                    "' is not defined");
            }
            push(*v);
            VM_BREAK;
          }

          VM_CASE(StoreName) {
            const Value &name =
                code->names[static_cast<size_t>(ins.arg)];
            DictObj *ns =
                frame.nameSpace ? frame.nameSpace : globalsDict;
            ns->set(name, pop());
            VM_BREAK;
          }

          VM_CASE(LoadAttr)
          VM_CASE(LoadAttrCached) {
            Value obj = pop();
            const Value &name =
                code->names[static_cast<size_t>(ins.arg)];
            if (op == Op::LoadAttrCached) {
                auto &cache = frame.runtime->caches[pc];
                const void *key = nullptr;
                if (obj.isObjKind(ObjKind::Instance))
                    key = static_cast<InstanceObj *>(obj.asObj())
                              ->cls;
                if (cache.valid && cache.key == key && key) {
                    // Modelled monomorphic-site hit: cheap cost,
                    // but perform the real lookup for correctness.
                } else {
                    uops = opBaseUops(Op::LoadAttr);
                    cache.valid = key != nullptr;
                    cache.key = key;
                }
            }
            push(loadAttr(obj, name, frame, pc));
            VM_BREAK;
          }

          VM_CASE(StoreAttr) {
            Value val = pop();
            Value obj = pop();
            storeAttr(obj, code->names[static_cast<size_t>(ins.arg)],
                      val);
            VM_BREAK;
          }

          VM_CASE(LoadSubscr) {
            Value idx = pop();
            Value obj = pop();
            push(loadSubscr(obj, idx));
            VM_BREAK;
          }

          VM_CASE(StoreSubscr) {
            Value val = pop();
            Value idx = pop();
            Value obj = pop();
            storeSubscr(obj, idx, val);
            VM_BREAK;
          }

          VM_CASE(DeleteSubscr) {
            Value idx = pop();
            Value obj = pop();
            deleteSubscr(obj, idx);
            VM_BREAK;
          }

          // --- Generic binary / unary / compare ----------------------
          VM_CASE(BinaryAdd)
          VM_CASE(BinarySub)
          VM_CASE(BinaryMul)
          VM_CASE(BinaryDiv)
          VM_CASE(BinaryFloorDiv)
          VM_CASE(BinaryMod)
          VM_CASE(BinaryPow)
          VM_CASE(BinaryAnd)
          VM_CASE(BinaryOr)
          VM_CASE(BinaryXor)
          VM_CASE(BinaryLshift)
          VM_CASE(BinaryRshift) {
            Value b = pop();
            Value a = pop();
            push(binaryOp(op, a, b));
            VM_BREAK;
          }

          // --- Quickened arithmetic with guards -----------------------
          VM_CASE(AddIntInt)
          VM_CASE(SubIntInt)
          VM_CASE(MulIntInt) {
            Value b = pop();
            Value a = pop();
            if (a.isInt() && b.isInt()) {
                int64_t x = a.asInt(), y = b.asInt();
                uint64_t ux = static_cast<uint64_t>(x);
                uint64_t uy = static_cast<uint64_t>(y);
                int64_t r = static_cast<int64_t>(
                    op == Op::AddIntInt ? ux + uy
                    : op == Op::SubIntInt ? ux - uy
                                          : ux * uy);
                push(Value::makeInt(r));
            } else if (a.isFloat() && b.isFloat()) {
                // Re-specialized float path (still cheap).
                double x = a.asFloat(), y = b.asFloat();
                double r = op == Op::AddIntInt ? x + y
                    : op == Op::SubIntInt      ? x - y
                                               : x * y;
                push(Value::makeFloat(r));
                uops += 1;
            } else {
                ++stats_.guardFailures;
                ++stats_.perOpGuards[static_cast<size_t>(op)];
                if (obs)
                    obs->onGuardFailure(op);
                Op generic = op == Op::AddIntInt ? Op::BinaryAdd
                    : op == Op::SubIntInt        ? Op::BinarySub
                                                 : Op::BinaryMul;
                uops = opBaseUops(generic) + 4;
                push(binaryOp(generic, a, b));
            }
            VM_BREAK;
          }

          VM_CASE(AddFloatFloat)
          VM_CASE(SubFloatFloat)
          VM_CASE(MulFloatFloat) {
            Value b = pop();
            Value a = pop();
            if (a.isFloat() && b.isFloat()) {
                double x = a.asFloat(), y = b.asFloat();
                double r = op == Op::AddFloatFloat ? x + y
                    : op == Op::SubFloatFloat      ? x - y
                                                   : x * y;
                push(Value::makeFloat(r));
            } else {
                ++stats_.guardFailures;
                ++stats_.perOpGuards[static_cast<size_t>(op)];
                if (obs)
                    obs->onGuardFailure(op);
                Op generic = op == Op::AddFloatFloat ? Op::BinaryAdd
                    : op == Op::SubFloatFloat        ? Op::BinarySub
                                                     : Op::BinaryMul;
                uops = opBaseUops(generic) + 4;
                push(binaryOp(generic, a, b));
            }
            VM_BREAK;
          }

          VM_CASE(UnaryNeg) {
            Value a = pop();
            if (a.isInt())
                push(Value::makeInt(-a.asInt()));
            else if (a.isFloat())
                push(Value::makeFloat(-a.asFloat()));
            else if (a.isBool())
                push(Value::makeInt(a.asBool() ? -1 : 0));
            else
                throw VmError("bad operand type for unary -: '" +
                              a.typeName() + "'");
            VM_BREAK;
          }

          VM_CASE(UnaryNot)
            push(Value::makeBool(!pop().truthy()));
            VM_BREAK;

          VM_CASE(CompareEq)
          VM_CASE(CompareNe)
          VM_CASE(CompareLt)
          VM_CASE(CompareLe)
          VM_CASE(CompareGt)
          VM_CASE(CompareGe)
          VM_CASE(CompareIn)
          VM_CASE(CompareNotIn) {
            Value b = pop();
            Value a = pop();
            push(compareOp(op, a, b));
            VM_BREAK;
          }

          VM_CASE(CompareLtIntInt)
          VM_CASE(CompareLeIntInt)
          VM_CASE(CompareGtIntInt)
          VM_CASE(CompareGeIntInt)
          VM_CASE(CompareEqIntInt) {
            Value b = pop();
            Value a = pop();
            if (a.isInt() && b.isInt()) {
                int64_t x = a.asInt(), y = b.asInt();
                bool r = false;
                switch (op) {
                  case Op::CompareLtIntInt: r = x < y; break;
                  case Op::CompareLeIntInt: r = x <= y; break;
                  case Op::CompareGtIntInt: r = x > y; break;
                  case Op::CompareGeIntInt: r = x >= y; break;
                  case Op::CompareEqIntInt: r = x == y; break;
                  default: break;
                }
                push(Value::makeBool(r));
            } else {
                ++stats_.guardFailures;
                ++stats_.perOpGuards[static_cast<size_t>(op)];
                if (obs)
                    obs->onGuardFailure(op);
                Op generic;
                switch (op) {
                  case Op::CompareLtIntInt: generic = Op::CompareLt;
                    break;
                  case Op::CompareLeIntInt: generic = Op::CompareLe;
                    break;
                  case Op::CompareGtIntInt: generic = Op::CompareGt;
                    break;
                  case Op::CompareGeIntInt: generic = Op::CompareGe;
                    break;
                  default: generic = Op::CompareEq; break;
                }
                uops = opBaseUops(generic) + 4;
                push(compareOp(generic, a, b));
            }
            VM_BREAK;
          }

          // --- Control flow ------------------------------------------
          VM_CASE(Jump) {
            int32_t target = ins.arg;
            if (target <= static_cast<int32_t>(pc)) {
                // Backward edge: hot-loop accounting for the JIT.
                if (adaptive && !compiled) {
                    CodeRuntime &rt = *frame.runtime;
                    if (++rt.backedges >=
                        static_cast<uint64_t>(cfg.jitThreshold)) {
                        jitCompile(code, rt);
                        frame.instrs = &rt.quickened;
                        compiled = true;
                    }
                }
            }
            frame.pc = static_cast<size_t>(target);
            VM_BREAK;
          }

          VM_CASE(PopJumpIfFalse) {
            bool cond = pop().truthy();
            emitBranch(frame, pc, !cond);
            if (!cond)
                frame.pc = static_cast<size_t>(ins.arg);
            VM_BREAK;
          }

          VM_CASE(PopJumpIfTrue) {
            bool cond = pop().truthy();
            emitBranch(frame, pc, cond);
            if (cond)
                frame.pc = static_cast<size_t>(ins.arg);
            VM_BREAK;
          }

          VM_CASE(JumpIfFalseOrPop) {
            bool cond = sp[-1].truthy();
            emitBranch(frame, pc, !cond);
            if (!cond)
                frame.pc = static_cast<size_t>(ins.arg);
            else
                drop();
            VM_BREAK;
          }

          VM_CASE(JumpIfTrueOrPop) {
            bool cond = sp[-1].truthy();
            emitBranch(frame, pc, cond);
            if (cond)
                frame.pc = static_cast<size_t>(ins.arg);
            else
                drop();
            VM_BREAK;
          }

          VM_CASE(GetIter) {
            Value it = makeIterator(pop());
            push(std::move(it));
            VM_BREAK;
          }

          VM_CASE(ForIter)
          VM_CASE(ForIterRange) {
            auto *iter = static_cast<IteratorObj *>(sp[-1].asObj());
            if (op == Op::ForIterRange &&
                iter->source != IteratorObj::Source::Range) {
                ++stats_.guardFailures;
                ++stats_.perOpGuards[static_cast<size_t>(op)];
                if (obs)
                    obs->onGuardFailure(op);
                uops = opBaseUops(Op::ForIter) + 2;
            }
            Value next;
            bool has = iter->next(next, cfg.hashSeed);
            if (iter->source == IteratorObj::Source::List && has) {
                emitMem(iter->container.asObj()->simAddr + 16 +
                            (iter->index - 1) * 8,
                        8, false);
            }
            emitBranch(frame, pc, has);
            if (has) {
                push(std::move(next));
            } else {
                drop();  // the iterator
                frame.pc = static_cast<size_t>(ins.arg);
                // Loop exit is also a back-edge accounting point.
                if (adaptive && !compiled) {
                    CodeRuntime &rt = *frame.runtime;
                    if (rt.backedges >=
                        static_cast<uint64_t>(cfg.jitThreshold)) {
                        jitCompile(code, rt);
                        frame.instrs = &rt.quickened;
                        compiled = true;
                    }
                }
            }
            VM_BREAK;
          }

          // --- Calls --------------------------------------------------
          VM_CASE(Call) {
            // Callee, then the arguments. call() moves the arguments
            // into the callee's window; sp stays above them until it
            // returns, so an unwind resets whatever it left.
            Value *argv = sp - ins.arg;
            Value callee = std::move(argv[-1]);
            accountBytecode(op, uops, dispatched, code->codeId, pc);
            accounted = true;
            Value result =
                call(callee, nullptr, argv, static_cast<size_t>(ins.arg));
            sp = argv - 1;
            push(std::move(result));
            continue;
          }

          VM_CASE(Return) {
            Value result = pop();
            accountBytecode(op, uops, dispatched, code->codeId, pc);
            frame.sp = sp;
            return result;
          }

          // --- Stack shuffling ----------------------------------------
          VM_CASE(Pop)
            drop();
            VM_BREAK;
          VM_CASE(Dup)
            push(sp[-1]);
            VM_BREAK;
          VM_CASE(DupTwo) {
            Value b = sp[-1];
            Value a = sp[-2];
            push(std::move(a));
            push(std::move(b));
            VM_BREAK;
          }
          VM_CASE(RotTwo)
            std::swap(sp[-1], sp[-2]);
            VM_BREAK;
          VM_CASE(RotThree) {
            // [a, b, top] -> [top, a, b]
            Value top = std::move(sp[-1]);
            sp[-1] = std::move(sp[-2]);
            sp[-2] = std::move(sp[-3]);
            sp[-3] = std::move(top);
            VM_BREAK;
          }

          // --- Construction -------------------------------------------
          VM_CASE(BuildList) {
            size_t n = static_cast<size_t>(ins.arg);
            ListObj *l = alloc<ListObj>();
            l->items.reserve(n);
            sp -= n;
            for (size_t i = 0; i < n; ++i)
                l->items.push_back(std::move(sp[i]));
            push(Value::makeObj(l));
            VM_BREAK;
          }
          VM_CASE(BuildTuple) {
            size_t n = static_cast<size_t>(ins.arg);
            TupleObj *t = alloc<TupleObj>();
            t->items.reserve(n);
            sp -= n;
            for (size_t i = 0; i < n; ++i)
                t->items.push_back(std::move(sp[i]));
            push(Value::makeObj(t));
            VM_BREAK;
          }
          VM_CASE(BuildDict) {
            size_t n = static_cast<size_t>(ins.arg);
            DictObj *d = alloc<DictObj>(cfg.hashSeed);
            Value *base = sp - 2 * n;
            for (size_t i = 0; i < n; ++i)
                d->set(base[2 * i], base[2 * i + 1]);
            while (sp != base)
                drop();
            push(Value::makeObj(d));
            VM_BREAK;
          }
          VM_CASE(BuildSlice) {
            SliceObj *s = alloc<SliceObj>();
            s->step = pop();
            s->stop = pop();
            s->start = pop();
            push(Value::makeObj(s));
            VM_BREAK;
          }

          VM_CASE(UnpackSequence) {
            Value seq = pop();
            size_t n = static_cast<size_t>(ins.arg);
            const std::vector<Value> *items = nullptr;
            if (seq.isObjKind(ObjKind::Tuple))
                items = &static_cast<TupleObj *>(seq.asObj())->items;
            else if (seq.isObjKind(ObjKind::List))
                items = &static_cast<ListObj *>(seq.asObj())->items;
            else
                throw VmError("cannot unpack '" + seq.typeName() +
                              "'");
            if (items->size() != n)
                throw VmError(
                    "unpack expected " + std::to_string(n) +
                    " values, got " + std::to_string(items->size()));
            for (size_t i = n; i > 0; --i)
                push((*items)[i - 1]);
            VM_BREAK;
          }

          VM_CASE(MakeFunction) {
            const CodeObject *child =
                code->children[static_cast<size_t>(ins.arg)].get();
            FunctionObj *fn = alloc<FunctionObj>();
            fn->name = child->name;
            fn->code = child;
            fn->globals = globalsDict;
            fn->defaults.resize(
                static_cast<size_t>(child->numDefaults));
            for (size_t i =
                     static_cast<size_t>(child->numDefaults);
                 i > 0; --i)
                fn->defaults[i - 1] = pop();
            push(Value::makeObj(fn));
            VM_BREAK;
          }

          VM_CASE(MakeClass) {
            const CodeObject *child =
                code->children[static_cast<size_t>(ins.arg)].get();
            Value base = pop();
            ClassObj *cls = alloc<ClassObj>(cfg.hashSeed);
            cls->name = child->name;
            if (!base.isNone()) {
                if (!base.isObjKind(ObjKind::Class))
                    throw VmError("base class must be a class");
                cls->base = static_cast<ClassObj *>(base.asObj());
                cls->base->incRef();
            }
            Value cls_val = Value::makeObj(cls);
            // Execute the class body into the class namespace.
            accountBytecode(op, uops, dispatched, code->codeId, pc);
            accounted = true;
            execCode(child, cls->attrs);
            push(std::move(cls_val));
            continue;
          }

          VM_CASE(SetupExcept)
            handlers.push_back({static_cast<size_t>(ins.arg), sp});
            VM_BREAK;

          VM_CASE(PopExcept)
            if (handlers.size() == frame.handlerBase)
                panic("POP_EXCEPT with no active handler");
            handlers.pop_back();
            VM_BREAK;

          VM_CASE(Raise) {
            Value exc = pop();
            accountBytecode(op, uops, dispatched, code->codeId, pc);
            accounted = true;
            throw VmError(exc.str());
          }

          VM_CASE(ListAppend) {
            Value v = pop();
            Value &holder = sp[-ins.arg];
            if (!holder.isObjKind(ObjKind::List))
                panic("LIST_APPEND: no list at depth %d", ins.arg);
            auto *l = static_cast<ListObj *>(holder.asObj());
            emitMem(l->simAddr + 16 + l->items.size() * 8, 8, true);
            l->items.push_back(std::move(v));
            VM_BREAK;
          }

          // --- Superinstructions (threaded tier) ---------------------
          // Each fused op accounts as ONE bytecode and steps over the
          // dead slot quickening rewrote to Nop.
          VM_CASE(LoadFastLoadFast) {
            size_t s1 = static_cast<size_t>(ins.arg) >> 16;
            size_t s2 = static_cast<size_t>(ins.arg) & 0xffff;
            emitMem(frame.localsBase + s1 * 8, 8, false);
            push(locals[s1]);
            emitMem(frame.localsBase + s2 * 8, 8, false);
            push(locals[s2]);
            ++frame.pc;  // skip the fused (Nop'd) slot
            VM_BREAK;
          }

          VM_CASE(LoadFastBinaryAdd) {
            emitMem(frame.localsBase +
                        static_cast<uint64_t>(ins.arg) * 8,
                    8, false);
            const Value &b = locals[static_cast<size_t>(ins.arg)];
            Value a = pop();
            if (a.isInt() && b.isInt()) {
                push(Value::makeInt(static_cast<int64_t>(
                    static_cast<uint64_t>(a.asInt()) +
                    static_cast<uint64_t>(b.asInt()))));
            } else {
                ++stats_.guardFailures;
                ++stats_.perOpGuards[static_cast<size_t>(op)];
                if (obs)
                    obs->onGuardFailure(op);
                uops = opBaseUops(Op::LoadFast) +
                    opBaseUops(Op::BinaryAdd) + 4;
                push(binaryOp(Op::BinaryAdd, a, b));
            }
            ++frame.pc;  // skip the fused (Nop'd) slot
            VM_BREAK;
          }

          VM_CASE(NumOpcodes)
            panic("invalid opcode %d", static_cast<int>(op));
        VM_SWITCH_END

        accountBytecode(op, uops, dispatched, code->codeId, pc);
        } catch (VmError &) {
            if (obs && !accounted)
                obs->onCodeFetch(
                    fetchAddress(dispatched, op, code->codeId, pc));
            // Unwind to the innermost handler in *this* frame, if
            // any. Exceptions from nested calls surface here at the
            // Call instruction that made them.
            if (handlers.size() == frame.handlerBase) {
                frame.sp = sp;
                throw;
            }
            ExceptHandler handler = handlers.back();
            handlers.pop_back();
            while (sp != handler.sp)
                drop();
            frame.pc = handler.handlerPc;
            // The handler entry is a bytecode with no fetch or
            // dispatch of its own.
            uint32_t raise_uops =
                countBytecode(Op::Raise, opBaseUops(Op::Raise), false);
            if (obs)
                obs->onBytecode(Op::Raise, raise_uops);
        } catch (...) {
            if (obs && !accounted)
                obs->onCodeFetch(
                    fetchAddress(dispatched, op, code->codeId, pc));
            frame.sp = sp;
            throw;
        }
    }
}

} // namespace vm
} // namespace rigor

/**
 * @file
 * Frame and event-delivery tests: frames are LIFO windows of the
 * Interp's value arena (recursion limit, slot reset on return and on
 * unwind, windows larger than a chunk, the compiler's maxStack
 * against a reference depth walk), and the one-call-per-bytecode
 * observer step gives the model the same counters as its three parts.
 */

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness/runner.hh"
#include "uarch/perf_model.hh"
#include "vm/compiler.hh"
#include "vm/interp.hh"
#include "workloads/workloads.hh"

namespace rigor {
namespace vm {
namespace {

const Tier kTiers[] = {Tier::Interp, Tier::Adaptive, Tier::Threaded};

InterpConfig
tierConfig(Tier tier)
{
    InterpConfig cfg;
    cfg.tier = tier;
    cfg.jitThreshold = 10;  // low enough that adaptive compiles
    return cfg;
}

const CodeObject *
findCode(const CodeObject &code, const std::string &name)
{
    if (code.name == name)
        return &code;
    for (const auto &child : code.children)
        if (const CodeObject *c = findCode(*child, name))
            return c;
    return nullptr;
}

TEST(VmFrames, RecursionLimitRaisesAndTheInterpRunsAgain)
{
    Program prog = compileSource(
        "deepest = 0\n"
        "def down(n):\n"
        "    global deepest\n"
        "    deepest = n\n"
        "    return down(n + 1)\n"
        "def guarded():\n"
        "    try:\n"
        "        down(0)\n"
        "    except:\n"
        "        return 1\n"
        "    return 0\n"
        "def run(n):\n"
        "    total = 0\n"
        "    for i in range(n):\n"
        "        total += i\n"
        "    return total\n");
    for (Tier tier : kTiers) {
        InterpConfig cfg = tierConfig(tier);
        Interp in(prog, cfg);
        in.runModule();
        for (int round = 0; round < 2; ++round) {
            try {
                in.callGlobal("down", {Value::makeInt(0)});
                ADD_FAILURE() << "no recursion error on " << tierName(tier);
            } catch (const VmError &e) {
                EXPECT_STREQ(e.what(), "maximum recursion depth exceeded");
            }
            Value deepest;
            ASSERT_TRUE(in.getGlobal("deepest", deepest));
            // callGlobal's frame is depth 1 and holds n = 0.
            EXPECT_EQ(deepest.asInt(), cfg.maxCallDepth - 1);
            EXPECT_EQ(in.callGlobal("run", {Value::makeInt(10)}).asInt(),
                      45)
                << tierName(tier);
            // The same overflow, caught inside MiniPy.
            EXPECT_EQ(in.callGlobal("guarded", {}).asInt(), 1);
            EXPECT_EQ(in.callGlobal("run", {Value::makeInt(100)}).asInt(),
                      4950);
        }
    }
}

TEST(VmFrames, ReturnFromForLoopLeavesNoIterator)
{
    // The loop's iterator holds a reference to the list, so a slot
    // left holding it would show in the list's count.
    Program prog = compileSource("def make():\n"
                                 "    return [1, 2, 3, 4]\n"
                                 "def find(xs, target):\n"
                                 "    for x in xs:\n"
                                 "        for y in xs:\n"
                                 "            if x + y == target:\n"
                                 "                return x\n"
                                 "    return -1\n");
    for (Tier tier : kTiers) {
        Interp in(prog, tierConfig(tier));
        in.runModule();
        Value xs = in.callGlobal("make", {});
        uint32_t before = xs.asObj()->refs();
        for (int i = 0; i < 20; ++i)
            EXPECT_EQ(in.callGlobal("find", {xs, Value::makeInt(5)})
                          .asInt(),
                      1);
        EXPECT_EQ(xs.asObj()->refs(), before) << tierName(tier);
        EXPECT_EQ(
            in.callGlobal("find", {xs, Value::makeInt(99)}).asInt(), -1);
        EXPECT_EQ(xs.asObj()->refs(), before) << tierName(tier);
    }
}

TEST(VmFrames, UnwindThroughThreeFramesReleasesEveryReference)
{
    // f3 raises with the instance in its locals and on its operand
    // stack; f2 and f1 hold it on theirs, mid-expression, when the
    // exception passes; outer catches it with the instance on its own
    // stack too, and goes on catching in the same frame.
    Program prog = compileSource("class Box:\n"
                                 "    def __init__(self, v):\n"
                                 "        self.v = v\n"
                                 "def f3(b):\n"
                                 "    t = [b, b]\n"
                                 "    raise b.v\n"
                                 "def f2(b):\n"
                                 "    return [b, b, f3(b)]\n"
                                 "def f1(b):\n"
                                 "    for i in range(3):\n"
                                 "        x = b\n"
                                 "        return (b, f2(x))\n"
                                 "def outer(b, n):\n"
                                 "    caught = 0\n"
                                 "    for i in range(n):\n"
                                 "        try:\n"
                                 "            x = [b, f1(b)]\n"
                                 "        except:\n"
                                 "            caught += 1\n"
                                 "    return caught\n");
    for (Tier tier : kTiers) {
        Interp in(prog, tierConfig(tier));
        in.runModule();
        Value box = in.callGlobal("Box", {Value::makeInt(1)});
        uint32_t before = box.asObj()->refs();
        EXPECT_EQ(in.callGlobal("outer", {box, Value::makeInt(50)}).asInt(),
                  50);
        EXPECT_EQ(box.asObj()->refs(), before) << tierName(tier);
        // Uncaught, all the way out of callGlobal.
        EXPECT_THROW(in.callGlobal("f1", {box}), VmError);
        EXPECT_EQ(box.asObj()->refs(), before) << tierName(tier);
    }
}

TEST(VmFrames, NonFunctionInitTakesTheInstanceAsItsFirstArgument)
{
    // An __init__ that is a class or a bound method cannot take the
    // instance in its window's slot 0; it gets it as an argument.
    Program prog = compileSource("class Rec:\n"
                                 "    def __init__(self, target, k):\n"
                                 "        target.k = k\n"
                                 "class Holder:\n"
                                 "    def bind(self, target, k):\n"
                                 "        target.k = k + 100\n"
                                 "h = Holder()\n"
                                 "class ByClass:\n"
                                 "    __init__ = Rec\n"
                                 "class ByMethod:\n"
                                 "    __init__ = h.bind\n"
                                 "class ByInt:\n"
                                 "    __init__ = 5\n"
                                 "def run(k):\n"
                                 "    return ByClass(k).k + ByMethod(k).k\n");
    for (Tier tier : kTiers) {
        Interp in(prog, tierConfig(tier));
        in.runModule();
        EXPECT_EQ(in.callGlobal("run", {Value::makeInt(3)}).asInt(), 106);
        EXPECT_THROW(in.callGlobal("ByInt", {}), VmError);
    }
}

TEST(VmFrames, WindowLargerThanAnArenaChunk)
{
    const size_t n = Interp::kArenaChunkSlots + 100;
    std::string items;
    for (size_t i = 0; i < n; ++i)
        items += std::to_string(i % 7) + ", ";
    Program prog = compileSource(
        "def big(k):\n"
        "    xs = [" + items + "]\n"
        "    return len(xs) + xs[" + std::to_string(n - 1) + "] + k\n"
        "def nest(d, k):\n"
        "    if d == 0:\n"
        "        return big(k)\n"
        "    return nest(d - 1, k) + 0\n"
        "def small(k):\n"
        "    return nest(3, k) - nest(0, k)\n");
    const CodeObject *big = findCode(*prog.module, "big");
    ASSERT_NE(big, nullptr);
    EXPECT_GT(static_cast<size_t>(big->numLocals + big->maxStack),
              Interp::kArenaChunkSlots);
    const int64_t expect =
        static_cast<int64_t>(n + (n - 1) % 7) + 5;
    for (Tier tier : kTiers) {
        Interp in(prog, tierConfig(tier));
        in.runModule();
        for (int round = 0; round < 3; ++round) {
            EXPECT_EQ(in.callGlobal("nest", {Value::makeInt(round * 40),
                                             Value::makeInt(5)})
                          .asInt(),
                      expect)
                << tierName(tier);
            EXPECT_EQ(in.callGlobal("small", {Value::makeInt(5)}).asInt(),
                      0);
        }
    }
}

/**
 * Deepest operand stack over every path from pc 0, by a worklist walk
 * over both edges of every instruction; every path into an
 * instruction must arrive at the same depth.
 */
int
referenceMaxStack(const CodeObject &code)
{
    const std::vector<Instr> &instrs = code.instrs;
    std::vector<int> depth(instrs.size(), -1);
    std::vector<size_t> work;
    int deepest = 0;
    auto reach = [&](size_t pc, int d) {
        EXPECT_GE(d, 0) << code.name << " pc " << pc;
        if (pc >= instrs.size()) {
            ADD_FAILURE() << code.name << ": path runs off the end";
            return;
        }
        deepest = std::max(deepest, d);
        if (depth[pc] < 0) {
            depth[pc] = d;
            work.push_back(pc);
        } else {
            EXPECT_EQ(depth[pc], d) << code.name << " pc " << pc;
        }
    };
    reach(0, 0);
    while (!work.empty()) {
        size_t pc = work.back();
        work.pop_back();
        const Instr &ins = instrs[pc];
        if (ins.op != Op::Jump && ins.op != Op::Return &&
            ins.op != Op::Raise)
            reach(pc + 1, depth[pc] + stackEffect(code, ins, false));
        if (opIsJump(ins.op) || ins.op == Op::SetupExcept)
            reach(static_cast<size_t>(ins.arg),
                  depth[pc] + stackEffect(code, ins, true));
    }
    return deepest;
}

void
expectMaxStackMatches(const CodeObject &code, const std::string &where)
{
    EXPECT_EQ(code.maxStack, referenceMaxStack(code))
        << where << ": " << code.name << "\n"
        << code.disassemble();
    for (const auto &child : code.children)
        expectMaxStackMatches(*child, where);
}

TEST(VmFrames, CompilerMaxStackMatchesAReferenceDepthWalk)
{
    for (const auto &spec : workloads::suite())
        expectMaxStackMatches(
            *compileSource(spec.source, spec.name).module, spec.name);
    // The constructs whose depth the compiler corrects by hand:
    // break out of a for loop, and a comprehension's exit.
    const char *corners =
        "def f(xs):\n"
        "    for x in xs:\n"
        "        for y in xs:\n"
        "            if x == y:\n"
        "                break\n"
        "            z = [a * y for a in xs if a < y]\n"
        "        while x:\n"
        "            x = x - 1\n"
        "            if x == 3:\n"
        "                break\n"
        "        try:\n"
        "            q = {x: [y, z], 'k': x and y or z}\n"
        "        except:\n"
        "            q = 0\n"
        "    return [(x, y) for x in xs]\n";
    expectMaxStackMatches(*compileSource(corners).module, "corners");
}

/** PerfModel fed through the observer's default step forwarding. */
class PartwisePerfModel : public uarch::PerfModel
{
  public:
    using PerfModel::PerfModel;

    void
    onStep(Op op, uint32_t uops, uint64_t fetch_addr,
           bool dispatched) override
    {
        ExecutionObserver::onStep(op, uops, fetch_addr, dispatched);
    }
};

static_assert(sizeof(uarch::CounterSet) == 17 * sizeof(uint64_t),
              "CounterSet is compared bytewise");

bool
sameCounters(const uarch::CounterSet &a, const uarch::CounterSet &b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/**
 * Run one workload on one tier under both models, as the runner
 * configures the tier, and compare their counters after the module
 * and after every iteration.
 */
void
expectSameStepCounters(const workloads::WorkloadSpec &spec,
                       const Program &prog, Tier tier)
{
    SCOPED_TRACE(spec.name + "/" + tierName(tier));
    InterpConfig icfg = tierConfig(tier);
    uarch::PerfModelConfig ucfg;
    if (tier == Tier::Threaded) {
        icfg.dispatchUops = harness::kThreadedDispatchUops;
        ucfg.dispatchHistoryOps = harness::kThreadedDispatchHistoryOps;
    }
    uarch::PerfModel inline_model(ucfg);
    PartwisePerfModel partwise_model(ucfg);
    Interp a(prog, icfg, &inline_model);
    Interp b(prog, icfg, &partwise_model);
    a.runModule();
    b.runModule();
    EXPECT_TRUE(
        sameCounters(inline_model.snapshot(), partwise_model.snapshot()));
    for (int it = 0; it < 3; ++it) {
        Value ra = a.callGlobal("run", {Value::makeInt(spec.testSize)});
        Value rb = b.callGlobal("run", {Value::makeInt(spec.testSize)});
        EXPECT_TRUE(ra.equals(rb));
        uarch::CounterSet ca = inline_model.snapshot();
        uarch::CounterSet cb = partwise_model.snapshot();
        EXPECT_TRUE(sameCounters(ca, cb))
            << "iteration " << it << ": cycles " << ca.cycles << " vs "
            << cb.cycles << ", l1i misses " << ca.l1iMisses << " vs "
            << cb.l1iMisses;
        EXPECT_GT(ca.l1iAccesses, 0u);
    }
}

TEST(ObserverStep, InlineStepMatchesThePartwiseCallbacks)
{
    // Every workload, validator's exceptions included, on every tier.
    for (const auto &spec : workloads::suite()) {
        Program prog = compileSource(spec.source, spec.name);
        for (Tier tier : kTiers)
            expectSameStepCounters(spec, prog, tier);
    }
}

} // namespace
} // namespace vm
} // namespace rigor

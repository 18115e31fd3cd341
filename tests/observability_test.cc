/**
 * @file
 * Harness-observability integration tests: a metered/traced run must
 * produce nonzero VM counters, a well-formed span tree, fault-path
 * instants, and byte-identical artifacts across identical runs.
 */

#include <gtest/gtest.h>

#include "harness/fault.hh"
#include "harness/runner.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/trace.hh"

namespace rigor {
namespace harness {
namespace {

RunnerConfig
obsConfig(MetricsRegistry *metrics, TraceEmitter *trace)
{
    RunnerConfig cfg;
    cfg.invocations = 3;
    cfg.iterations = 5;
    cfg.tier = vm::Tier::Interp;
    cfg.seed = 0xabc;
    cfg.size = workloads::findWorkload("sieve").testSize;
    cfg.metrics = metrics;
    cfg.trace = trace;
    return cfg;
}

/** Count trace events matching (ph, name). */
size_t
countEvents(const Json &doc, const std::string &ph,
            const std::string &name)
{
    const Json &evs = doc.at("traceEvents");
    size_t n = 0;
    for (size_t i = 0; i < evs.size(); ++i) {
        const Json &e = evs.at(i);
        if (e.at("ph").asString() == ph &&
            e.at("name").asString() == name)
            ++n;
    }
    return n;
}

TEST(Observability, MeteredRunRecordsHarnessAndVmCounters)
{
    MetricsRegistry reg;
    auto cfg = obsConfig(&reg, nullptr);
    runExperiment("sieve", cfg);

    EXPECT_EQ(reg.counterValue("harness.invocations"), 3u);
    EXPECT_EQ(reg.counterValue("harness.invocations_attempted"), 3u);
    EXPECT_EQ(reg.counterValue("harness.iterations"), 15u);
    EXPECT_EQ(reg.counterValue("harness.failures"), 0u);
    EXPECT_GT(reg.counterValue("vm.interp.bytecodes"), 0u);
    EXPECT_GT(reg.counterValue("vm.interp.uops"), 0u);
    EXPECT_GT(reg.counterValue("vm.interp.dispatches"), 0u);
    EXPECT_GT(reg.counterValue("vm.interp.allocations"), 0u);
    // Interp tier never compiles.
    EXPECT_EQ(reg.counterValue("vm.interp.jit_compiles"), 0u);
}

TEST(Observability, TracedRunHasBalancedSpans)
{
    TraceEmitter tr;
    auto cfg = obsConfig(nullptr, &tr);
    runExperiment("sieve", cfg);
    EXPECT_EQ(tr.openSpans(), 0u);

    // Round-trip through the serializer before inspecting.
    Json doc = Json::parse(tr.toJson().dump(1));
    EXPECT_EQ(countEvents(doc, "B", "workload"), 0u);  // named by wl
    EXPECT_EQ(countEvents(doc, "B", "sieve"), 1u);
    EXPECT_EQ(countEvents(doc, "E", "sieve"), 1u);
    EXPECT_EQ(countEvents(doc, "B", "invocation"), 3u);
    EXPECT_EQ(countEvents(doc, "E", "invocation"), 3u);
    EXPECT_EQ(countEvents(doc, "B", "iteration"), 15u);
    EXPECT_EQ(countEvents(doc, "E", "iteration"), 15u);
}

TEST(Observability, AdaptiveRunEmitsJitCompileInstants)
{
    MetricsRegistry reg;
    TraceEmitter tr;
    auto cfg = obsConfig(&reg, &tr);
    cfg.tier = vm::Tier::Adaptive;
    cfg.jitThreshold = 16;  // compile early so a short run sees it
    runExperiment("sieve", cfg);

    EXPECT_GT(reg.counterValue("vm.adaptive.jit_compiles"), 0u);
    Json doc = tr.toJson();
    EXPECT_GE(countEvents(doc, "i", "jit_compile"), 1u);

    // A deopt-heavy run: each attempt emits its first 64 deopts as
    // instants, and the counter still sees every guard failure.
    MetricsRegistry heavy_reg;
    TraceEmitter heavy_tr;
    auto heavy = obsConfig(&heavy_reg, &heavy_tr);
    heavy.tier = vm::Tier::Adaptive;
    heavy.jitThreshold = 16;
    heavy.size = workloads::findWorkload("chaos").testSize;
    RunResult run = runExperiment("chaos", heavy);
    std::vector<uint64_t> deopts;  // per invocation span
    Json heavy_doc = heavy_tr.toJson();
    const Json &evs = heavy_doc.at("traceEvents");
    for (size_t i = 0; i < evs.size(); ++i) {
        const Json &e = evs.at(i);
        const std::string &ph = e.at("ph").asString();
        const std::string &name = e.at("name").asString();
        if (ph == "B" && name == "invocation")
            deopts.push_back(0);
        else if (ph == "i" && name == "deopt")
            ++deopts.back();
    }
    ASSERT_EQ(deopts.size(), run.invocations.size());
    uint64_t guard_failures = 0;
    for (size_t i = 0; i < deopts.size(); ++i) {
        uint64_t failed = run.invocations[i].vmStats.guardFailures;
        ASSERT_GT(failed, 64u);
        EXPECT_EQ(deopts[i], 64u);
        guard_failures += failed;
    }
    EXPECT_EQ(heavy_reg.counterValue("vm.adaptive.guard_failures"),
              guard_failures);
}

TEST(Observability, VmCountersAreTheInterpStatsTotals)
{
    for (vm::Tier tier :
         {vm::Tier::Interp, vm::Tier::Adaptive, vm::Tier::Threaded}) {
        SCOPED_TRACE(vm::tierName(tier));
        MetricsRegistry reg;
        auto cfg = obsConfig(&reg, nullptr);
        cfg.tier = tier;
        cfg.jitThreshold = 16;  // the adaptive tier compiles early
        cfg.size = workloads::findWorkload("fasta").testSize;
        RunResult run = runExperiment("fasta", cfg);
        ASSERT_EQ(run.invocations.size(), 3u);

        vm::InterpStats sum;
        uint64_t dispatches = 0, branches = 0;
        for (const auto &inv : run.invocations) {
            const vm::InterpStats &s = inv.vmStats;
            sum.bytecodes += s.bytecodes;
            sum.uops += s.uops;
            sum.allocations += s.allocations;
            sum.allocatedBytes += s.allocatedBytes;
            sum.calls += s.calls;
            sum.guardFailures += s.guardFailures;
            sum.jitCompiles += s.jitCompiles;
            sum.jitCompileUops += s.jitCompileUops;
            for (uint64_t n : s.perOpDispatched)
                dispatches += n;
            for (const auto &sample : inv.samples)
                branches += sample.counters.branches;
        }
        auto value = [&](const char *name) {
            return reg.counterValue(
                strprintf("vm.%s.%s", vm::tierName(tier), name));
        };
        EXPECT_EQ(value("bytecodes"), sum.bytecodes);
        EXPECT_EQ(value("uops"), sum.uops);
        EXPECT_EQ(value("allocations"), sum.allocations);
        EXPECT_EQ(value("allocated_bytes"), sum.allocatedBytes);
        EXPECT_EQ(value("calls"), sum.calls);
        EXPECT_EQ(value("guard_failures"), sum.guardFailures);
        EXPECT_EQ(value("jit_compiles"), sum.jitCompiles);
        EXPECT_EQ(value("jit_compile_uops"), sum.jitCompileUops);
        EXPECT_EQ(value("dispatches"), dispatches);
        // The model also counts module set-up, outside every sample.
        EXPECT_GE(value("branches"), branches);
        EXPECT_GT(branches, 0u);
    }
}

TEST(Observability, IdenticalRunsProduceIdenticalArtifacts)
{
    std::string trace_a, trace_b, metrics_a, metrics_b;
    for (int round = 0; round < 2; ++round) {
        MetricsRegistry reg;
        TraceEmitter tr;
        auto cfg = obsConfig(&reg, &tr);
        cfg.tier = vm::Tier::Adaptive;
        runExperiment("sieve", cfg);
        (round == 0 ? trace_a : trace_b) = tr.toJson().dump(1);
        (round == 0 ? metrics_a : metrics_b) = reg.toJson().dump(2);
    }
    EXPECT_EQ(trace_a, trace_b);    // modelled clock => byte-identical
    EXPECT_EQ(metrics_a, metrics_b);
}

TEST(Observability, InjectedFaultLeavesRetryTrail)
{
    FaultPlan plan;
    plan.add("throw:inv=1:n=1");
    MetricsRegistry reg;
    TraceEmitter tr;
    auto cfg = obsConfig(&reg, &tr);
    FaultInjector inj(std::move(plan), cfg.seed);
    cfg.faults = &inj;
    cfg.maxRetries = 1;
    RunResult run = runExperiment("sieve", cfg);
    ASSERT_EQ(run.failures.size(), 1u);

    EXPECT_EQ(reg.counterValue("harness.faults_injected"), 1u);
    EXPECT_EQ(reg.counterValue("harness.failures"), 1u);
    EXPECT_EQ(reg.counterValue("harness.failures.vm-error"), 1u);
    EXPECT_EQ(reg.counterValue("harness.retries"), 1u);
    EXPECT_EQ(reg.counterValue("harness.invocations"), 3u);
    // Mirrors RunResult::invocationsAttempted: slots tried, not
    // individual attempts — the retried slot still counts once.
    EXPECT_EQ(reg.counterValue("harness.invocations_attempted"), 3u);

    EXPECT_EQ(tr.openSpans(), 0u);  // the failed span was unwound
    Json doc = tr.toJson();
    EXPECT_EQ(countEvents(doc, "i", "fault_injected"), 1u);
    EXPECT_EQ(countEvents(doc, "i", "invocation_failure"), 1u);
    EXPECT_EQ(countEvents(doc, "i", "retry"), 1u);
    // 4 attempts opened, 4 closed (one via the unwind path).
    EXPECT_EQ(countEvents(doc, "B", "invocation"), 4u);
    EXPECT_EQ(countEvents(doc, "E", "invocation"), 4u);
}

} // namespace
} // namespace harness
} // namespace rigor

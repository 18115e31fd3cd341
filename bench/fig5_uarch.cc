/**
 * @file
 * Figure 5 — microarchitectural characterization: IPC, branch MPKI
 * (including interpreter-dispatch mispredictions) and cache MPKI per
 * benchmark and tier. The adaptive tier eliminates dispatch
 * mispredictions and raises IPC across the board.
 */

#include <cstdio>

#include "bench/bench_common.hh"
#include "stats/descriptive.hh"

using namespace rigor;

int
main()
{
    bench::printHeader(
        "Figure 5: microarchitectural characterization",
        "the interpreter wastes *instructions*, not cycles-per-"
        "instruction: its IPC is decent because dispatch loops are "
        "predictable, while JIT-compiled code executes far fewer "
        "instructions at lower IPC (it is memory-bound) — so MPKI "
        "metrics must be normalized carefully when comparing tiers");

    Table table({"benchmark", "tier", "IPC", "branch MPKI",
                 "dispatch miss %", "L1I MPKI", "L1D MPKI",
                 "L2 MPKI", "LLC MPKI"});

    std::vector<double> interp_ipc, jit_ipc;
    for (const auto &spec : workloads::suite()) {
        for (vm::Tier tier :
             {vm::Tier::Interp, vm::Tier::Adaptive}) {
            harness::RunnerConfig cfg = bench::defaultConfig(tier);
            cfg.invocations = 2;
            cfg.iterations = 12;
            harness::RunResult run =
                harness::runExperiment(spec, cfg);
            // Steady-state counters only: drop each invocation's
            // warmup iterations.
            auto summary = harness::analyzeSteadyState(run);
            uarch::CounterSet total;
            for (size_t i = 0; i < run.invocations.size(); ++i) {
                const auto &samples = run.invocations[i].samples;
                size_t start = harness::steadyStateStart(run, summary, i);
                for (size_t j = start; j < samples.size(); ++j)
                    total.add(samples[j].counters);
            }
            double dispatch_miss_pct = total.dispatches
                ? 100.0 * static_cast<double>(total.dispatchMisses) /
                    static_cast<double>(total.dispatches)
                : 0.0;
            table.addRow({
                spec.name,
                vm::tierName(tier),
                fmtDouble(total.ipc(), 2),
                fmtDouble(total.branchMpki(), 2),
                fmtDouble(dispatch_miss_pct, 1),
                fmtDouble(total.l1iMpki(), 2),
                fmtDouble(total.l1dMpki(), 2),
                fmtDouble(total.l2Mpki(), 3),
                fmtDouble(total.llcMpki(), 3),
            });
            (tier == vm::Tier::Interp ? interp_ipc : jit_ipc)
                .push_back(total.ipc());
        }
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("mean IPC: interp %.2f, adaptive %.2f\n",
                stats::mean(interp_ipc), stats::mean(jit_ipc));
    return 0;
}

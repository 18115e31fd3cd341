/**
 * @file
 * Quickstart: measure one workload on both runtime tiers with the
 * rigorous methodology and print the headline numbers.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart [workload] [invocations] [iterations]
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness/analysis.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "support/str.hh"
#include "support/table.hh"

using namespace rigor;

int
main(int argc, char **argv)
{
    std::string workload = argc > 1 ? argv[1] : "richards";
    int invocations = argc > 2 ? std::atoi(argv[2]) : 8;
    int iterations = argc > 3 ? std::atoi(argv[3]) : 40;

    harness::RunnerConfig cfg;
    cfg.invocations = invocations;
    cfg.iterations = iterations;

    std::printf("== RigorBench quickstart: %s ==\n\n",
                workload.c_str());

    cfg.tier = vm::Tier::Interp;
    harness::RunResult interp = harness::runExperiment(workload, cfg);

    cfg.tier = vm::Tier::Adaptive;
    harness::RunResult jit = harness::runExperiment(workload, cfg);

    auto interp_est = harness::rigorousEstimate(interp);
    auto jit_est = harness::rigorousEstimate(jit);
    auto speedup = harness::speedupFromEstimates(interp_est, jit_est);

    Table table({"tier", "time/iter (ms, 95% CI)", "warmup iters",
                 "series classes (flat/warm/slow/none)"});
    auto row = [&](const char *tier,
                   const harness::RigorousEstimate &est) {
        const auto &ss = est.steadyState;
        table.addRow({tier, harness::formatCi(est.ci, 3),
                      fmtDouble(ss.meanSteadyStart, 1),
                      std::to_string(ss.flat) + "/" +
                          std::to_string(ss.warmup) + "/" +
                          std::to_string(ss.slowdown) + "/" +
                          std::to_string(ss.noSteadyState)});
    };
    row("interp", interp_est);
    row("adaptive", jit_est);
    std::printf("%s\n", table.render().c_str());

    std::printf("adaptive-over-interp speedup: %s%s\n\n",
                harness::formatCi(speedup.ci, 2).c_str(),
                speedup.significant ? "  (significant)"
                                    : "  (not significant)");

    std::printf("per-iteration times, first invocation:\n");
    std::printf("  interp:   %s\n",
                harness::sparkline(
                    interp.invocations.front().times())
                    .c_str());
    std::printf("  adaptive: %s\n",
                harness::sparkline(jit.invocations.front().times())
                    .c_str());

    auto counters = jit.totalCounters();
    std::printf("\nadaptive-tier totals: %llu bytecodes, IPC %.2f, "
                "branch MPKI %.2f, L1D MPKI %.2f\n",
                static_cast<unsigned long long>(counters.bytecodes),
                counters.ipc(), counters.branchMpki(),
                counters.l1dMpki());
    return 0;
}

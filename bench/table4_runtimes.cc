/**
 * @file
 * Table 4 — three-runtime comparison on the shipped tiers: the
 * switch-dispatch interpreter (CPython-like), the threaded tier
 * (computed-goto dispatch, eager quickening, superinstructions and
 * inline caches) and the adaptive JIT tier. Threaded code gives a
 * broad win; the JIT gives a large but workload-dependent win — and
 * rigorous intervals are needed to rank the close pairs.
 */

#include <cstdio>

#include "bench/bench_common.hh"

using namespace rigor;

int
main()
{
    bench::printHeader(
        "Table 4: switch vs threaded interpreter vs adaptive JIT",
        "threaded code speeds every benchmark up (cheaper, "
        "better-predicted dispatch and specialized instructions); "
        "the JIT's gains are larger but workload-dependent");

    Table table({"benchmark", "switch ms", "threaded ms",
                 "adaptive ms", "threaded speedup (CI)",
                 "adaptive speedup (CI)", "ranks"});

    std::vector<harness::SpeedupResult> threaded_speedups;
    std::vector<harness::SpeedupResult> jit_speedups;

    for (const auto &spec : workloads::suite()) {
        auto sw = bench::runTier(spec.name, vm::Tier::Interp);
        auto th = bench::runTier(spec.name, vm::Tier::Threaded);
        auto jit = bench::runTier(spec.name, vm::Tier::Adaptive);

        auto sw_est = harness::rigorousEstimate(sw);
        auto th_est = harness::rigorousEstimate(th);
        auto jit_est = harness::rigorousEstimate(jit);
        auto th_speedup = harness::speedupFromEstimates(sw_est, th_est);
        auto jit_speedup = harness::speedupFromEstimates(sw_est, jit_est);
        threaded_speedups.push_back(th_speedup);
        jit_speedups.push_back(jit_speedup);

        // Tie-aware ranking across all three runtimes.
        auto cmp = harness::compareRuntimes({&sw, &th, &jit});
        std::string ranks = std::to_string(cmp.rank[0]) + "/" +
            std::to_string(cmp.rank[1]) + "/" +
            std::to_string(cmp.rank[2]);

        table.addRow({
            spec.name,
            fmtDouble(sw_est.ci.estimate, 4),
            fmtDouble(th_est.ci.estimate, 4),
            fmtDouble(jit_est.ci.estimate, 4),
            harness::formatCi(th_speedup.ci, 2),
            harness::formatCi(jit_speedup.ci, 2),
            ranks,
        });
    }
    std::printf("%s\n", table.render().c_str());
    std::printf("ranks column: switch/threaded/adaptive; equal "
                "numbers are statistical ties at 95%%.\n\n");

    auto th_geo = harness::geomeanSpeedup(threaded_speedups);
    auto jit_geo = harness::geomeanSpeedup(jit_speedups);
    std::printf("geomean: threaded %s, adaptive %s\n",
                harness::formatCi(th_geo, 2).c_str(),
                harness::formatCi(jit_geo, 2).c_str());
    return 0;
}

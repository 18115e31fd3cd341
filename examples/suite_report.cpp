/**
 * @file
 * Generate a markdown results report for the whole suite — the shape
 * of a paper's results section: per-benchmark steady-state times on
 * both tiers, speedups with intervals, variance decomposition, and a
 * suite-level summary with the paired Wilcoxon test.
 *
 *   ./build/examples/suite_report [out.md] [invocations] [iterations]
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "harness/analysis.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "stats/tests.hh"
#include "support/str.hh"

using namespace rigor;

int
main(int argc, char **argv)
{
    std::string out_path = argc > 1 ? argv[1] : "";
    int invocations = argc > 2 ? std::atoi(argv[2]) : 6;
    int iterations = argc > 3 ? std::atoi(argv[3]) : 12;

    std::ofstream file;
    std::ostream *os = &std::cout;
    if (!out_path.empty()) {
        file.open(out_path);
        if (!file) {
            std::fprintf(stderr, "cannot write %s\n",
                         out_path.c_str());
            return 1;
        }
        os = &file;
    }

    harness::RunnerConfig base;
    base.invocations = invocations;
    base.iterations = iterations;

    *os << "# RigorBench suite report\n\n";
    *os << "Design: " << invocations << " VM invocations x "
        << iterations << " iterations per benchmark and tier; "
        << "rigorous mean-of-means estimates with 95% CIs.\n\n";
    *os << "| benchmark | interp (ms) | adaptive (ms) | speedup "
        << "(95% CI) | warmup iters | between CoV % |\n";
    *os << "|---|---|---|---|---|---|\n";

    std::vector<double> interp_means, jit_means;
    std::vector<harness::SpeedupResult> speedups;

    for (const auto &spec : workloads::suite()) {
        harness::RunnerConfig icfg = base;
        icfg.tier = vm::Tier::Interp;
        harness::RunnerConfig jcfg = base;
        jcfg.tier = vm::Tier::Adaptive;

        auto interp = harness::runExperiment(spec, icfg);
        auto jit = harness::runExperiment(spec, jcfg);
        auto ie = harness::rigorousEstimate(interp);
        auto je = harness::rigorousEstimate(jit);
        auto speedup = harness::speedupFromEstimates(ie, je);
        auto vc = harness::varianceDecomposition(interp);

        interp_means.push_back(ie.ci.estimate);
        jit_means.push_back(je.ci.estimate);
        speedups.push_back(speedup);

        *os << "| " << spec.name << " | "
            << fmtDouble(ie.ci.estimate, 4) << " | "
            << fmtDouble(je.ci.estimate, 4) << " | "
            << harness::formatCi(speedup.ci, 2)
            << (speedup.significant ? "" : " (n.s.)") << " | "
            << fmtDouble(
                   harness::analyzeSteadyState(jit).meanSteadyStart,
                   1)
            << " | " << fmtDouble(100.0 * vc.betweenCoV, 2)
            << " |\n";
    }

    auto geo = harness::geomeanSpeedup(speedups);
    auto wilcoxon =
        stats::wilcoxonSignedRank(interp_means, jit_means);

    *os << "\n## Suite summary\n\n";
    *os << "* geometric-mean speedup: **"
        << harness::formatCi(geo, 2) << "**\n";
    *os << "* paired Wilcoxon signed-rank (interp vs adaptive "
        << "steady-state means): z = "
        << fmtDouble(wilcoxon.statistic, 2)
        << ", p = " << fmtDouble(wilcoxon.pValue, 5) << " — "
        << (wilcoxon.significant(0.01)
                ? "the adaptive tier is faster across the suite"
                : "no suite-wide difference demonstrated")
        << "\n";
    *os << "* " << workloads::suite().size()
        << " benchmarks; every speedup interval "
        << "excludes 1.0 unless marked (n.s.)\n";

    if (!out_path.empty())
        std::printf("wrote %s\n", out_path.c_str());
    return 0;
}

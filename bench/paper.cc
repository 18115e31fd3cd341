/**
 * @file
 * Every paper experiment (see bench_common.hh): each design is measured
 * once, then every table and figure is printed as a view over those
 * runs. docs/paper_tables.txt is this binary's output.
 */

#include <algorithm>
#include <cstdio>
#include <thread>

#include "bench/bench_common.hh"

using namespace rigor;

int
main()
{
    // Every artifact is byte-identical across worker counts.
    harness::RunnerConfig design = bench::defaultConfig(vm::Tier::Interp);
    design.jobs =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));

    auto suite = bench::measureSuite(design);
    auto table1 = bench::measureTable1(design);
    auto fig1 = bench::measureFig1(design);
    auto fig4 = bench::measureFig4(design);
    auto fig6 = bench::measureFig6(design);
    auto fig7 = bench::measureFig7(design);
    auto ablation_a = bench::measureAblationA(design);
    auto ablation_b = bench::measureAblationB(design);
    auto ablation_c = bench::measureAblationC(design);

    std::fputs((bench::renderSuiteTables(suite) +
                bench::renderTable1(table1) + bench::renderFig1(fig1) +
                bench::renderFig4(fig4) + bench::renderFig5(suite) +
                bench::renderFig6(fig6) + bench::renderFig7(fig6, fig7) +
                bench::renderAblationA(suite, ablation_a) +
                bench::renderAblationB(ablation_b) +
                bench::renderAblationC(ablation_c))
                   .c_str(),
               stdout);
    return 0;
}

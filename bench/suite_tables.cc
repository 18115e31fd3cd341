/**
 * @file
 * Table 2, Table 3, Table 4, Figure 2 and Figure 3 from one suite
 * measurement at the default design (see bench_common.hh).
 * docs/suite_tables.txt is this binary's output.
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
    std::fputs(bench::renderSuiteTables(bench::measureSuite(design)).c_str(),
               stdout);
    return 0;
}

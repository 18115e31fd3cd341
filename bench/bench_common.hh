/**
 * @file
 * Shared configuration and helpers for the table/figure regeneration
 * binaries. Every binary prints the rows/series of one reconstructed
 * experiment from EXPERIMENTS.md.
 */

#ifndef RIGOR_BENCH_BENCH_COMMON_HH
#define RIGOR_BENCH_BENCH_COMMON_HH

#include <string>
#include <vector>

#include "harness/analysis.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "support/str.hh"
#include "support/table.hh"

namespace rigor {
namespace bench {

/** Default experiment design used by the regeneration binaries. */
harness::RunnerConfig defaultConfig(vm::Tier tier);

/** Run one workload on one tier with the default design. */
harness::RunResult runTier(const std::string &workload, vm::Tier tier);

/** Workload subset used by the series "figures" (keeps runs short). */
const std::vector<std::string> &figureWorkloads();

/** Instruction-mix group labels, in display order. */
const std::vector<std::string> &mixGroups();

/** Fraction of dynamic bytecodes per mix group (sums to 1). */
std::vector<double> mixFractions(const std::vector<uint64_t> &op_mix);

/** Print a standard experiment header. */
void printHeader(const std::string &experiment_id,
                 const std::string &claim);

} // namespace bench
} // namespace rigor

#endif // RIGOR_BENCH_BENCH_COMMON_HH

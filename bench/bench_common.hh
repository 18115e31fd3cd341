/**
 * @file
 * Shared configuration and helpers for the table/figure regeneration
 * binaries. Every binary prints the rows/series of one reconstructed
 * experiment from EXPERIMENTS.md, except suite_tables, which prints
 * five: Table 2, Table 3, Table 4, Figure 2 and Figure 3 are views over
 * one suite measurement (every workload run once on every kSuiteTiers
 * tier). The views read only the per-iteration times, which is what an
 * archived suite entry holds.
 */

#ifndef RIGOR_BENCH_BENCH_COMMON_HH
#define RIGOR_BENCH_BENCH_COMMON_HH

#include <map>
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

/** Workload subset used by the series "figures" (keeps runs short). */
const std::vector<std::string> &figureWorkloads();

/** Instruction-mix group labels, in display order. */
const std::vector<std::string> &mixGroups();

/** Fraction of dynamic bytecodes per mix group (sums to 1). */
std::vector<double> mixFractions(const std::vector<uint64_t> &op_mix);

/** A standard experiment header. */
std::string header(const std::string &experiment_id,
                   const std::string &claim);

/** Print header(experiment_id, claim). */
void printHeader(const std::string &experiment_id,
                 const std::string &claim);

/** One workload's runs on every suite tier, each estimated once. */
struct WorkloadRuns
{
    std::map<vm::Tier, harness::RunResult> runs;
    std::map<vm::Tier, harness::RigorousEstimate> estimates;
    /** Speedup over the baseline (kSuiteTiers[0]) of every other tier. */
    std::map<vm::Tier, harness::SpeedupResult> speedups;

    const std::string &name() const { return runs.begin()->second.workload; }
};

/** Estimate each run once and each speedup over the baseline once. */
WorkloadRuns analyzeRuns(std::map<vm::Tier, harness::RunResult> runs);

/**
 * Run every suite workload on every kSuiteTiers tier at `design` (its
 * tier is replaced per run), in suite order.
 */
std::vector<WorkloadRuns> measureSuite(const harness::RunnerConfig &design);

/** Table 2's mean pre-steady iteration time over the steady mean. */
double warmupOverhead(const harness::RunResult &run,
                      const harness::SteadyStateSummary &summary);

/** Table 3's verdict of a naive methodology against the rigorous one. */
struct NaiveError
{
    /** Largest |naive / rigorous - 1| over the suite. */
    double maxRelErr = 0.0;
    /** Workloads where the naive scheme flips the faster/not verdict. */
    int flips = 0;
};
NaiveError naiveError(const std::vector<WorkloadRuns> &suite,
                      harness::Methodology m);

/** Geometric mean of `tier`'s speedups over the baseline. */
stats::ConfidenceInterval geomean(const std::vector<WorkloadRuns> &suite,
                                  vm::Tier tier);

/** The five sections in print order: Table 2, 3, 4, Fig 2, Fig 3. */
std::string renderSuiteTables(const std::vector<WorkloadRuns> &suite);

} // namespace bench
} // namespace rigor

#endif // RIGOR_BENCH_BENCH_COMMON_HH

/**
 * @file
 * Every paper experiment as a measure function and a render function.
 * A measure function runs the experiment's design and returns its
 * runs; a render function turns runs into the text bench/paper prints
 * (docs/paper_tables.txt). Runs another experiment already measures
 * are not measured again: the render function cuts them out of the
 * larger run with prefix(). Table 2, Table 3, Table 4, Figure 2 and
 * Figure 3 are views over one suite measurement (every workload run
 * once on every kSuiteTiers tier) that read only the per-iteration
 * times, which is what an archived suite entry holds.
 */

#ifndef RIGOR_BENCH_BENCH_COMMON_HH
#define RIGOR_BENCH_BENCH_COMMON_HH

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness/analysis.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "support/str.hh"
#include "support/table.hh"

namespace rigor {
namespace bench {

/** Default experiment design: 6 invocations x 15 iterations. */
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

/**
 * The first `invocations` x `iterations` of `run`. Invocation seeds are
 * per slot and noise is drawn per iteration, so the cut equals a run
 * requested at that size with the same config. The VM stats describe a
 * whole invocation, so they are cleared when iterations are cut.
 * Panics when `run` is shorter than asked or holds failed attempts.
 */
harness::RunResult prefix(const harness::RunResult &run, size_t invocations,
                          size_t iterations);

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

/** Table 1: each suite workload once on interp, 1 x 3. */
std::vector<harness::RunResult>
measureTable1(const harness::RunnerConfig &design);
std::string renderTable1(const std::vector<harness::RunResult> &runs);

/**
 * Figure 1: per figure workload, an interp 1 x 40 run and an adaptive
 * 2 x 40 run, in that order. The adaptive trace is invocation 0 of the
 * run whose CSV it prints.
 */
std::vector<harness::RunResult>
measureFig1(const harness::RunnerConfig &design);
std::string renderFig1(const std::vector<harness::RunResult> &runs);

/** Figure 4: each suite workload once on interp, 1 x 4. */
std::vector<harness::RunResult>
measureFig4(const harness::RunnerConfig &design);
std::string renderFig4(const std::vector<harness::RunResult> &runs);

/**
 * The counters of every steady-state iteration of `run`, summed, and
 * how many iterations that is.
 */
std::pair<uarch::CounterSet, size_t>
steadyCounters(const harness::RunResult &run);

/** Figure 5: the first 2 x 12 of the suite's interp and adaptive runs. */
std::string renderFig5(const std::vector<WorkloadRuns> &suite);

/** Figure 6: per figure workload, an interp 24 x 15 run. */
std::vector<harness::RunResult>
measureFig6(const harness::RunnerConfig &design);
std::string renderFig6(const std::vector<harness::RunResult> &fig6);

/**
 * Figure 7: the splits of a 96-iteration budget over sieve and richards
 * on interp that no Figure 6 run covers; the others are cut out of
 * Figure 6's runs.
 */
std::vector<harness::RunResult>
measureFig7(const harness::RunnerConfig &design);
std::string renderFig7(const std::vector<harness::RunResult> &fig6,
                       const std::vector<harness::RunResult> &runs);

/**
 * Ablation A: per model variant but the full one, per figure workload,
 * interp then adaptive at 4 x 15. The full model's row is the first
 * 4 x 15 of the suite's runs.
 */
std::vector<harness::RunResult>
measureAblationA(const harness::RunnerConfig &design);
std::string renderAblationA(const std::vector<WorkloadRuns> &suite,
                            const std::vector<harness::RunResult> &runs);

/**
 * Ablation B: sieve on interp at 8 invocations, one run per spike
 * probability. The first (probability 0) is the clean baseline.
 */
std::vector<harness::RunResult>
measureAblationB(const harness::RunnerConfig &design);
std::string renderAblationB(const std::vector<harness::RunResult> &runs);

/** Ablation C's JIT hot thresholds, in row order. */
const std::vector<int> &ablationCThresholds();

/**
 * Ablation C: per figure workload, an interp run and then an adaptive
 * run per threshold, each at 25 iterations.
 */
std::vector<harness::RunResult>
measureAblationC(const harness::RunnerConfig &design);
std::string renderAblationC(const std::vector<harness::RunResult> &runs);

} // namespace bench
} // namespace rigor

#endif // RIGOR_BENCH_BENCH_COMMON_HH

/**
 * @file
 * Table 1, Figures 1 and 4-7 and Ablations A-C (see bench_common.hh).
 */

#include <sstream>

#include "bench/bench_common.hh"
#include "stats/descriptive.hh"
#include "vm/compiler.hh"

namespace rigor {
namespace bench {

namespace {

/** A copy of `design` at the given tier and size. */
harness::RunnerConfig
sized(const harness::RunnerConfig &design, vm::Tier tier, int invocations,
      int iterations)
{
    harness::RunnerConfig cfg = design;
    cfg.tier = tier;
    cfg.invocations = invocations;
    cfg.iterations = iterations;
    return cfg;
}

/** The suite's run of `name` on `tier`. */
const harness::RunResult &
suiteRun(const std::vector<WorkloadRuns> &suite, const std::string &name,
         vm::Tier tier)
{
    for (const auto &w : suite)
        if (w.name() == name)
            return w.runs.at(tier);
    panic("suite has no run of %s", name.c_str());
}

std::string
perIteration(uint64_t total, size_t iterations)
{
    return fmtCount(static_cast<uint64_t>(static_cast<double>(total) /
                                          static_cast<double>(iterations)));
}

/** Figure 6's design, which Figure 7's smaller splits are cut from. */
constexpr int kFig6Invocations = 24;
constexpr int kFig6Iterations = 15;

struct Split
{
    int invocations;
    int iterations;

    bool
    inFig6() const
    {
        return invocations <= kFig6Invocations &&
            iterations <= kFig6Iterations;
    }
};

/** Figure 7's splits of a 96-iteration budget, in row order. */
constexpr Split kSplits[] = {
    {3, 32}, {4, 24}, {6, 16}, {8, 12}, {12, 8}, {16, 6}, {24, 4}, {32, 3},
};

const std::vector<std::string> &
fig7Workloads()
{
    static const std::vector<std::string> names = {"sieve", "richards"};
    return names;
}

/** Ablation A's design. */
constexpr int kAblationAInvocations = 4;
constexpr int kAblationAIterations = 15;

struct Variant
{
    const char *name;
    uarch::PerfModelConfig cfg;
};

/** Ablation A's model variants; the first is the full (default) model. */
std::vector<Variant>
variants()
{
    std::vector<Variant> out;
    out.push_back({"full model (gshare)", {}});

    Variant bimodal{"bimodal predictor", {}};
    bimodal.cfg.predictor = uarch::PerfModelConfig::Predictor::Bimodal;
    out.push_back(bimodal);

    Variant nocache{"no cache model", {}};
    nocache.cfg.modelCaches = false;
    out.push_back(nocache);

    Variant nobranch{"no branch model", {}};
    nobranch.cfg.modelBranches = false;
    out.push_back(nobranch);

    Variant costonly{"cost-model only", {}};
    costonly.cfg.modelCaches = false;
    costonly.cfg.modelBranches = false;
    out.push_back(costonly);
    return out;
}

/** Ablation B's spike probabilities, in row order. */
constexpr double kSpikeProbabilities[] = {0.0, 0.02, 0.05, 0.10, 0.20};

/** Rigorous estimate with Tukey outliers removed per invocation. */
double
tukeyFilteredEstimate(const harness::RunResult &run)
{
    std::vector<double> inv_means;
    for (const auto &inv : run.invocations) {
        std::vector<double> times = inv.times();
        auto outliers = stats::tukeyOutliers(times, 3.0);
        // Remove from the back so indices stay valid.
        for (auto it = outliers.rbegin(); it != outliers.rend(); ++it)
            times.erase(times.begin() + static_cast<ptrdiff_t>(*it));
        if (times.empty())
            times = inv.times();
        inv_means.push_back(stats::mean(times));
    }
    return stats::mean(inv_means);
}

/** Median-of-invocation-medians estimate. */
double
medianEstimate(const harness::RunResult &run)
{
    std::vector<double> inv_medians;
    for (const auto &inv : run.invocations)
        inv_medians.push_back(stats::median(inv.times()));
    return stats::median(inv_medians);
}

} // namespace

std::vector<harness::RunResult>
measureTable1(const harness::RunnerConfig &design)
{
    std::vector<harness::RunResult> runs;
    for (const auto &spec : workloads::suite())
        runs.push_back(harness::runExperiment(
            spec, sized(design, vm::Tier::Interp, 1, 3)));
    return runs;
}

std::string
renderTable1(const std::vector<harness::RunResult> &runs)
{
    Table table({"benchmark", "category", "static bc",
                 "dyn bytecodes/iter", "allocs/iter",
                 "dict lookups/iter", "calls/iter"});
    for (const auto &run : runs) {
        const auto &spec = workloads::findWorkload(run.workload);
        vm::Program prog = vm::compileSource(spec.source, spec.name);
        const auto &inv = run.invocations[0];
        const auto &stats = inv.vmStats;
        table.addRow({
            spec.name,
            workloads::categoryName(spec.category),
            std::to_string(prog.module->totalInstrs()),
            perIteration(stats.bytecodes, inv.samples.size()),
            perIteration(stats.allocations, inv.samples.size()),
            perIteration(stats.dictLookups, inv.samples.size()),
            perIteration(stats.calls, inv.samples.size()),
        });
    }
    return header("Table 1: Python benchmark suite characterization",
                  "the suite spans OO, numeric, string and data-structure "
                  "behaviour with a wide range of dynamic footprints") +
        table.render() + "\n";
}

std::vector<harness::RunResult>
measureFig1(const harness::RunnerConfig &design)
{
    std::vector<harness::RunResult> runs;
    for (const auto &name : figureWorkloads()) {
        runs.push_back(harness::runExperiment(
            name, sized(design, vm::Tier::Interp, 1, 40)));
        runs.push_back(harness::runExperiment(
            name, sized(design, vm::Tier::Adaptive, 2, 40)));
    }
    return runs;
}

std::string
renderFig1(const std::vector<harness::RunResult> &runs)
{
    std::string out =
        header("Figure 1: per-iteration run-time traces (first invocation)",
               "JIT warmup curves start high and settle after compilation; "
               "the interpreter is flat from iteration 0");
    for (const auto &run : runs)
        out += strprintf("%s / %s  (ms per iteration)\n",
                         run.workload.c_str(), vm::tierName(run.tier)) +
            harness::asciiSeries(run.invocations[0].times(), 7, 70) + "\n";

    std::ostringstream csv;
    for (const auto &run : runs)
        if (run.tier == vm::Tier::Adaptive)
            harness::writeSeriesCsv(csv, run);
    return out + "CSV series for external plotting:\n\n" + csv.str();
}

std::vector<harness::RunResult>
measureFig4(const harness::RunnerConfig &design)
{
    std::vector<harness::RunResult> runs;
    for (const auto &spec : workloads::suite())
        runs.push_back(harness::runExperiment(
            spec, sized(design, vm::Tier::Interp, 1, 4)));
    return runs;
}

std::string
renderFig4(const std::vector<harness::RunResult> &runs)
{
    std::vector<std::string> headers = {"benchmark"};
    for (const auto &g : mixGroups())
        headers.push_back(g + " %");
    Table table(std::move(headers));
    for (const auto &run : runs) {
        std::vector<std::string> row = {run.workload};
        for (double f : mixFractions(run.opMix()))
            row.push_back(fmtDouble(100.0 * f, 1));
        table.addRow(std::move(row));
    }
    return header("Figure 4: dynamic instruction (bytecode) mix",
                  "instruction mix varies strongly with workload category, "
                  "motivating a suite that covers all of them") +
        table.render() + "\n";
}

std::pair<uarch::CounterSet, size_t>
steadyCounters(const harness::RunResult &run)
{
    auto summary = harness::analyzeSteadyState(run);
    uarch::CounterSet total;
    size_t iterations = 0;
    for (size_t i = 0; i < run.invocations.size(); ++i) {
        const auto &samples = run.invocations[i].samples;
        for (size_t j = harness::steadyStateStart(run, summary, i);
             j < samples.size(); ++j) {
            total.add(samples[j].counters);
            ++iterations;
        }
    }
    return {total, iterations};
}

std::string
renderFig5(const std::vector<WorkloadRuns> &suite)
{
    Table table({"benchmark", "tier", "IPC", "branch MPKI",
                 "dispatch miss %", "L1I MPKI", "L1D MPKI",
                 "L2 MPKI", "LLC MPKI"});
    std::vector<double> interp_ipc, jit_ipc;
    for (const auto &w : suite) {
        for (vm::Tier tier : {vm::Tier::Interp, vm::Tier::Adaptive}) {
            uarch::CounterSet total =
                steadyCounters(prefix(w.runs.at(tier), 2, 12)).first;
            double dispatch_miss_pct = total.dispatches
                ? 100.0 * static_cast<double>(total.dispatchMisses) /
                    static_cast<double>(total.dispatches)
                : 0.0;
            table.addRow({
                w.name(),
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
    return header("Figure 5: microarchitectural characterization",
                  "the interpreter wastes *instructions*, not cycles-per-"
                  "instruction: its IPC is decent because dispatch loops "
                  "are predictable, while JIT-compiled code executes far "
                  "fewer instructions at lower IPC (it is memory-bound) — "
                  "so MPKI metrics must be normalized carefully when "
                  "comparing tiers") +
        table.render() + "\n" +
        strprintf("mean IPC: interp %.2f, adaptive %.2f\n",
                  stats::mean(interp_ipc), stats::mean(jit_ipc));
}

std::vector<harness::RunResult>
measureFig6(const harness::RunnerConfig &design)
{
    std::vector<harness::RunResult> runs;
    for (const auto &name : figureWorkloads())
        runs.push_back(harness::runExperiment(
            name, sized(design, vm::Tier::Interp, kFig6Invocations,
                        kFig6Iterations)));
    return runs;
}

std::string
renderFig6(const std::vector<harness::RunResult> &fig6)
{
    std::string out =
        header("Figure 6: CI half-width vs number of VM invocations",
               "precision improves roughly as 1/sqrt(invocations); a 1% "
               "relative half-width needs an order of magnitude more "
               "invocations than 5%");
    for (const auto &run : fig6) {
        Table table({"invocations", "rel half-width %"});
        std::vector<double> widths;
        for (size_t n : {2, 3, 4, 6, 8, 12, 16, 24}) {
            auto ci = harness::rigorousEstimate(
                          prefix(run, n, kFig6Iterations)).ci;
            double rel = 100.0 * ci.relativeHalfWidth();
            widths.push_back(rel);
            table.addRow({std::to_string(n), fmtDouble(rel, 3)});
        }
        out += strprintf("%s: relative 95%% CI half-width by invocation "
                         "budget\n",
                         run.workload.c_str()) +
            table.render() +
            strprintf("  trend: %s\n\n",
                      harness::sparkline(widths, 32).c_str());

        // Required invocations for common precision targets, from the
        // 24-invocation pilot.
        auto est = harness::rigorousEstimate(run);
        out += "  required invocations (normal approx): ";
        for (double target : {0.05, 0.02, 0.01})
            out += strprintf("%.0f%% -> %zu   ", 100.0 * target,
                             stats::requiredSampleSize(est.invocationMeans,
                                                       target));
        out += "\n\n";
    }
    return out;
}

std::vector<harness::RunResult>
measureFig7(const harness::RunnerConfig &design)
{
    std::vector<harness::RunResult> runs;
    for (const auto &name : fig7Workloads())
        for (const auto &split : kSplits)
            if (!split.inFig6())
                runs.push_back(harness::runExperiment(
                    name, sized(design, vm::Tier::Interp, split.invocations,
                                split.iterations)));
    return runs;
}

std::string
renderFig7(const std::vector<harness::RunResult> &fig6,
           const std::vector<harness::RunResult> &runs)
{
    const int budget = 96;  // total iterations to spend
    std::string out =
        header("Figure 7: CI half-width under a fixed measurement budget",
               "for a fixed budget of total iterations, splitting it into "
               "more invocations always beats more iterations per "
               "invocation once invocation-level variance exists");
    auto next = runs.begin();
    for (const auto &name : fig7Workloads()) {
        const harness::RunResult *pilot = nullptr;
        for (const auto &run : fig6)
            if (run.workload == name)
                pilot = &run;
        Table table({"invocations x iterations",
                     "rel 95% CI half-width %",
                     "estimate (ms)"});
        for (const auto &split : kSplits) {
            auto est = harness::rigorousEstimate(
                split.inFig6()
                    ? prefix(*pilot, static_cast<size_t>(split.invocations),
                             static_cast<size_t>(split.iterations))
                    : *next++);
            table.addRow({
                std::to_string(split.invocations) + " x " +
                    std::to_string(split.iterations),
                fmtDouble(100.0 * est.ci.relativeHalfWidth(), 3),
                fmtDouble(est.ci.estimate, 4),
            });
        }
        out += strprintf("%s (budget = %d total iterations):\n",
                         name.c_str(), budget) +
            table.render() + "\n";
    }
    return out;
}

std::vector<harness::RunResult>
measureAblationA(const harness::RunnerConfig &design)
{
    std::vector<harness::RunResult> runs;
    auto all = variants();
    for (size_t v = 1; v < all.size(); ++v) {
        for (const auto &name : figureWorkloads()) {
            for (vm::Tier tier : {vm::Tier::Interp, vm::Tier::Adaptive}) {
                harness::RunnerConfig cfg =
                    sized(design, tier, kAblationAInvocations,
                          kAblationAIterations);
                cfg.uarch = all[v].cfg;
                runs.push_back(harness::runExperiment(name, cfg));
            }
        }
    }
    return runs;
}

std::string
renderAblationA(const std::vector<WorkloadRuns> &suite,
                const std::vector<harness::RunResult> &runs)
{
    std::vector<std::string> headers = {"variant"};
    for (const auto &name : figureWorkloads())
        headers.push_back(name);
    Table table(std::move(headers));

    auto next = runs.begin();
    auto all = variants();
    for (size_t v = 0; v < all.size(); ++v) {
        std::vector<std::string> row = {all[v].name};
        for (const auto &name : figureWorkloads()) {
            harness::SpeedupResult s;
            if (v == 0) {
                s = harness::rigorousSpeedup(
                    prefix(suiteRun(suite, name, vm::Tier::Interp),
                           kAblationAInvocations, kAblationAIterations),
                    prefix(suiteRun(suite, name, vm::Tier::Adaptive),
                           kAblationAInvocations, kAblationAIterations));
            } else {
                s = harness::rigorousSpeedup(next[0], next[1]);
                next += 2;
            }
            row.push_back(fmtDouble(s.ci.estimate, 2) + "x");
        }
        table.addRow(std::move(row));
    }
    return header("Ablation: cost model components",
                  "the tier ranking is stable across model ablations, but "
                  "absolute speedups shift when branch/dispatch modelling "
                  "is removed — interpreters lose their main penalty") +
        table.render() + "\n";
}

std::vector<harness::RunResult>
measureAblationB(const harness::RunnerConfig &design)
{
    std::vector<harness::RunResult> runs;
    for (double p : kSpikeProbabilities) {
        harness::RunnerConfig cfg =
            sized(design, vm::Tier::Interp, 8, design.iterations);
        cfg.noise.spikeProbability = p;
        cfg.noise.spikeScale = 0.5;
        runs.push_back(harness::runExperiment("sieve", cfg));
    }
    return runs;
}

std::string
renderAblationB(const std::vector<harness::RunResult> &runs)
{
    // The probability-0 run is the clean baseline.
    double truth = harness::rigorousEstimate(runs.front()).ci.estimate;
    auto drift = [&](double est) {
        return fmtDouble(100.0 * (est / truth - 1.0), 2);
    };
    Table table({"spike prob", "mean est drift %",
                 "tukey-filtered drift %", "median drift %"});
    for (size_t i = 0; i < runs.size(); ++i) {
        table.addRow({
            fmtDouble(kSpikeProbabilities[i], 2),
            drift(harness::rigorousEstimate(runs[i]).ci.estimate),
            drift(tukeyFilteredEstimate(runs[i])),
            drift(medianEstimate(runs[i])),
        });
    }
    return header("Ablation: estimator robustness vs spike noise",
                  "mean estimates inflate linearly with spike rate; median "
                  "and Tukey-filtered estimates stay within ~1% of the "
                  "clean value") +
        table.render() + "\n";
}

const std::vector<int> &
ablationCThresholds()
{
    static const std::vector<int> thresholds = {200, 2000, 20000, 200000,
                                                20000000};
    return thresholds;
}

std::vector<harness::RunResult>
measureAblationC(const harness::RunnerConfig &design)
{
    std::vector<harness::RunResult> runs;
    for (const auto &name : figureWorkloads()) {
        runs.push_back(harness::runExperiment(
            name, sized(design, vm::Tier::Interp, design.invocations, 25)));
        for (int threshold : ablationCThresholds()) {
            harness::RunnerConfig cfg =
                sized(design, vm::Tier::Adaptive, design.invocations, 25);
            cfg.jitThreshold = threshold;
            runs.push_back(harness::runExperiment(name, cfg));
        }
    }
    return runs;
}

std::string
renderAblationC(const std::vector<harness::RunResult> &runs)
{
    Table table({"threshold", "workload", "mean warmup iters",
                 "speedup vs interp", "jit compiles/invocation"});
    const size_t group = ablationCThresholds().size() + 1;
    for (size_t w = 0; w < runs.size(); w += group) {
        const auto &interp = runs[w];
        for (size_t t = 0; t + 1 < group; ++t) {
            const auto &jit = runs[w + 1 + t];
            double compiles = 0.0;
            for (const auto &inv : jit.invocations)
                compiles += static_cast<double>(inv.vmStats.jitCompiles);
            compiles /= static_cast<double>(jit.invocations.size());
            table.addRow({
                std::to_string(ablationCThresholds()[t]),
                jit.workload,
                fmtDouble(harness::analyzeSteadyState(jit).meanSteadyStart,
                          1),
                fmtDouble(harness::rigorousSpeedup(interp, jit).ci.estimate,
                          2) +
                    "x",
                fmtDouble(compiles, 1),
            });
        }
    }
    return header("Ablation: JIT hot-threshold sensitivity",
                  "mean warmup iterations grow with the threshold; measured "
                  "steady-state speedup is stable once compilation happens "
                  "at all, and collapses to ~1x when the threshold exceeds "
                  "the work an invocation performs") +
        table.render() + "\n";
}

} // namespace bench
} // namespace rigor

#include "bench/bench_common.hh"

#include <algorithm>
#include <cmath>

#include "support/logging.hh"

namespace rigor {
namespace bench {

harness::RunnerConfig
defaultConfig(vm::Tier tier)
{
    harness::RunnerConfig cfg;
    cfg.invocations = 6;
    cfg.iterations = 15;
    cfg.tier = tier;
    cfg.jitThreshold = 4000;
    cfg.seed = 0x5eed;
    return cfg;
}

const std::vector<std::string> &
figureWorkloads()
{
    static const std::vector<std::string> subset = {
        "richards", "nbody", "sieve", "hashtable",
    };
    return subset;
}

const std::vector<std::string> &
mixGroups()
{
    static const std::vector<std::string> groups = {
        "load/store-fast", "const", "arith", "compare", "branch",
        "call/ret", "attr", "subscript", "global/name", "build/alloc",
        "iter", "other",
    };
    return groups;
}

namespace {

int
groupOf(vm::Op op)
{
    using vm::Op;
    switch (op) {
      case Op::LoadFast:
      case Op::StoreFast:
        return 0;
      case Op::LoadConst:
        return 1;
      case Op::BinaryAdd:
      case Op::BinarySub:
      case Op::BinaryMul:
      case Op::BinaryDiv:
      case Op::BinaryFloorDiv:
      case Op::BinaryMod:
      case Op::BinaryPow:
      case Op::BinaryAnd:
      case Op::BinaryOr:
      case Op::BinaryXor:
      case Op::BinaryLshift:
      case Op::BinaryRshift:
      case Op::UnaryNeg:
      case Op::UnaryNot:
      case Op::AddIntInt:
      case Op::SubIntInt:
      case Op::MulIntInt:
      case Op::AddFloatFloat:
      case Op::SubFloatFloat:
      case Op::MulFloatFloat:
        return 2;
      case Op::CompareEq:
      case Op::CompareNe:
      case Op::CompareLt:
      case Op::CompareLe:
      case Op::CompareGt:
      case Op::CompareGe:
      case Op::CompareIn:
      case Op::CompareNotIn:
      case Op::CompareLtIntInt:
      case Op::CompareLeIntInt:
      case Op::CompareGtIntInt:
      case Op::CompareGeIntInt:
      case Op::CompareEqIntInt:
        return 3;
      case Op::Jump:
      case Op::PopJumpIfFalse:
      case Op::PopJumpIfTrue:
      case Op::JumpIfFalseOrPop:
      case Op::JumpIfTrueOrPop:
        return 4;
      case Op::Call:
      case Op::Return:
        return 5;
      case Op::LoadAttr:
      case Op::StoreAttr:
      case Op::LoadAttrCached:
        return 6;
      case Op::LoadSubscr:
      case Op::StoreSubscr:
      case Op::DeleteSubscr:
        return 7;
      case Op::LoadGlobal:
      case Op::StoreGlobal:
      case Op::LoadName:
      case Op::StoreName:
      case Op::LoadGlobalCached:
        return 8;
      case Op::BuildList:
      case Op::BuildTuple:
      case Op::BuildDict:
      case Op::BuildSlice:
      case Op::MakeFunction:
      case Op::MakeClass:
        return 9;
      case Op::GetIter:
      case Op::ForIter:
      case Op::ForIterRange:
        return 10;
      default:
        return 11;
    }
}

} // namespace

std::vector<double>
mixFractions(const std::vector<uint64_t> &op_mix)
{
    std::vector<double> groups(mixGroups().size(), 0.0);
    uint64_t total = 0;
    for (size_t i = 0; i < op_mix.size(); ++i) {
        groups[static_cast<size_t>(
            groupOf(static_cast<vm::Op>(i)))] +=
            static_cast<double>(op_mix[i]);
        total += op_mix[i];
    }
    if (total) {
        for (auto &g : groups)
            g /= static_cast<double>(total);
    }
    return groups;
}

std::string
header(const std::string &experiment_id, const std::string &claim)
{
    const std::string rule = repeat('=', 68) + "\n";
    return rule + experiment_id + "\nReconstructed claim: " + claim +
        "\n" + rule + "\n";
}

harness::RunResult
prefix(const harness::RunResult &run, size_t invocations, size_t iterations)
{
    if (!run.failures.empty())
        panic("prefix: %s/%s holds failed attempts", run.workload.c_str(),
              vm::tierName(run.tier));
    if (run.invocations.size() < invocations)
        panic("prefix: %s/%s has %zu invocations, not %zu",
              run.workload.c_str(), vm::tierName(run.tier),
              run.invocations.size(), invocations);
    harness::RunResult cut;
    cut.workload = run.workload;
    cut.tier = run.tier;
    cut.size = run.size;
    cut.invocationsAttempted = static_cast<int>(invocations);
    cut.invocations.assign(run.invocations.begin(),
                           run.invocations.begin() +
                               static_cast<ptrdiff_t>(invocations));
    for (auto &inv : cut.invocations) {
        if (inv.samples.size() < iterations)
            panic("prefix: %s/%s has %zu iterations, not %zu",
                  run.workload.c_str(), vm::tierName(run.tier),
                  inv.samples.size(), iterations);
        if (inv.samples.size() > iterations) {
            inv.samples.resize(iterations);
            inv.vmStats = vm::InterpStats{};
        }
    }
    return cut;
}

namespace {

/** The tiers Table 2 and Figure 2 show, in row order. */
constexpr vm::Tier kWarmupTiers[] = {vm::Tier::Interp, vm::Tier::Adaptive};

std::string
table2Warmup(const std::vector<WorkloadRuns> &suite)
{
    Table table({"benchmark", "tier", "flat", "warmup", "slow",
                 "none", "mean warmup iters", "warmup overhead"});
    for (const auto &w : suite) {
        for (vm::Tier tier : kWarmupTiers) {
            const auto &summary = w.estimates.at(tier).steadyState;
            table.addRow({
                w.name(),
                vm::tierName(tier),
                std::to_string(summary.flat),
                std::to_string(summary.warmup),
                std::to_string(summary.slowdown),
                std::to_string(summary.noSteadyState),
                fmtDouble(summary.meanSteadyStart, 1),
                fmtDouble(warmupOverhead(w.runs.at(tier), summary), 2) + "x",
            });
        }
    }
    return header("Table 2: per-benchmark steady-state detection",
                  "the interpreter tier is flat from iteration 0 while "
                  "the adaptive (JIT) tier needs several warmup "
                  "iterations; a fixed warmup cutoff would be wrong in "
                  "both directions") +
        table.render() + "\n";
}

std::string
table3Methodology(const std::vector<WorkloadRuns> &suite)
{
    std::vector<std::string> headers = {"benchmark"};
    for (auto m : harness::allMethodologies())
        headers.push_back(harness::methodologyName(m));
    Table table(std::move(headers));
    for (const auto &w : suite) {
        std::vector<std::string> row = {w.name()};
        for (auto m : harness::allMethodologies())
            row.push_back(
                m == harness::Methodology::RigorousMeanOfMeans
                    ? harness::formatCi(w.speedups.at(vm::Tier::Adaptive).ci,
                                        2)
                    : fmtDouble(harness::naiveSpeedup(
                                    w.runs.at(vm::Tier::Interp),
                                    w.runs.at(vm::Tier::Adaptive), m),
                                2));
        table.addRow(std::move(row));
    }

    Table errs({"methodology", "max |rel err| vs rigorous",
                "conclusion flips (of " + std::to_string(suite.size()) +
                    ")"});
    for (auto m : harness::allMethodologies()) {
        if (m == harness::Methodology::RigorousMeanOfMeans)
            continue;
        NaiveError err = naiveError(suite, m);
        errs.addRow({harness::methodologyName(m),
                     fmtDouble(100.0 * err.maxRelErr, 1) + "%",
                     std::to_string(err.flips)});
    }
    return header("Table 3: speedup under rigorous vs naive "
                  "methodologies",
                  "naive single-run / first-iteration / best-of schemes "
                  "misestimate speedups by large factors and flip "
                  "conclusions on several benchmarks") +
        table.render() + "\n" +
        strprintf("suite geomean speedup (rigorous): %s\n\n",
                  harness::formatCi(geomean(suite, vm::Tier::Adaptive), 2)
                      .c_str()) +
        errs.render() + "\n";
}

std::string
table4Runtimes(const std::vector<WorkloadRuns> &suite)
{
    Table table({"benchmark", "switch ms", "threaded ms",
                 "adaptive ms", "threaded speedup (CI)",
                 "adaptive speedup (CI)", "ranks"});
    for (const auto &w : suite) {
        // Tie-aware ranking across all three runtimes.
        auto cmp = harness::compareRuntimes(
            {w.estimates.at(vm::Tier::Interp),
             w.estimates.at(vm::Tier::Threaded),
             w.estimates.at(vm::Tier::Adaptive)});
        table.addRow({
            w.name(),
            fmtDouble(w.estimates.at(vm::Tier::Interp).ci.estimate, 4),
            fmtDouble(w.estimates.at(vm::Tier::Threaded).ci.estimate, 4),
            fmtDouble(w.estimates.at(vm::Tier::Adaptive).ci.estimate, 4),
            harness::formatCi(w.speedups.at(vm::Tier::Threaded).ci, 2),
            harness::formatCi(w.speedups.at(vm::Tier::Adaptive).ci, 2),
            std::to_string(cmp.rank[0]) + "/" +
                std::to_string(cmp.rank[1]) + "/" +
                std::to_string(cmp.rank[2]),
        });
    }
    return header("Table 4: switch vs threaded interpreter vs adaptive JIT",
                  "threaded code speeds every benchmark up (cheaper, "
                  "better-predicted dispatch and specialized "
                  "instructions); the JIT's gains are larger but "
                  "workload-dependent") +
        table.render() + "\n" +
        "ranks column: switch/threaded/adaptive; equal numbers are "
        "statistical ties at 95%.\n\n" +
        strprintf(
            "geomean: threaded %s, adaptive %s\n",
            harness::formatCi(geomean(suite, vm::Tier::Threaded), 2).c_str(),
            harness::formatCi(geomean(suite, vm::Tier::Adaptive), 2)
                .c_str());
}

std::string
fig2Variability(const std::vector<WorkloadRuns> &suite)
{
    Table table({"benchmark", "tier", "between CoV %", "within CoV %",
                 "intraclass corr"});
    for (const auto &w : suite) {
        for (vm::Tier tier : kWarmupTiers) {
            auto vc = harness::varianceDecomposition(w.runs.at(tier));
            table.addRow({
                w.name(),
                vm::tierName(tier),
                fmtDouble(100.0 * vc.betweenCoV, 2),
                fmtDouble(100.0 * vc.withinCoV, 2),
                fmtDouble(vc.intraclassCorrelation(), 2),
            });
        }
    }
    return header("Figure 2: variance decomposition (steady state)",
                  "between-invocation variance dominates "
                  "within-invocation variance, so iterations within one "
                  "invocation must not be treated as independent "
                  "samples") +
        table.render() + "\n";
}

std::string
fig3Speedup(const std::vector<WorkloadRuns> &suite)
{
    std::vector<std::pair<std::string, harness::SpeedupResult>> rows;
    for (const auto &w : suite)
        rows.emplace_back(w.name(), w.speedups.at(vm::Tier::Adaptive));
    std::sort(rows.begin(), rows.end(), [](const auto &a, const auto &b) {
        return a.second.ci.estimate > b.second.ci.estimate;
    });

    Table table({"benchmark", "category", "speedup (95% CI)",
                 "significant"});
    for (const auto &[name, s] : rows) {
        table.addRow({name,
                      workloads::categoryName(
                          workloads::findWorkload(name).category),
                      harness::formatCi(s.ci, 2),
                      s.significant ? "yes" : "no"});
    }
    std::string out =
        header("Figure 3: JIT-over-interpreter speedup with 95% CIs",
               "speedups range from ~1.5x (OO, string) to ~10x (numeric "
               "loops); every benchmark's interval excludes 1.0") +
        table.render() + "\n" +
        strprintf("suite geometric-mean speedup: %s\n\n",
                  harness::formatCi(geomean(suite, vm::Tier::Adaptive), 2)
                      .c_str());

    // Bar rendering of the point estimates.
    double max_speedup = rows.front().second.ci.estimate;
    for (const auto &[name, s] : rows) {
        int width = static_cast<int>(s.ci.estimate / max_speedup * 50.0);
        out += strprintf(
            "  %-14s %s %.2fx\n", name.c_str(),
            repeat('#', static_cast<size_t>(std::max(width, 1))).c_str(),
            s.ci.estimate);
    }
    return out;
}

} // namespace

WorkloadRuns
analyzeRuns(std::map<vm::Tier, harness::RunResult> runs)
{
    WorkloadRuns w;
    w.runs = std::move(runs);
    for (const auto &[tier, run] : w.runs)
        w.estimates.emplace(tier, harness::rigorousEstimate(run));
    const auto &baseline = w.estimates.at(harness::kSuiteTiers[0].tier);
    for (size_t t = 1; t < harness::kSuiteTierCount; ++t) {
        vm::Tier tier = harness::kSuiteTiers[t].tier;
        w.speedups.emplace(tier, harness::speedupFromEstimates(
                                     baseline, w.estimates.at(tier)));
    }
    return w;
}

std::vector<WorkloadRuns>
measureSuite(const harness::RunnerConfig &design)
{
    std::vector<WorkloadRuns> suite;
    for (const auto &spec : workloads::suite()) {
        std::map<vm::Tier, harness::RunResult> runs;
        for (const auto &st : harness::kSuiteTiers) {
            harness::RunnerConfig cfg = design;
            cfg.tier = st.tier;
            runs[st.tier] = harness::runExperiment(spec, cfg);
        }
        suite.push_back(analyzeRuns(std::move(runs)));
    }
    return suite;
}

double
warmupOverhead(const harness::RunResult &run,
               const harness::SteadyStateSummary &summary)
{
    double warm_sum = 0.0, steady_sum = 0.0;
    size_t warm_n = 0, steady_n = 0;
    for (size_t i = 0; i < run.invocations.size(); ++i) {
        const auto &ss = summary.perInvocation[i];
        auto times = run.invocations[i].times();
        if (!ss.hasSteadyState())
            continue;
        for (size_t j = 0; j < times.size(); ++j) {
            if (j < ss.steadyStart) {
                warm_sum += times[j];
                ++warm_n;
            } else {
                steady_sum += times[j];
                ++steady_n;
            }
        }
    }
    if (!warm_n || !steady_n)
        return 1.0;
    return (warm_sum / static_cast<double>(warm_n)) /
        (steady_sum / static_cast<double>(steady_n));
}

NaiveError
naiveError(const std::vector<WorkloadRuns> &suite, harness::Methodology m)
{
    NaiveError err;
    for (const auto &w : suite) {
        const auto &rigorous = w.speedups.at(vm::Tier::Adaptive);
        double s = harness::naiveSpeedup(w.runs.at(vm::Tier::Interp),
                                         w.runs.at(vm::Tier::Adaptive), m);
        err.maxRelErr = std::max(
            err.maxRelErr, std::fabs(s / rigorous.ci.estimate - 1.0));
        if ((s > 1.0) != (rigorous.significant && rigorous.ci.estimate > 1.0))
            ++err.flips;
    }
    return err;
}

stats::ConfidenceInterval
geomean(const std::vector<WorkloadRuns> &suite, vm::Tier tier)
{
    std::vector<harness::SpeedupResult> speedups;
    for (const auto &w : suite)
        speedups.push_back(w.speedups.at(tier));
    return harness::geomeanSpeedup(speedups);
}

std::string
renderSuiteTables(const std::vector<WorkloadRuns> &suite)
{
    return table2Warmup(suite) + table3Methodology(suite) +
        table4Runtimes(suite) + fig2Variability(suite) + fig3Speedup(suite);
}

} // namespace bench
} // namespace rigor

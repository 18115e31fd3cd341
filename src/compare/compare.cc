#include "compare/compare.hh"

#include <algorithm>
#include <cmath>
#include <map>

#include "harness/analysis.hh"
#include "harness/report.hh"
#include "stats/descriptive.hh"
#include "stats/hierarchy.hh"
#include "support/fingerprint.hh"
#include "support/logging.hh"
#include "support/parallel.hh"
#include "support/rng.hh"
#include "support/schema.hh"
#include "support/str.hh"
#include "vm/interp.hh"

namespace rigor {
namespace compare {

const char *
verdictName(Verdict v)
{
    switch (v) {
    case Verdict::Faster: return "faster";
    case Verdict::Slower: return "slower";
    case Verdict::Inconclusive: return "inconclusive";
    }
    panic("unknown verdict");
}

const char *
effectSizeName(EffectSize e)
{
    switch (e) {
    case EffectSize::Negligible: return "negligible";
    case EffectSize::Small: return "small";
    case EffectSize::Medium: return "medium";
    case EffectSize::Large: return "large";
    }
    panic("unknown effect size");
}

EffectSize
classifyEffect(double speedup)
{
    if (speedup <= 0.0)
        panic("classifyEffect: non-positive speedup %g", speedup);
    double d = std::fabs(std::log(speedup));
    if (d < std::log(1.01))
        return EffectSize::Negligible;
    if (d < std::log(1.05))
        return EffectSize::Small;
    if (d < std::log(1.15))
        return EffectSize::Medium;
    return EffectSize::Large;
}

namespace {

using RunKey = std::pair<std::string, std::string>;

/**
 * Runs of an entry keyed by (workload, tier); later duplicates win.
 * With a tier filter (cross-tier pairing) only that tier's runs are
 * kept, keyed under `display_tier` so both sides produce matching
 * keys even though their runs are on different tiers.
 */
std::map<RunKey, const harness::RunResult *>
runsByKey(const archive::Entry &entry, const std::string &tier_filter,
          const std::string &display_tier)
{
    std::map<RunKey, const harness::RunResult *> out;
    for (const auto &r : entry.runs) {
        const char *tn = vm::tierName(r.tier);
        if (!tier_filter.empty() && tier_filter != tn)
            continue;
        out[{r.workload,
             tier_filter.empty() ? std::string(tn) : display_tier}] =
            &r;
    }
    return out;
}

std::string
keyName(const RunKey &key)
{
    return key.first + "/" + key.second;
}

/**
 * Per-pair resampling seed: a pure function of the master seed and
 * the pair's name, so every pair gets an independent stream and the
 * whole report is reproducible no matter which pairs both entries
 * happen to share.
 */
uint64_t
pairSeed(uint64_t master, const RunKey &key)
{
    SplitMix64 mix(master ^ fnv1a64(keyName(key)));
    return mix.next();
}

/** One pair's comparison: a pure function of its runs and `cfg`. */
WorkloadComparison
comparePair(const RunKey &key, const harness::RunResult &baseRun,
            const harness::RunResult &candRun, const CompareConfig &cfg)
{
    WorkloadComparison wc;
    wc.workload = key.first;
    wc.tier = key.second;
    // The rigorous estimate's warmup cut, without its t-interval:
    // baselineMs is rigorousEstimate(baseRun).ci.estimate.
    auto baseSamples = harness::steadyStateSeries(
        baseRun, harness::analyzeSteadyState(baseRun));
    auto candSamples = harness::steadyStateSeries(
        candRun, harness::analyzeSteadyState(candRun));
    wc.baselineMs = stats::mean(stats::invocationMeans(baseSamples));
    wc.candidateMs = stats::mean(stats::invocationMeans(candSamples));
    wc.baselineInvocations = baseSamples.size();
    wc.candidateInvocations = candSamples.size();

    Rng rng(pairSeed(cfg.seed, key));
    wc.speedup = stats::hierarchicalRatioInterval(
        baseSamples, candSamples, rng, cfg.confidence, cfg.resamples);
    if (!wc.hasInterval())
        wc.verdict = Verdict::Inconclusive;
    else if (wc.speedup.lower > 1.0)
        wc.verdict = Verdict::Faster;
    else if (wc.speedup.upper < 1.0)
        wc.verdict = Verdict::Slower;
    else
        wc.verdict = Verdict::Inconclusive;
    wc.effect = classifyEffect(wc.speedup.estimate);
    return wc;
}

std::string
fmtSeed(uint64_t seed)
{
    return strprintf("0x%016llx",
                     static_cast<unsigned long long>(seed));
}

} // namespace

CompareReport
compareEntries(const archive::Entry &baseline,
               const archive::Entry &candidate,
               const CompareConfig &cfg)
{
    CompareReport report;
    report.baselineId = baseline.summary.id;
    report.candidateId = candidate.summary.id;
    report.baselineFingerprint = baseline.summary.fingerprint;
    report.candidateFingerprint = candidate.summary.fingerprint;
    report.sameConfig =
        baseline.summary.fingerprint == candidate.summary.fingerprint;
    report.confidence = cfg.confidence;
    report.resamples = cfg.resamples;
    report.seed = cfg.seed;

    if (cfg.baselineTier.empty() != cfg.candidateTier.empty())
        fatal("cross-tier comparison needs both tiers (got "
              "baseline '%s', candidate '%s')",
              cfg.baselineTier.c_str(), cfg.candidateTier.c_str());
    // Validate loudly before filtering: a typo'd tier name would
    // otherwise just filter everything out and report "no pairs".
    if (!cfg.baselineTier.empty()) {
        vm::tierFromName(cfg.baselineTier);
        vm::tierFromName(cfg.candidateTier);
    }
    report.baselineTier = cfg.baselineTier;
    report.candidateTier = cfg.candidateTier;
    std::string display = cfg.baselineTier.empty()
        ? std::string()
        : cfg.baselineTier + "->" + cfg.candidateTier;

    auto baseRuns = runsByKey(baseline, cfg.baselineTier, display);
    auto candRuns = runsByKey(candidate, cfg.candidateTier, display);

    // The comparable pairs in key order; the one-sided keys are
    // listed as they come.
    struct Pair
    {
        const RunKey *key;
        const harness::RunResult *base;
        const harness::RunResult *cand;
    };
    std::vector<Pair> pairs;
    for (const auto &[key, baseRun] : baseRuns) {
        auto it = candRuns.find(key);
        bool baseUsable = !baseRun->invocations.empty();
        bool candUsable =
            it != candRuns.end() && !it->second->invocations.empty();
        if (!candUsable) {
            if (baseUsable)
                report.baselineOnly.push_back(keyName(key));
            continue;
        }
        if (!baseUsable) {
            report.candidateOnly.push_back(keyName(key));
            continue;
        }
        pairs.push_back({&key, baseRun, it->second});
    }

    // Each pair bootstraps from its own seeded stream, so the pairs
    // run in parallel and the report is assembled in key order.
    report.workloads.resize(pairs.size());
    parallelFor(pairs.size(), [&](size_t k) {
        report.workloads[k] = comparePair(*pairs[k].key, *pairs[k].base,
                                          *pairs[k].cand, cfg);
    });
    std::vector<double> pointSpeedups;
    for (const auto &wc : report.workloads)
        pointSpeedups.push_back(wc.speedup.estimate);
    for (const auto &[key, candRun] : candRuns)
        if (!baseRuns.count(key) && !candRun->invocations.empty())
            report.candidateOnly.push_back(keyName(key));

    if (report.workloads.empty())
        fatal("entries #%d and #%d share no comparable "
              "(workload, tier) pair",
              report.baselineId, report.candidateId);
    report.geomean =
        stats::geomeanInterval(pointSpeedups, cfg.confidence);
    report.geomeanValid = true;
    return report;
}

std::string
renderMarkdown(const CompareReport &report)
{
    std::string md;
    md += strprintf("# rigorbench compare: %s vs %s\n\n",
                    report.baselineRef.c_str(),
                    report.candidateRef.c_str());
    md += "|  | baseline | candidate |\n|---|---|---|\n";
    md += strprintf("| ref | %s (#%d) | %s (#%d) |\n",
                    report.baselineRef.c_str(), report.baselineId,
                    report.candidateRef.c_str(), report.candidateId);
    md += strprintf("| config fingerprint | `%s` | `%s` |\n\n",
                    report.baselineFingerprint.c_str(),
                    report.candidateFingerprint.c_str());
    if (report.sameConfig) {
        md += "Configurations are **identical**: any difference "
              "below is a performance change, not an experiment "
              "change.\n\n";
    } else {
        md += "Configurations **differ** (A/B comparison): "
              "differences below mix the config change with any "
              "performance change.\n\n";
    }
    if (!report.baselineTier.empty())
        md += strprintf(
            "Cross-tier pairing: baseline `%s` runs vs candidate "
            "`%s` runs, paired by workload.\n\n",
            report.baselineTier.c_str(),
            report.candidateTier.c_str());
    md += strprintf(
        "%s%% hierarchical-bootstrap CIs (invocations, then "
        "iterations), %d resamples, seed %s.\n\n",
        fmtDouble(100.0 * report.confidence, 0).c_str(),
        report.resamples, fmtSeed(report.seed).c_str());

    md += "| workload | tier | baseline ms | candidate ms | "
          "speedup (CI) | effect | verdict |\n";
    md += "|---|---|---|---|---|---|---|\n";
    for (const auto &wc : report.workloads) {
        std::string speedup = wc.hasInterval()
            ? harness::formatCi(wc.speedup, 3)
            : strprintf("%s (%s)",
                        fmtDouble(wc.speedup.estimate, 3).c_str(),
                        harness::kNoInterval);
        md += strprintf(
            "| %s | %s | %s | %s | %s | %s | %s |\n",
            wc.workload.c_str(), wc.tier.c_str(),
            fmtDouble(wc.baselineMs, 4).c_str(),
            fmtDouble(wc.candidateMs, 4).c_str(), speedup.c_str(),
            effectSizeName(wc.effect), verdictName(wc.verdict));
    }
    md += "\n";
    if (report.geomeanValid)
        md += strprintf("Geomean speedup over %zu pair(s): %s.\n",
                        report.workloads.size(),
                        harness::formatCi(report.geomean, 3).c_str());
    if (!report.baselineOnly.empty())
        md += strprintf("\nOnly in baseline (not compared): %s.\n",
                        join(report.baselineOnly, ", ").c_str());
    if (!report.candidateOnly.empty())
        md += strprintf("\nOnly in candidate (not compared): %s.\n",
                        join(report.candidateOnly, ", ").c_str());
    return md;
}

Json
reportToJson(const CompareReport &report)
{
    Json root = Json::object();
    root.set("schema", kCompareReportSchema);
    root.set("version", kCompareReportVersion);
    Json base = Json::object();
    base.set("ref", report.baselineRef);
    base.set("id", report.baselineId);
    base.set("fingerprint", report.baselineFingerprint);
    root.set("baseline", std::move(base));
    Json cand = Json::object();
    cand.set("ref", report.candidateRef);
    cand.set("id", report.candidateId);
    cand.set("fingerprint", report.candidateFingerprint);
    root.set("candidate", std::move(cand));
    root.set("same_config", report.sameConfig);
    root.set("confidence", report.confidence);
    root.set("resamples", report.resamples);
    root.set("seed", fmtSeed(report.seed));
    // Only present for cross-tier reports, so by-tier reports stay
    // byte-identical to those of earlier builds.
    if (!report.baselineTier.empty()) {
        root.set("baseline_tier", report.baselineTier);
        root.set("candidate_tier", report.candidateTier);
    }

    Json wls = Json::array();
    for (const auto &wc : report.workloads) {
        Json j = Json::object();
        j.set("workload", wc.workload);
        j.set("tier", wc.tier);
        j.set("baseline_ms", wc.baselineMs);
        j.set("candidate_ms", wc.candidateMs);
        Json s = Json::object();
        s.set("estimate", wc.speedup.estimate);
        // A one-invocation side has no interval; the invocation
        // counts below say why.
        if (wc.hasInterval()) {
            s.set("lower", wc.speedup.lower);
            s.set("upper", wc.speedup.upper);
        }
        j.set("speedup", std::move(s));
        j.set("verdict", verdictName(wc.verdict));
        j.set("effect", effectSizeName(wc.effect));
        j.set("baseline_invocations",
              static_cast<int64_t>(wc.baselineInvocations));
        j.set("candidate_invocations",
              static_cast<int64_t>(wc.candidateInvocations));
        wls.push(std::move(j));
    }
    root.set("workloads", std::move(wls));
    if (report.geomeanValid) {
        Json g = Json::object();
        g.set("estimate", report.geomean.estimate);
        g.set("lower", report.geomean.lower);
        g.set("upper", report.geomean.upper);
        root.set("geomean_speedup", std::move(g));
    }
    Json onlyA = Json::array();
    for (const auto &k : report.baselineOnly)
        onlyA.push(k);
    root.set("baseline_only", std::move(onlyA));
    Json onlyB = Json::array();
    for (const auto &k : report.candidateOnly)
        onlyB.push(k);
    root.set("candidate_only", std::move(onlyB));
    return root;
}

GateResult
evaluateGate(const CompareReport &report, double thresholdPct)
{
    if (thresholdPct < 0.0)
        fatal("gate threshold must be >= 0, got %g", thresholdPct);
    GateResult gate;
    gate.thresholdPct = thresholdPct;
    // The candidate regressed iff even the *most favorable* end of
    // the speedup interval is slower than threshold allows.
    double bound = 1.0 / (1.0 + thresholdPct / 100.0);
    for (const auto &wc : report.workloads) {
        if (!wc.hasInterval() || wc.speedup.upper >= bound)
            continue;
        Regression r;
        r.workload = wc.workload;
        r.tier = wc.tier;
        r.slowdownPct = (1.0 / wc.speedup.estimate - 1.0) * 100.0;
        r.speedup = wc.speedup;
        gate.regressions.push_back(std::move(r));
    }
    // Worst regression first, so the top of a failing CI log names
    // the pair that matters most; ties keep (workload, tier) order.
    std::stable_sort(gate.regressions.begin(),
                     gate.regressions.end(),
                     [](const Regression &a, const Regression &b) {
                         return a.slowdownPct > b.slowdownPct;
                     });
    gate.pass = gate.regressions.empty();
    return gate;
}

std::string
renderGate(const GateResult &gate, const CompareReport &report)
{
    std::string out;
    out += strprintf(
        "gate: candidate %s (#%d) vs baseline %s (#%d), "
        "threshold %s%% at %s%% confidence\n",
        report.candidateRef.c_str(), report.candidateId,
        report.baselineRef.c_str(), report.baselineId,
        fmtDouble(gate.thresholdPct, 1).c_str(),
        fmtDouble(100.0 * report.confidence, 0).c_str());
    if (gate.pass) {
        out += strprintf("PASS: no regression beyond %s%% across "
                         "%zu compared pair(s)\n",
                         fmtDouble(gate.thresholdPct, 1).c_str(),
                         report.workloads.size());
        return out;
    }
    const Regression &worst = gate.regressions.front();
    out += strprintf("FAIL: %zu pair(s) regressed beyond %s%% "
                     "(worst: %s/%s, %s%% slower):\n",
                     gate.regressions.size(),
                     fmtDouble(gate.thresholdPct, 1).c_str(),
                     worst.workload.c_str(), worst.tier.c_str(),
                     fmtDouble(worst.slowdownPct, 1).c_str());
    for (const auto &r : gate.regressions)
        out += strprintf("  %s/%s: %s%% slower (speedup %s)\n",
                         r.workload.c_str(), r.tier.c_str(),
                         fmtDouble(r.slowdownPct, 1).c_str(),
                         harness::formatCi(r.speedup, 3).c_str());
    return out;
}

} // namespace compare
} // namespace rigor

#include "explain/explain.hh"

#include <algorithm>
#include <cmath>
#include <map>

#include "harness/report.hh"
#include "support/logging.hh"
#include "support/schema.hh"
#include "support/str.hh"

namespace rigor {
namespace explain {

namespace {

/** Signed percentage with two decimals, e.g. "+5.21%". */
std::string
fmtSignedPct(double pct)
{
    return strprintf("%+.2f%%", pct);
}

/** "8.3% slower" / "8.3% faster" / "unchanged". */
std::string
fmtDirection(double measuredPct)
{
    if (measuredPct > 0.0)
        return fmtDouble(measuredPct, 1) + "% slower";
    if (measuredPct < 0.0)
        return fmtDouble(-measuredPct, 1) + "% faster";
    return "unchanged";
}

/** "×2.10" change factor; "new" when the baseline rate is zero. */
std::string
fmtFactor(double baseRate, double candRate)
{
    if (baseRate <= 0.0)
        return candRate > 0.0 ? "new" : "×1.00";
    return "×" + fmtDouble(candRate / baseRate, 2);
}

/** Per-iteration rate (0 when the profile holds no iterations). */
double
perIter(uint64_t total, uint64_t iters)
{
    return iters ? static_cast<double>(total) /
                       static_cast<double>(iters)
                 : 0.0;
}

/**
 * Decompose one profile into per-iteration modelled cycles per
 * component, mirroring uarch::PerfModel's additive accounting:
 * retired uops at the issue width, plus branch/dispatch mispredict,
 * L1I refill, overlap-scaled data-miss latency and deopt penalties.
 */
struct Decomposition
{
    double opmix = 0.0;
    double tier = 0.0;
    double branch = 0.0;
    double cache = 0.0;
};

Decomposition
decompose(const BehaviorProfile &p)
{
    Decomposition d;
    if (p.iterations == 0)
        return d;
    const ModelParams &m = p.model;
    double iters = static_cast<double>(p.iterations);
    const uarch::CounterSet &c = p.counters;

    // JIT-compile uops are counted by the VM over the invocation
    // lifetime; clamp so the iteration-window subtraction can never
    // go negative when a compile landed during module setup.
    double jcu = static_cast<double>(
        std::min(p.vm.jitCompileUops, c.instructions));
    d.opmix = (static_cast<double>(c.instructions) - jcu) /
              m.issueWidth / iters;
    d.tier = (jcu / m.issueWidth +
              static_cast<double>(p.vm.guardFailures) *
                  m.branchMissPenalty) /
             iters;
    d.branch = (static_cast<double>(c.branchMisses) *
                    m.branchMissPenalty +
                static_cast<double>(c.dispatchMisses) *
                    m.dispatchMissPenalty) /
               iters;
    // Data-side latency, reconstructed from the per-level miss
    // counts: an L1d miss that hit L2 cost l2Hit, an L2 miss that
    // hit LLC cost llcHit, an LLC miss cost dram.
    double l2Hits = static_cast<double>(c.l1dMisses) -
                    static_cast<double>(c.l2Misses);
    double llcHits = static_cast<double>(c.l2Misses) -
                     static_cast<double>(c.llcMisses);
    double latency = std::max(0.0, l2Hits) * m.l2HitCycles +
                     std::max(0.0, llcHits) * m.llcHitCycles +
                     static_cast<double>(c.llcMisses) * m.dramCycles;
    d.cache = (static_cast<double>(c.l1iMisses) * m.l1iMissPenalty +
               m.memOverlapFactor * latency) /
              iters;
    return d;
}

/** Dispatched share of executed bytecodes (tier residency proxy). */
double
dispatchShare(const BehaviorProfile &p)
{
    uint64_t count = 0, dispatched = 0;
    for (const auto &op : p.ops) {
        count += op.count;
        dispatched += op.dispatched;
    }
    return count ? static_cast<double>(dispatched) /
                       static_cast<double>(count)
                 : 0.0;
}

/** The fields of a pair that come from its comparison alone. */
PairExplanation
measuredPair(const compare::WorkloadComparison &wc)
{
    PairExplanation pe;
    pe.workload = wc.workload;
    pe.tier = wc.tier;
    pe.speedup = wc.speedup;
    pe.hasInterval = wc.hasInterval();
    pe.verdict = compare::verdictName(wc.verdict);
    pe.measuredPct = (wc.candidateMs / wc.baselineMs - 1.0) * 100.0;
    return pe;
}

/**
 * Attribute one compared pair. `anchor` work is all done against the
 * baseline's steady-state iteration time so the component percentages
 * and the measured percentage share a denominator and sum (up to the
 * explicit remainder).
 */
PairExplanation
explainPair(const compare::WorkloadComparison &wc,
            const BehaviorProfile &a, const BehaviorProfile &b)
{
    PairExplanation pe = measuredPair(wc);
    pe.hasProfiles = true;

    // Baseline steady-state iteration time, in modelled cycles.
    double anchorCycles = wc.baselineMs * a.model.cyclesPerMs;
    Decomposition da = decompose(a);
    Decomposition db = decompose(b);

    auto component = [&](const char *name, double baseCyc,
                         double candCyc) {
        Component c;
        c.name = name;
        c.baselineCyclesPerIter = baseCyc;
        c.candidateCyclesPerIter = candCyc;
        c.contributionPct =
            anchorCycles > 0.0
                ? (candCyc - baseCyc) / anchorCycles * 100.0
                : 0.0;
        pe.components.push_back(std::move(c));
    };
    component("opcode-mix", da.opmix, db.opmix);
    component("tier/deopt", da.tier, db.tier);
    component("branch", da.branch, db.branch);
    component("cache", da.cache, db.cache);

    double attributed = 0.0;
    for (const auto &c : pe.components)
        attributed += c.contributionPct;
    pe.unattributedPct = pe.measuredPct - attributed;

    // Rank by |contribution|, ties broken by the fixed order above
    // so the report is deterministic even for exact ties.
    std::stable_sort(pe.components.begin(), pe.components.end(),
                     [](const Component &x, const Component &y) {
                         return std::fabs(x.contributionPct) >
                                std::fabs(y.contributionPct);
                     });

    // Per-opcode movers: how much each opcode's uop share moved the
    // needle, in the same percent-of-baseline-time scale.
    std::map<std::string, std::pair<const OpProfile *,
                                    const OpProfile *>>
        byOp;
    for (const auto &op : a.ops)
        byOp[op.op].first = &op;
    for (const auto &op : b.ops)
        byOp[op.op].second = &op;
    for (const auto &[name, sides] : byOp) {
        OpMover mv;
        mv.op = name;
        if (sides.first) {
            mv.baselineCountPerIter =
                perIter(sides.first->count, a.iterations);
            mv.baselineUopsPerIter =
                perIter(sides.first->uops, a.iterations);
        }
        if (sides.second) {
            mv.candidateCountPerIter =
                perIter(sides.second->count, b.iterations);
            mv.candidateUopsPerIter =
                perIter(sides.second->uops, b.iterations);
        }
        double deltaCycles =
            (mv.candidateUopsPerIter - mv.baselineUopsPerIter) /
            a.model.issueWidth;
        mv.contributionPct = anchorCycles > 0.0
                                 ? deltaCycles / anchorCycles * 100.0
                                 : 0.0;
        if (std::fabs(mv.contributionPct) >= 0.02)
            pe.movers.push_back(std::move(mv));
    }
    std::stable_sort(pe.movers.begin(), pe.movers.end(),
                     [](const OpMover &x, const OpMover &y) {
                         return std::fabs(x.contributionPct) >
                                std::fabs(y.contributionPct);
                     });
    if (pe.movers.size() > 5)
        pe.movers.resize(5);

    // Evidence rates.
    pe.baselineGuardsPerIter =
        perIter(a.vm.guardFailures, a.iterations);
    pe.candidateGuardsPerIter =
        perIter(b.vm.guardFailures, b.iterations);
    double worstGuardDelta = 0.0;
    for (const auto &[name, sides] : byOp) {
        double ga = sides.first
                        ? perIter(sides.first->guardFailures,
                                  a.iterations)
                        : 0.0;
        double gb = sides.second
                        ? perIter(sides.second->guardFailures,
                                  b.iterations)
                        : 0.0;
        if (std::fabs(gb - ga) > worstGuardDelta) {
            worstGuardDelta = std::fabs(gb - ga);
            pe.topGuardOp = name;
        }
    }
    pe.baselineJitCompiles = a.vm.jitCompiles;
    pe.candidateJitCompiles = b.vm.jitCompiles;
    pe.baselineDispatchShare = dispatchShare(a);
    pe.candidateDispatchShare = dispatchShare(b);
    pe.baselineL1dMissPct =
        a.counters.l1dAccesses
            ? 100.0 * static_cast<double>(a.counters.l1dMisses) /
                  static_cast<double>(a.counters.l1dAccesses)
            : 0.0;
    pe.candidateL1dMissPct =
        b.counters.l1dAccesses
            ? 100.0 * static_cast<double>(b.counters.l1dMisses) /
                  static_cast<double>(b.counters.l1dAccesses)
            : 0.0;
    return pe;
}

/** Map (workload, tier) -> parsed profile for one entry. */
std::map<std::pair<std::string, std::string>, BehaviorProfile>
profilesByKey(const archive::Entry &entry)
{
    std::map<std::pair<std::string, std::string>, BehaviorProfile>
        out;
    if (entry.profiles.size() != entry.runs.size())
        return out;
    for (size_t i = 0; i < entry.runs.size(); ++i) {
        if (entry.profiles[i].isNull())
            continue;
        BehaviorProfile p = profileFromJson(entry.profiles[i]);
        out.emplace(std::make_pair(p.workload, p.tier),
                    std::move(p));
    }
    return out;
}

} // namespace

ExplainReport
explainEntries(const archive::Entry &baseline,
               const archive::Entry &candidate,
               const compare::CompareReport &report)
{
    ExplainReport out;
    out.baselineRef = report.baselineRef;
    out.candidateRef = report.candidateRef;
    out.baselineId = report.baselineId;
    out.candidateId = report.candidateId;
    out.baselineFingerprint = report.baselineFingerprint;
    out.candidateFingerprint = report.candidateFingerprint;
    out.sameConfig = report.sameConfig;
    out.baselineOnly = report.baselineOnly;
    out.candidateOnly = report.candidateOnly;

    auto baseProfiles = profilesByKey(baseline);
    auto candProfiles = profilesByKey(candidate);
    for (const auto &wc : report.workloads) {
        // Under cross-tier pairing the pair's display tier
        // ("interp->threaded") matches no profile; each side's
        // profile is keyed by its own tier.
        auto ia = baseProfiles.find(std::make_pair(
            wc.workload, report.baselineTier.empty()
                             ? wc.tier
                             : report.baselineTier));
        auto ib = candProfiles.find(std::make_pair(
            wc.workload, report.candidateTier.empty()
                             ? wc.tier
                             : report.candidateTier));
        bool haveA =
            ia != baseProfiles.end() && ia->second.iterations > 0;
        bool haveB =
            ib != candProfiles.end() && ib->second.iterations > 0;
        if (haveA && haveB) {
            out.pairs.push_back(
                explainPair(wc, ia->second, ib->second));
            continue;
        }
        PairExplanation pe = measuredPair(wc);
        std::string missing;
        if (!haveA)
            missing += strprintf("baseline entry #%d",
                                 report.baselineId);
        if (!haveB) {
            if (!missing.empty())
                missing += " and ";
            missing += strprintf("candidate entry #%d",
                                 report.candidateId);
        }
        pe.note = strprintf(
            "NO PROFILE CAPTURED: %s carries no behavior profile "
            "for this pair (archived by an older rigorbench or "
            "with empty runs); re-archive with this build to "
            "enable attribution.",
            missing.c_str());
        out.pairs.push_back(std::move(pe));
    }
    return out;
}

std::string
headline(const PairExplanation &pair)
{
    std::string out = fmtDirection(pair.measuredPct);
    if (!pair.hasProfiles)
        return out + " — unexplained (no profile captured)";
    std::vector<std::string> parts;
    for (const auto &c : pair.components)
        if (std::fabs(c.contributionPct) >= 0.05)
            parts.push_back(c.name + " " +
                            fmtSignedPct(c.contributionPct));
    parts.push_back("unattributed " +
                    fmtSignedPct(pair.unattributedPct));
    return out + " — " + join(parts, ", ");
}

std::string
renderPair(const PairExplanation &pair)
{
    std::string md;
    md += strprintf("### %s / %s\n\n", pair.workload.c_str(),
                    pair.tier.c_str());
    std::string speedup = pair.hasInterval
        ? harness::formatCi(pair.speedup, 3)
        : strprintf("%s, %s",
                    fmtDouble(pair.speedup.estimate, 3).c_str(),
                    harness::kNoInterval);
    md += strprintf("%s (speedup %s, verdict %s)\n\n",
                    headline(pair).c_str(), speedup.c_str(),
                    pair.verdict.c_str());
    if (!pair.hasProfiles) {
        md += pair.note + "\n";
        return md;
    }
    md += "| component | baseline cyc/iter | candidate cyc/iter | "
          "contribution |\n|---|---|---|---|\n";
    for (const auto &c : pair.components)
        md += strprintf(
            "| %s | %s | %s | %s |\n", c.name.c_str(),
            fmtDouble(c.baselineCyclesPerIter, 1).c_str(),
            fmtDouble(c.candidateCyclesPerIter, 1).c_str(),
            fmtSignedPct(c.contributionPct).c_str());
    md += strprintf("| unattributed remainder |  |  | %s |\n\n",
                    fmtSignedPct(pair.unattributedPct).c_str());

    if (!pair.movers.empty()) {
        std::vector<std::string> parts;
        for (const auto &mv : pair.movers)
            parts.push_back(strprintf(
                "`%s` %s (count %s, uops %s)", mv.op.c_str(),
                fmtSignedPct(mv.contributionPct).c_str(),
                fmtFactor(mv.baselineCountPerIter,
                          mv.candidateCountPerIter)
                    .c_str(),
                fmtFactor(mv.baselineUopsPerIter,
                          mv.candidateUopsPerIter)
                    .c_str()));
        md += "Top opcode movers: " + join(parts, ", ") + ".\n";
    }

    std::string worst;
    if (!pair.topGuardOp.empty())
        worst = ", worst `" + pair.topGuardOp + "`";
    std::string deopt = strprintf(
        "deopts/iter %s (%s → %s%s)",
        fmtFactor(pair.baselineGuardsPerIter,
                  pair.candidateGuardsPerIter)
            .c_str(),
        fmtDouble(pair.baselineGuardsPerIter, 2).c_str(),
        fmtDouble(pair.candidateGuardsPerIter, 2).c_str(),
        worst.c_str());
    md += strprintf(
        "Evidence: %s; jit compiles %s → %s; interp-dispatched "
        "share %s%% → %s%%; L1d miss rate %s%% → %s%%.\n",
        deopt.c_str(), fmtCount(pair.baselineJitCompiles).c_str(),
        fmtCount(pair.candidateJitCompiles).c_str(),
        fmtDouble(100.0 * pair.baselineDispatchShare, 1).c_str(),
        fmtDouble(100.0 * pair.candidateDispatchShare, 1).c_str(),
        fmtDouble(pair.baselineL1dMissPct, 2).c_str(),
        fmtDouble(pair.candidateL1dMissPct, 2).c_str());
    return md;
}

std::string
renderMarkdown(const ExplainReport &report)
{
    std::string md;
    md += strprintf("# rigorbench explain: %s vs %s\n\n",
                    report.baselineRef.c_str(),
                    report.candidateRef.c_str());
    md += "|  | baseline | candidate |\n|---|---|---|\n";
    md += strprintf("| ref | %s (#%d) | %s (#%d) |\n",
                    report.baselineRef.c_str(), report.baselineId,
                    report.candidateRef.c_str(),
                    report.candidateId);
    md += strprintf("| config fingerprint | `%s` | `%s` |\n\n",
                    report.baselineFingerprint.c_str(),
                    report.candidateFingerprint.c_str());
    if (report.sameConfig)
        md += "Configurations are **identical**: attributions "
              "below explain a performance change.\n\n";
    else
        md += "Configurations **differ** (A/B comparison): "
              "attributions below explain the config change's "
              "behavioral effect.\n\n";
    md += "Contributions are percentages of the baseline's "
          "steady-state iteration time; components sum to the "
          "measured change up to the explicit unattributed "
          "remainder (see docs/METHODOLOGY.md §14).\n\n";
    for (const auto &pair : report.pairs)
        md += renderPair(pair) + "\n";
    if (!report.baselineOnly.empty())
        md += strprintf("Only in baseline (not explained): %s.\n",
                        join(report.baselineOnly, ", ").c_str());
    if (!report.candidateOnly.empty())
        md += strprintf("Only in candidate (not explained): %s.\n",
                        join(report.candidateOnly, ", ").c_str());
    return md;
}

Json
reportToJson(const ExplainReport &report)
{
    Json root = Json::object();
    root.set("schema", kExplainReportSchema);
    root.set("version", kExplainReportVersion);
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

    Json pairs = Json::array();
    for (const auto &pair : report.pairs) {
        Json j = Json::object();
        j.set("workload", pair.workload);
        j.set("tier", pair.tier);
        j.set("has_profiles", pair.hasProfiles);
        if (!pair.note.empty())
            j.set("note", pair.note);
        j.set("measured_pct", pair.measuredPct);
        Json s = Json::object();
        s.set("estimate", pair.speedup.estimate);
        if (pair.hasInterval) {
            s.set("lower", pair.speedup.lower);
            s.set("upper", pair.speedup.upper);
        }
        j.set("speedup", std::move(s));
        j.set("verdict", pair.verdict);
        if (pair.hasProfiles) {
            Json comps = Json::array();
            for (const auto &c : pair.components) {
                Json cj = Json::object();
                cj.set("name", c.name);
                cj.set("baseline_cycles_per_iter",
                       c.baselineCyclesPerIter);
                cj.set("candidate_cycles_per_iter",
                       c.candidateCyclesPerIter);
                cj.set("contribution_pct", c.contributionPct);
                comps.push(std::move(cj));
            }
            j.set("components", std::move(comps));
            j.set("unattributed_pct", pair.unattributedPct);
            Json movers = Json::array();
            for (const auto &mv : pair.movers) {
                Json mj = Json::object();
                mj.set("op", mv.op);
                mj.set("contribution_pct", mv.contributionPct);
                mj.set("baseline_count_per_iter",
                       mv.baselineCountPerIter);
                mj.set("candidate_count_per_iter",
                       mv.candidateCountPerIter);
                mj.set("baseline_uops_per_iter",
                       mv.baselineUopsPerIter);
                mj.set("candidate_uops_per_iter",
                       mv.candidateUopsPerIter);
                movers.push(std::move(mj));
            }
            j.set("movers", std::move(movers));
            Json ev = Json::object();
            ev.set("baseline_guards_per_iter",
                   pair.baselineGuardsPerIter);
            ev.set("candidate_guards_per_iter",
                   pair.candidateGuardsPerIter);
            if (!pair.topGuardOp.empty())
                ev.set("top_guard_op", pair.topGuardOp);
            ev.set("baseline_jit_compiles",
                   pair.baselineJitCompiles);
            ev.set("candidate_jit_compiles",
                   pair.candidateJitCompiles);
            ev.set("baseline_dispatch_share",
                   pair.baselineDispatchShare);
            ev.set("candidate_dispatch_share",
                   pair.candidateDispatchShare);
            ev.set("baseline_l1d_miss_pct",
                   pair.baselineL1dMissPct);
            ev.set("candidate_l1d_miss_pct",
                   pair.candidateL1dMissPct);
            j.set("evidence", std::move(ev));
        }
        pairs.push(std::move(j));
    }
    root.set("pairs", std::move(pairs));
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

const PairExplanation *
findPair(const ExplainReport &report, const std::string &workload,
         const std::string &tier)
{
    for (const auto &pair : report.pairs)
        if (pair.workload == workload && pair.tier == tier)
            return &pair;
    return nullptr;
}

} // namespace explain
} // namespace rigor

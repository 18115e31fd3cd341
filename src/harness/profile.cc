#include "harness/profile.hh"

#include <algorithm>
#include <map>

#include "harness/runner.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/str.hh"
#include "support/table.hh"
#include "vm/compiler.hh"
#include "vm/observer.hh"

namespace rigor {
namespace harness {

namespace {

/**
 * Aggregates the branch and allocation sites of one profiling run;
 * the per-opcode and tier-up counts come from the VM's InterpStats.
 */
class ProfilingObserver : public vm::ExecutionObserver
{
  public:
    struct SiteStats
    {
        uint64_t count = 0;
        uint64_t secondary = 0;  ///< taken count / allocated bytes
    };

    void
    onBranch(uint64_t site, bool taken) override
    {
        SiteStats &s = branchSites[site];
        ++s.count;
        s.secondary += taken ? 1 : 0;
    }

    void
    onAllocSite(uint64_t site, uint32_t size) override
    {
        SiteStats &s = allocSites[site];
        ++s.count;
        s.secondary += size;
    }

    // std::map keeps site order deterministic for equal-count ties.
    std::map<uint64_t, SiteStats> branchSites;
    std::map<uint64_t, SiteStats> allocSites;
};

/** codeId -> function name, for turning site ids into locations. */
void
collectCodeNames(const vm::CodeObject *code,
                 std::map<uint32_t, std::string> &names)
{
    names[code->codeId] = code->name;
    for (const auto &child : code->children)
        collectCodeNames(child.get(), names);
}

std::string
siteLocation(uint64_t site,
             const std::map<uint32_t, std::string> &names)
{
    if (site == 0)
        return "<vm-setup>";
    auto code_id = static_cast<uint32_t>(site >> 20);
    auto pc = static_cast<uint32_t>(site & 0xFFFFF);
    auto it = names.find(code_id);
    const char *name =
        it == names.end() ? "<unknown>" : it->second.c_str();
    return strprintf("%s+%u", name, pc);
}

} // namespace

ProfileResult
profileWorkload(const workloads::WorkloadSpec &spec,
                const ProfileConfig &config)
{
    vm::Program prog = vm::compileSource(spec.source, spec.name);

    vm::InterpConfig icfg;
    icfg.tier = config.tier;
    icfg.jitThreshold = config.jitThreshold;
    if (config.tier == vm::Tier::Threaded)
        icfg.dispatchUops = kThreadedDispatchUops;
    icfg.captureOutput = false;
    SplitMix64 sm(config.seed);
    icfg.hashSeed = sm.next();
    icfg.aslrSeed = sm.next();

    ProfilingObserver obs;
    vm::Interp interp(prog, icfg, &obs);
    interp.runModule();

    int64_t size =
        config.size > 0 ? config.size : spec.defaultSize;
    for (int it = 0; it < config.iterations; ++it)
        interp.callGlobal("run", {vm::Value::makeInt(size)});

    ProfileResult result;
    result.workload = spec.name;
    result.tier = config.tier;
    result.size = size;
    result.iterations = config.iterations;
    const vm::InterpStats &counts = interp.stats();
    result.jitCompiles = counts.jitCompiles;
    result.guardFailures = counts.guardFailures;

    for (size_t i = 0; i < counts.perOp.size(); ++i) {
        if (counts.perOp[i] == 0)
            continue;
        OpProfileEntry e;
        e.op = static_cast<vm::Op>(i);
        e.count = counts.perOp[i];
        e.uops = counts.perOpUops[i];
        e.dispatched = counts.perOpDispatched[i];
        result.ops.push_back(e);
        result.totalBytecodes += e.count;
        result.totalUops += e.uops;
    }
    for (auto &e : result.ops)
        e.uopsPercent = result.totalUops
            ? 100.0 * static_cast<double>(e.uops) /
                static_cast<double>(result.totalUops)
            : 0.0;
    std::stable_sort(result.ops.begin(), result.ops.end(),
                     [](const OpProfileEntry &a,
                        const OpProfileEntry &b) {
                         return a.uops > b.uops;
                     });

    std::map<uint32_t, std::string> codeNames;
    collectCodeNames(prog.module.get(), codeNames);

    for (const auto &[site, stats] : obs.branchSites) {
        BranchSiteEntry e;
        e.site = site;
        e.location = siteLocation(site, codeNames);
        e.count = stats.count;
        e.taken = stats.secondary;
        result.branchSites.push_back(std::move(e));
    }
    std::stable_sort(result.branchSites.begin(),
                     result.branchSites.end(),
                     [](const BranchSiteEntry &a,
                        const BranchSiteEntry &b) {
                         return a.count > b.count;
                     });

    for (const auto &[site, stats] : obs.allocSites) {
        AllocSiteEntry e;
        e.site = site;
        e.location = siteLocation(site, codeNames);
        e.count = stats.count;
        e.bytes = stats.secondary;
        result.allocSites.push_back(std::move(e));
    }
    std::stable_sort(result.allocSites.begin(),
                     result.allocSites.end(),
                     [](const AllocSiteEntry &a,
                        const AllocSiteEntry &b) {
                         return a.bytes > b.bytes;
                     });

    return result;
}

ProfileResult
profileWorkload(const std::string &workload_name,
                const ProfileConfig &config)
{
    return profileWorkload(workloads::findWorkload(workload_name),
                           config);
}

std::string
renderProfile(const ProfileResult &profile, int top_sites)
{
    std::string out = strprintf(
        "profile: %s / %s  (1 invocation x %d iterations, "
        "size %lld)\n"
        "  %s bytecodes, %s uops, %s jit compile(s), "
        "%s guard failure(s)\n\n",
        profile.workload.c_str(), vm::tierName(profile.tier),
        profile.iterations,
        static_cast<long long>(profile.size),
        fmtCount(profile.totalBytecodes).c_str(),
        fmtCount(profile.totalUops).c_str(),
        fmtCount(profile.jitCompiles).c_str(),
        fmtCount(profile.guardFailures).c_str());

    Table ops({"opcode", "count", "uops", "% uops", "% interp",
               "% jit"});
    for (const auto &e : profile.ops) {
        double interp_pct = e.count
            ? 100.0 * static_cast<double>(e.dispatched) /
                static_cast<double>(e.count)
            : 0.0;
        ops.addRow({vm::opName(e.op), fmtCount(e.count),
                    fmtCount(e.uops), fmtDouble(e.uopsPercent, 2),
                    fmtDouble(interp_pct, 1),
                    fmtDouble(100.0 - interp_pct, 1)});
    }
    out += ops.render();

    auto limit = static_cast<size_t>(top_sites);
    if (!profile.branchSites.empty()) {
        Table t({"branch site", "count", "taken %"});
        t.setCaption(strprintf("top branch sites (of %zu)",
                               profile.branchSites.size()));
        for (size_t i = 0;
             i < profile.branchSites.size() && i < limit; ++i) {
            const auto &e = profile.branchSites[i];
            t.addRow({e.location, fmtCount(e.count),
                      fmtDouble(100.0 * static_cast<double>(e.taken) /
                                    static_cast<double>(e.count),
                                1)});
        }
        out += "\n" + t.render();
    }

    if (!profile.allocSites.empty()) {
        Table t({"alloc site", "allocs", "bytes"});
        t.setCaption(strprintf("top allocation sites (of %zu)",
                               profile.allocSites.size()));
        for (size_t i = 0;
             i < profile.allocSites.size() && i < limit; ++i) {
            const auto &e = profile.allocSites[i];
            t.addRow({e.location, fmtCount(e.count),
                      fmtCount(e.bytes)});
        }
        out += "\n" + t.render();
    }

    return out;
}

} // namespace harness
} // namespace rigor

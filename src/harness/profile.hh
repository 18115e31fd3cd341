/**
 * @file
 * Flat execution profiling: run one VM invocation of a workload with
 * a profiling observer and aggregate its dynamic bytecode stream into
 * a per-opcode profile plus hot branch / allocation site tables.
 *
 * This is the "Explain" instrument of the Measure-Explain-Test-
 * Improve loop: when a timing result surprises, the profile shows
 * where the dynamic work actually went — which opcodes dominate,
 * which of them ran quickened versus dispatched, and which source
 * sites branch and allocate the most — without recompiling anything.
 */

#ifndef RIGOR_HARNESS_PROFILE_HH
#define RIGOR_HARNESS_PROFILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "vm/code.hh"
#include "vm/interp.hh"
#include "workloads/workloads.hh"

namespace rigor {
namespace harness {

/** Design of one profiling run (a single VM invocation). */
struct ProfileConfig
{
    /** Tier to profile; adaptive shows warmup + tier split. */
    vm::Tier tier = vm::Tier::Adaptive;
    /** In-process iterations of run(n) to aggregate over. */
    int iterations = 8;
    /** Workload size (0 = the workload's defaultSize). */
    int64_t size = 0;
    /**
     * Seed of the hash and ASLR seeds: the first two draws of
     * SplitMix64(seed), not the runner's per-invocation deriveSeed
     * chain: a profile's VM seeds differ from those of every
     * invocation of a run with the same seed.
     */
    uint64_t seed = 0xc0ffee;
    /** JIT hot threshold (adaptive tier). */
    int jitThreshold = kDefaultJitThreshold;
};

/** One opcode's aggregated dynamic profile. */
struct OpProfileEntry
{
    vm::Op op = vm::Op::Nop;
    /** Dynamic execution count. */
    uint64_t count = 0;
    /** Micro-ops attributed to this opcode (incl. dispatch). */
    uint64_t uops = 0;
    /** Executions that went through interpreter dispatch. The rest
     *  ran inside compiled (JIT-model) code. */
    uint64_t dispatched = 0;
    /** Share of the run's total micro-ops, in percent. */
    double uopsPercent = 0.0;
};

/** One static branch site's aggregated outcome counts. */
struct BranchSiteEntry
{
    uint64_t site = 0;        ///< (codeId << 20) | pc
    std::string location;     ///< "function+pc"
    uint64_t count = 0;
    uint64_t taken = 0;
};

/** One bytecode site's aggregated allocations. */
struct AllocSiteEntry
{
    uint64_t site = 0;
    std::string location;
    uint64_t count = 0;
    uint64_t bytes = 0;
};

/** Everything one profiling invocation learned. */
struct ProfileResult
{
    std::string workload;
    vm::Tier tier = vm::Tier::Adaptive;
    int64_t size = 0;
    int iterations = 0;

    uint64_t totalBytecodes = 0;
    uint64_t totalUops = 0;
    uint64_t jitCompiles = 0;
    uint64_t guardFailures = 0;

    /** Executed opcodes, sorted by uops descending. */
    std::vector<OpProfileEntry> ops;
    /** Branch sites, sorted by execution count descending. */
    std::vector<BranchSiteEntry> branchSites;
    /** Allocation sites, sorted by bytes descending. */
    std::vector<AllocSiteEntry> allocSites;
};

/** Profile one workload (a single fresh VM invocation). */
ProfileResult profileWorkload(const workloads::WorkloadSpec &spec,
                              const ProfileConfig &config);

/** Convenience: look up the workload by name and profile it. */
ProfileResult profileWorkload(const std::string &workload_name,
                              const ProfileConfig &config);

/**
 * Render the profile as the CLI prints it: a flat per-opcode table
 * (count, uops, % of total uops, tier split) followed by the top
 * `top_sites` branch and allocation sites.
 */
std::string renderProfile(const ProfileResult &profile,
                          int top_sites = 10);

} // namespace harness
} // namespace rigor

#endif // RIGOR_HARNESS_PROFILE_HH

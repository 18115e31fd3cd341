/**
 * @file
 * Golden modelled counters: every CounterSet field of every workload
 * on every tier, after runModule() plus two iterations at test size
 * with fixed seeds, hashed with FNV-1a and pinned as constants.
 *
 * This is the tier-1 form of the byte-identity contract: a host-side
 * optimization of the VM or the uarch model must leave every modelled
 * counter as it was. A change that moves a modelled byte on purpose
 * updates these constants in the same commit; the failure message
 * prints the new table row.
 */

#include <gtest/gtest.h>

#include <string>

#include "harness/runner.hh"
#include "support/fingerprint.hh"
#include "support/logging.hh"
#include "uarch/counters.hh"
#include "uarch/perf_model.hh"
#include "vm/compiler.hh"
#include "vm/interp.hh"
#include "workloads/workloads.hh"

namespace rigor {
namespace {

// Seventeen uint64_t counters: adding a field must extend the hash.
static_assert(sizeof(uarch::CounterSet) == 17 * sizeof(uint64_t),
              "hash every CounterSet field in countersText()");

/** Canonical text of every counter, in declaration order. */
std::string
countersText(const uarch::CounterSet &c)
{
    const std::pair<const char *, uint64_t> fields[] = {
        {"bytecodes", c.bytecodes},
        {"instructions", c.instructions},
        {"cycles", c.cycles},
        {"branches", c.branches},
        {"branchMisses", c.branchMisses},
        {"dispatches", c.dispatches},
        {"dispatchMisses", c.dispatchMisses},
        {"loads", c.loads},
        {"stores", c.stores},
        {"l1dAccesses", c.l1dAccesses},
        {"l1dMisses", c.l1dMisses},
        {"l1iAccesses", c.l1iAccesses},
        {"l1iMisses", c.l1iMisses},
        {"l2Misses", c.l2Misses},
        {"llcMisses", c.llcMisses},
        {"allocations", c.allocations},
        {"allocatedBytes", c.allocatedBytes},
    };
    std::string out;
    for (const auto &[name, value] : fields)
        out += strprintf("%s=%llu\n", name,
                         static_cast<unsigned long long>(value));
    return out;
}

/** Run one workload on one tier the way the runner configures it. */
uarch::CounterSet
modelledCounters(const workloads::WorkloadSpec &spec, vm::Tier tier)
{
    vm::Program prog = vm::compileSource(spec.source, spec.name);
    vm::InterpConfig icfg;
    icfg.tier = tier;
    icfg.jitThreshold = 10;  // low enough that adaptive compiles
    icfg.hashSeed = 0x243f6a8885a308d3ULL;
    icfg.aslrSeed = 0x13198a2e03707344ULL;
    icfg.captureOutput = false;
    uarch::PerfModelConfig ucfg;
    if (tier == vm::Tier::Threaded) {
        icfg.dispatchUops = harness::kThreadedDispatchUops;
        ucfg.dispatchHistoryOps = harness::kThreadedDispatchHistoryOps;
    }
    uarch::PerfModel model(ucfg);
    vm::Interp interp(prog, icfg, &model);
    interp.runModule();
    for (int it = 0; it < 2; ++it)
        interp.callGlobal("run", {vm::Value::makeInt(spec.testSize)});
    return model.snapshot();
}

struct Golden
{
    const char *workload;
    uint64_t interp;
    uint64_t adaptive;
    uint64_t threaded;
};

// Recorded with the list-of-structs cache model, before the packed
// MRU-ordered sets replaced it; they hold unchanged for both. See the
// file comment before changing a value.
constexpr Golden kGolden[] = {
    {"richards", 0x540c7d8f0ceeec51ULL, 0x8d43b5ff3139900fULL, 0x9a91fa50462e2556ULL},
    {"deltablue", 0xc8d2e415e6bd7b9cULL, 0xb0c67172d628cf7fULL, 0x8a48c19086f9f69eULL},
    {"binary_trees", 0x49dc7fc2bbb353e2ULL, 0x834f805233f7347eULL, 0xcc1b8b2da758ce47ULL},
    {"queens", 0xf656e4193d453ed6ULL, 0xe0d6a17201a2a191ULL, 0xc0b38d4a46006c5dULL},
    {"raytrace", 0xb953759f58644875ULL, 0x0174769e7386be7cULL, 0xb68714a1415cbfb8ULL},
    {"nbody", 0xf139febf56602624ULL, 0x858cf8a66c26dd55ULL, 0xa18ea8facbfdb957ULL},
    {"spectral_norm", 0x9a1d5d7f98504e88ULL, 0x95990eb96cd508faULL, 0xf79978a46baa911aULL},
    {"fannkuch", 0xee4af4a3f4441506ULL, 0xb30d1780fb5576acULL, 0x81b145d7e1080c0cULL},
    {"chaos", 0xc10d546f0889c9dbULL, 0x696aa08278167933ULL, 0xe2eaa23740f1658eULL},
    {"sieve", 0x0bc15e198345ff11ULL, 0x42e4103b0a500057ULL, 0xc9f87a006707df72ULL},
    {"fasta", 0xd5d67f3069a48d58ULL, 0x6fad25ec4ce7adbeULL, 0x2b7165e569fbb043ULL},
    {"json_encode", 0xc48a7b6b1c352a9dULL, 0x4268d9680a70629bULL, 0xa1af42eda7c81da7ULL},
    {"string_ops", 0x1cda4061d4666f81ULL, 0x591003e5f140fd30ULL, 0x869a64c284ad2269ULL},
    {"hashtable", 0xfc80f5c55d512ff0ULL, 0x6e2fd0dcff3441b5ULL, 0x5eaef2446cb06f21ULL},
    {"scimark_sor", 0xb44c4cc5cbdbb4b1ULL, 0x60f6505720298153ULL, 0xe33a713e69e8aebcULL},
    {"go_playout", 0xf7c1e38dfc678aebULL, 0x2f87382e8944f967ULL, 0xbb82a64a9906056dULL},
    {"regex", 0x37577cd340124403ULL, 0x69428ee8ae8bd976ULL, 0xdf497a9ba693b147ULL},
    {"lz_compress", 0x442036dde474163bULL, 0x979990b369907289ULL, 0xc0055d17d194569cULL},
    {"validator", 0x5239050dfc79da03ULL, 0x9bb9fc42363ecf7dULL, 0xc95d2ccb2baee8c9ULL},
};

class GoldenCounters : public ::testing::TestWithParam<size_t>
{
};

TEST_P(GoldenCounters, EveryCounterMatchesTheRecordedHash)
{
    const workloads::WorkloadSpec &spec =
        workloads::suite().at(GetParam());
    const Golden *golden = nullptr;
    for (const Golden &g : kGolden)
        if (spec.name == g.workload)
            golden = &g;
    uint64_t got[3];
    const vm::Tier tiers[] = {vm::Tier::Interp, vm::Tier::Adaptive,
                              vm::Tier::Threaded};
    for (int t = 0; t < 3; ++t)
        got[t] = fnv1a64(countersText(modelledCounters(spec, tiers[t])));
    std::string row = strprintf(
        "    {\"%s\", 0x%016llxULL, 0x%016llxULL, 0x%016llxULL},",
        spec.name.c_str(), static_cast<unsigned long long>(got[0]),
        static_cast<unsigned long long>(got[1]),
        static_cast<unsigned long long>(got[2]));
    ASSERT_NE(golden, nullptr) << "no golden row; measured:\n" << row;
    EXPECT_EQ(got[0], golden->interp) << row;
    EXPECT_EQ(got[1], golden->adaptive) << row;
    EXPECT_EQ(got[2], golden->threaded) << row;
}

INSTANTIATE_TEST_SUITE_P(
    Suite, GoldenCounters,
    ::testing::Range<size_t>(0, workloads::suite().size()),
    [](const ::testing::TestParamInfo<size_t> &info) {
        return workloads::suite()[info.param].name;
    });

} // namespace
} // namespace rigor

/**
 * @file
 * Differential-profiling tests: behavior-profile round-trips and
 * accounting invariants on real runs, golden attribution values on
 * hand-built profiles, byte-identity of explain reports across
 * repeats and --jobs values, loud degradation on profile-less
 * (legacy v1) entries, and the gate's worst-regression-first order.
 */

#include <cstdlib>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "archive/archive.hh"
#include "compare/compare.hh"
#include "explain/behavior_profile.hh"
#include "explain/explain.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "support/durable_io.hh"
#include "support/fingerprint.hh"
#include "support/logging.hh"
#include "support/schema.hh"
#include "workloads/workloads.hh"

namespace rigor {
namespace explain {
namespace {

/** Fresh scratch directory, removed on destruction. */
class ScratchDir
{
  public:
    ScratchDir()
    {
        char tmpl[] = "/tmp/rigor_explain_XXXXXX";
        const char *d = ::mkdtemp(tmpl);
        EXPECT_NE(d, nullptr);
        dir_ = d ? d : ".";
    }

    ~ScratchDir()
    {
        std::string cmd = "rm -rf '" + dir_ + "'";
        int rc = std::system(cmd.c_str());
        (void)rc;
    }

    const std::string &dir() const { return dir_; }

    std::string path(const std::string &name) const
    {
        return dir_ + "/" + name;
    }

  private:
    std::string dir_;
};

/** Small real experiment on the named workload. */
harness::RunnerConfig
smallConfig(vm::Tier tier, const char *workload)
{
    harness::RunnerConfig cfg;
    cfg.invocations = 3;
    cfg.iterations = 8;
    cfg.tier = tier;
    cfg.jitThreshold = 200;
    cfg.seed = 0xabc;
    cfg.size = workloads::findWorkload(workload).testSize;
    return cfg;
}

/** Fabricated run with perfectly flat times: mean-of-means = baseMs. */
harness::RunResult
makeFlatRun(const std::string &workload, vm::Tier tier,
            double baseMs, int invocations = 2, int iterations = 5)
{
    harness::RunResult run;
    run.workload = workload;
    run.tier = tier;
    run.size = 10;
    for (int inv = 0; inv < invocations; ++inv) {
        harness::InvocationResult ir;
        ir.invocationSeed = 100 + inv;
        for (int it = 0; it < iterations; ++it) {
            harness::IterationSample s;
            s.timeMs = baseMs;
            ir.samples.push_back(s);
        }
        run.invocations.push_back(ir);
    }
    run.invocationsAttempted = invocations;
    return run;
}

archive::Entry
makeEntry(int id, const std::string &fingerprint,
          std::vector<harness::RunResult> runs,
          std::vector<Json> profiles = {})
{
    archive::Entry e;
    e.summary.id = id;
    e.summary.fingerprint = fingerprint;
    e.summary.command = "run";
    e.summary.runCount = static_cast<int>(runs.size());
    e.config = Json::object();
    e.runs = std::move(runs);
    e.profiles = std::move(profiles);
    return e;
}

TEST(Profile, RoundTripPreservesEveryField)
{
    auto cfg = smallConfig(vm::Tier::Adaptive, "sieve");
    harness::RunResult run = harness::runExperiment("sieve", cfg);
    BehaviorProfile p = buildProfile(run, cfg);

    BehaviorProfile q = profileFromJson(profileToJson(p));
    EXPECT_EQ(q.workload, p.workload);
    EXPECT_EQ(q.tier, p.tier);
    EXPECT_EQ(q.invocations, p.invocations);
    EXPECT_EQ(q.iterations, p.iterations);
    EXPECT_EQ(q.vm.bytecodes, p.vm.bytecodes);
    EXPECT_EQ(q.vm.uops, p.vm.uops);
    EXPECT_EQ(q.vm.guardFailures, p.vm.guardFailures);
    EXPECT_EQ(q.vm.jitCompiles, p.vm.jitCompiles);
    EXPECT_EQ(q.vm.jitCompileUops, p.vm.jitCompileUops);
    ASSERT_EQ(q.ops.size(), p.ops.size());
    for (size_t i = 0; i < p.ops.size(); ++i) {
        EXPECT_EQ(q.ops[i].op, p.ops[i].op);
        EXPECT_EQ(q.ops[i].count, p.ops[i].count);
        EXPECT_EQ(q.ops[i].uops, p.ops[i].uops);
        EXPECT_EQ(q.ops[i].dispatched, p.ops[i].dispatched);
        EXPECT_EQ(q.ops[i].guardFailures, p.ops[i].guardFailures);
    }
    EXPECT_EQ(q.counters.instructions, p.counters.instructions);
    EXPECT_EQ(q.counters.l1dMisses, p.counters.l1dMisses);
    EXPECT_DOUBLE_EQ(q.model.issueWidth, p.model.issueWidth);
    EXPECT_DOUBLE_EQ(q.model.cyclesPerMs, p.model.cyclesPerMs);
    // Serializing the parsed profile again must be byte-identical:
    // the round-trip loses nothing the attribution arithmetic uses.
    EXPECT_EQ(profileToJson(q).dump(2), profileToJson(p).dump(2));
}

TEST(Profile, PerOpAccountingSumsToVmTotals)
{
    // The per-opcode breakdown must tile the VM totals exactly:
    // uops = per-op uops (dispatch overhead included) + JIT-compile
    // uops, and the same for dynamic counts and guard failures. A
    // JIT-active adaptive run exercises all three terms.
    auto cfg = smallConfig(vm::Tier::Adaptive, "richards");
    harness::RunResult run = harness::runExperiment("richards", cfg);
    BehaviorProfile p = buildProfile(run, cfg);
    ASSERT_GT(p.vm.jitCompiles, 0u);

    uint64_t count = 0, uops = 0, dispatched = 0, guards = 0;
    for (const auto &op : p.ops) {
        count += op.count;
        uops += op.uops;
        dispatched += op.dispatched;
        guards += op.guardFailures;
        EXPECT_LE(op.dispatched, op.count) << op.op;
    }
    EXPECT_EQ(count, p.vm.bytecodes);
    EXPECT_EQ(uops + p.vm.jitCompileUops, p.vm.uops);
    EXPECT_EQ(guards, p.vm.guardFailures);
    // The JIT ran, so part of the execution skipped dispatch.
    EXPECT_LT(dispatched, count);
}

TEST(Profile, PureFunctionOfTheRun)
{
    auto cfg = smallConfig(vm::Tier::Adaptive, "sieve");
    harness::RunResult run = harness::runExperiment("sieve", cfg);
    std::string a = profileToJson(buildProfile(run, cfg)).dump(2);
    std::string b = profileToJson(buildProfile(run, cfg)).dump(2);
    EXPECT_EQ(a, b);
}

TEST(Profile, ByteIdenticalAcrossJobs)
{
    // RunResults commit in invocation order regardless of --jobs, so
    // the profile built from them must not differ by a byte either.
    auto cfg1 = smallConfig(vm::Tier::Adaptive, "sieve");
    cfg1.jobs = 1;
    auto cfg4 = cfg1;
    cfg4.jobs = 4;
    harness::RunResult r1 = harness::runExperiment("sieve", cfg1);
    harness::RunResult r4 = harness::runExperiment("sieve", cfg4);
    EXPECT_EQ(profileToJson(buildProfile(r1, cfg1)).dump(2),
              profileToJson(buildProfile(r4, cfg4)).dump(2));
}

/** Hand-built profile with clean numbers for golden attribution. */
BehaviorProfile
goldenProfile(uint64_t instructions, uint64_t guardFailures,
              uint64_t branchMisses, uint64_t l1dMisses)
{
    BehaviorProfile p;
    p.workload = "sieve";
    p.tier = vm::tierName(vm::Tier::Interp);
    p.invocations = 2;
    p.iterations = 10;
    p.vm.guardFailures = guardFailures;
    p.counters.instructions = instructions;
    p.counters.branchMisses = branchMisses;
    p.counters.l1dAccesses = 1000000;
    p.counters.l1dMisses = l1dMisses;
    p.model.issueWidth = 4.0;
    p.model.branchMissPenalty = 14;
    p.model.dispatchMissPenalty = 18;
    p.model.memOverlapFactor = 0.45;
    p.model.l1iMissPenalty = 10;
    p.model.l2HitCycles = 12;
    p.model.llcHitCycles = 40;
    p.model.dramCycles = 180;
    p.model.cyclesPerMs = 1.0e6;
    return p;
}

TEST(Explain, GoldenAttributionOnHandBuiltProfiles)
{
    // Anchor: baseline 1.0 ms at 1e6 cycles/ms = 1e6 cycles/iter.
    //   opcode-mix: (4.4e6 - 4.0e6)/4 / 10 iters = 10,000 cyc/iter
    //               -> +1.00% of the anchor
    //   tier/deopt: 10,000 guards * 14 / 10 = 14,000 -> +1.40%
    //   branch:     5,000 misses * 14 / 10 =  7,000 -> +0.70%
    //   cache:      0.45 * 1,000 L2 hits * 12 / 10 =   540 -> +0.054%
    //   measured:   1.08/1.00 - 1 = +8.00%
    //   unattributed = 8.00 - 3.154 = +4.846%
    auto baseRun = makeFlatRun("sieve", vm::Tier::Interp, 1.0);
    auto candRun = makeFlatRun("sieve", vm::Tier::Interp, 1.08);
    auto pa = goldenProfile(4000000, 0, 0, 0);
    auto pb = goldenProfile(4400000, 10000, 5000, 1000);
    auto base =
        makeEntry(1, "fp-a", {baseRun}, {profileToJson(pa)});
    auto cand =
        makeEntry(2, "fp-b", {candRun}, {profileToJson(pb)});

    compare::CompareConfig cc;
    auto report = compare::compareEntries(base, cand, cc);
    auto ex = explainEntries(base, cand, report);
    ASSERT_EQ(ex.pairs.size(), 1u);
    const PairExplanation &pe = ex.pairs[0];
    ASSERT_TRUE(pe.hasProfiles);
    EXPECT_NEAR(pe.measuredPct, 8.0, 1e-9);

    ASSERT_EQ(pe.components.size(), 4u);
    // Ranked by |contribution|: tier/deopt, opcode-mix, branch, cache.
    EXPECT_EQ(pe.components[0].name, "tier/deopt");
    EXPECT_NEAR(pe.components[0].contributionPct, 1.40, 1e-9);
    EXPECT_EQ(pe.components[1].name, "opcode-mix");
    EXPECT_NEAR(pe.components[1].contributionPct, 1.00, 1e-9);
    EXPECT_EQ(pe.components[2].name, "branch");
    EXPECT_NEAR(pe.components[2].contributionPct, 0.70, 1e-9);
    EXPECT_EQ(pe.components[3].name, "cache");
    EXPECT_NEAR(pe.components[3].contributionPct, 0.054, 1e-9);
    EXPECT_NEAR(pe.unattributedPct, 4.846, 1e-9);

    // The identity the report promises: components + remainder =
    // measured change, exactly (same denominator throughout).
    double sum = pe.unattributedPct;
    for (const auto &c : pe.components)
        sum += c.contributionPct;
    EXPECT_NEAR(sum, pe.measuredPct, 1e-12);

    // The rendered section must carry the ranked headline.
    std::string md = renderPair(pe);
    EXPECT_NE(md.find("tier/deopt +1.40%"), std::string::npos) << md;
    EXPECT_NE(md.find("unattributed +4.85%"), std::string::npos)
        << md;
    EXPECT_NE(md.find("8.0% slower"), std::string::npos) << md;
}

TEST(Explain, ReportByteIdenticalAcrossRepeats)
{
    auto cfgBase = smallConfig(vm::Tier::Adaptive, "sieve");
    auto cfgCand = cfgBase;
    cfgCand.jitThreshold = 100000000; // de-JIT: a real regression
    harness::RunResult rb = harness::runExperiment("sieve", cfgBase);
    harness::RunResult rc = harness::runExperiment("sieve", cfgCand);
    auto base = makeEntry(
        1, "fp-a", {rb},
        {profileToJson(buildProfile(rb, cfgBase))});
    auto cand = makeEntry(
        2, "fp-b", {rc},
        {profileToJson(buildProfile(rc, cfgCand))});

    compare::CompareConfig cc;
    auto report1 = compare::compareEntries(base, cand, cc);
    auto report2 = compare::compareEntries(base, cand, cc);
    std::string j1 =
        reportToJson(explainEntries(base, cand, report1)).dump(2);
    std::string j2 =
        reportToJson(explainEntries(base, cand, report2)).dump(2);
    EXPECT_EQ(j1, j2);
    std::string m1 = renderMarkdown(explainEntries(base, cand,
                                                   report1));
    std::string m2 = renderMarkdown(explainEntries(base, cand,
                                                   report2));
    EXPECT_EQ(m1, m2);
}

TEST(Explain, SingleInvocationPairsHaveNoInterval)
{
    // Two one-invocation entries of one workload, as `run sieve
    // --invocations 1` at two seeds archives them: the bootstrap sees
    // only iteration jitter, so the report gives no interval.
    auto cfgBase = smallConfig(vm::Tier::Interp, "sieve");
    cfgBase.invocations = 1;
    auto cfgCand = cfgBase;
    cfgCand.seed = 9;
    harness::RunResult rb = harness::runExperiment("sieve", cfgBase);
    harness::RunResult rc = harness::runExperiment("sieve", cfgCand);
    auto base = makeEntry(
        1, "fp-a", {rb}, {profileToJson(buildProfile(rb, cfgBase))});
    auto cand = makeEntry(
        2, "fp-a", {rc}, {profileToJson(buildProfile(rc, cfgCand))});

    auto ex = explainEntries(
        base, cand, compare::compareEntries(base, cand, {}));
    ASSERT_EQ(ex.pairs.size(), 1u);
    const PairExplanation &pe = ex.pairs[0];
    EXPECT_TRUE(pe.hasProfiles);
    EXPECT_FALSE(pe.hasInterval);
    EXPECT_EQ(pe.verdict, "inconclusive");

    Json j = reportToJson(ex);
    const Json &s = j.at("pairs").at(0).at("speedup");
    EXPECT_TRUE(s.has("estimate"));
    EXPECT_FALSE(s.has("lower"));
    EXPECT_FALSE(s.has("upper"));
    std::string md = renderPair(pe);
    EXPECT_NE(md.find(harness::kNoInterval), std::string::npos) << md;

    // With two invocations a side, the interval is back.
    cfgBase.invocations = cfgCand.invocations = 2;
    rb = harness::runExperiment("sieve", cfgBase);
    rc = harness::runExperiment("sieve", cfgCand);
    base = makeEntry(1, "fp-a", {rb});
    cand = makeEntry(2, "fp-a", {rc});
    ex = explainEntries(base, cand,
                        compare::compareEntries(base, cand, {}));
    ASSERT_EQ(ex.pairs.size(), 1u);
    EXPECT_TRUE(ex.pairs[0].hasInterval);
    EXPECT_TRUE(
        reportToJson(ex).at("pairs").at(0).at("speedup").has("lower"));
    EXPECT_EQ(renderPair(ex.pairs[0]).find(harness::kNoInterval),
              std::string::npos);
}

TEST(Explain, LegacyEntryWithoutProfilesDegradesLoudly)
{
    auto baseRun = makeFlatRun("sieve", vm::Tier::Interp, 1.0);
    auto candRun = makeFlatRun("sieve", vm::Tier::Interp, 1.1);
    auto pa = goldenProfile(4000000, 0, 0, 0);
    // Baseline carries a profile; the candidate is a legacy entry.
    auto base =
        makeEntry(1, "fp-a", {baseRun}, {profileToJson(pa)});
    auto cand = makeEntry(2, "fp-b", {candRun});

    compare::CompareConfig cc;
    auto report = compare::compareEntries(base, cand, cc);
    auto ex = explainEntries(base, cand, report);
    ASSERT_EQ(ex.pairs.size(), 1u);
    EXPECT_FALSE(ex.pairs[0].hasProfiles);
    EXPECT_NE(ex.pairs[0].note.find("NO PROFILE CAPTURED"),
              std::string::npos);
    EXPECT_NE(ex.pairs[0].note.find("candidate entry #2"),
              std::string::npos);
    // The measured change is still reported; only attribution is
    // (loudly) unavailable.
    EXPECT_NEAR(ex.pairs[0].measuredPct, 10.0, 1e-9);
    std::string md = renderMarkdown(ex);
    EXPECT_NE(md.find("NO PROFILE CAPTURED"), std::string::npos);
    EXPECT_NE(md.find("unexplained (no profile captured)"),
              std::string::npos);

    Json j = reportToJson(ex);
    EXPECT_FALSE(
        j.at("pairs").at(size_t{0}).at("has_profiles").asBool());
}

TEST(Explain, FindPairLocatesByWorkloadAndTier)
{
    ExplainReport r;
    PairExplanation a;
    a.workload = "sieve";
    a.tier = "interp";
    r.pairs.push_back(a);
    EXPECT_NE(findPair(r, "sieve", "interp"), nullptr);
    EXPECT_EQ(findPair(r, "sieve", "jit"), nullptr);
    EXPECT_EQ(findPair(r, "queens", "interp"), nullptr);
}

TEST(Archive, ProfilesRoundTripAlignedWithRuns)
{
    ScratchDir scratch;
    archive::RunArchive ar(scratch.dir());
    auto cfg = smallConfig(vm::Tier::Interp, "sieve");
    harness::RunResult run = harness::runExperiment("sieve", cfg);
    Json profile = profileToJson(buildProfile(run, cfg));

    Json config = Json::object();
    config.set("seed", "0xabc");
    ar.append(config, "with", "run", {run}, {profile});
    ar.append(config, "without", "run", {run});

    archive::ScanResult scan = ar.scan();
    ASSERT_EQ(scan.entries.size(), 2u);
    EXPECT_EQ(scan.entries[0].profileCount, 1);
    EXPECT_EQ(scan.entries[1].profileCount, 0);
    EXPECT_GT(scan.entries[0].sizeBytes, 0u);
    // The profiled entry is strictly larger on disk.
    EXPECT_GT(scan.entries[0].sizeBytes, scan.entries[1].sizeBytes);

    archive::Entry with = ar.load(scan.entries[0]);
    ASSERT_EQ(with.profiles.size(), 1u);
    EXPECT_FALSE(with.profiles[0].isNull());
    BehaviorProfile p = profileFromJson(with.profiles[0]);
    EXPECT_EQ(p.workload, "sieve");

    archive::Entry without = ar.load(scan.entries[1]);
    EXPECT_TRUE(without.profiles.empty());
}

TEST(Archive, MisalignedProfilesAreRejected)
{
    ScratchDir scratch;
    archive::RunArchive ar(scratch.dir());
    auto run = makeFlatRun("sieve", vm::Tier::Interp, 1.0);
    Json config = Json::object();
    EXPECT_THROW(ar.append(config, "", "run", {run},
                           {Json(), Json()}),
                 FatalError);
}

TEST(Archive, LegacyV1EntryStillLoads)
{
    // A v1 entry written by the previous archive format: no
    // "profiles" array at all. It must scan (profile count 0) and
    // load (empty profiles) without complaint — explain handles the
    // degradation, the archive layer must not reject history.
    ScratchDir scratch;
    Json config = Json::object();
    config.set("seed", "0xabc");
    Json payload = Json::object();
    payload.set("schema", kArchiveEntrySchema);
    payload.set("version", static_cast<int64_t>(1));
    payload.set("fingerprint", fingerprintJson(config));
    payload.set("command", "run");
    payload.set("config", config);
    Json rs = Json::array();
    rs.push(harness::runToJson(
        makeFlatRun("sieve", vm::Tier::Interp, 1.0)));
    payload.set("runs", std::move(rs));
    writeStateFile(scratch.path("entry-000001.json"), payload);

    archive::RunArchive ar(scratch.dir());
    archive::ScanResult scan = ar.scan();
    ASSERT_EQ(scan.entries.size(), 1u);
    EXPECT_TRUE(scan.quarantined.empty());
    EXPECT_EQ(scan.entries[0].profileCount, 0);
    archive::Entry e = ar.load(scan.entries[0]);
    ASSERT_EQ(e.runs.size(), 1u);
    EXPECT_TRUE(e.profiles.empty());
}

TEST(Archive, FutureEntryVersionIsSkippedInPlace)
{
    ScratchDir scratch;
    Json config = Json::object();
    Json payload = Json::object();
    payload.set("schema", kArchiveEntrySchema);
    payload.set("version",
                static_cast<int64_t>(kArchiveEntryVersion + 1));
    payload.set("fingerprint", fingerprintJson(config));
    payload.set("command", "run");
    payload.set("config", config);
    payload.set("runs", Json::array());
    std::string path = scratch.path("entry-000001.json");
    writeStateFile(path, payload);

    archive::RunArchive ar(scratch.dir());
    // The healthy-but-newer entry is not damage: the scan skips it
    // with a warning and leaves the newer build's data untouched.
    archive::ScanResult scan = ar.scan();
    EXPECT_TRUE(scan.entries.empty());
    EXPECT_TRUE(scan.quarantined.empty());
    EXPECT_EQ(::access(path.c_str(), F_OK), 0);
}

TEST(Gate, RegressionsOrderedWorstFirst)
{
    // Two regressed pairs of very different magnitude; the gate must
    // lead with the worst one regardless of alphabetical order.
    auto base = makeEntry(1, "fp",
                          {makeFlatRun("aaa", vm::Tier::Interp, 1.0),
                           makeFlatRun("zzz", vm::Tier::Interp, 1.0)});
    auto cand = makeEntry(2, "fp",
                          {makeFlatRun("aaa", vm::Tier::Interp, 1.2),
                           makeFlatRun("zzz", vm::Tier::Interp, 1.5)});
    compare::CompareConfig cc;
    auto report = compare::compareEntries(base, cand, cc);
    auto gate = compare::evaluateGate(report, 5.0);
    ASSERT_FALSE(gate.pass);
    ASSERT_EQ(gate.regressions.size(), 2u);
    EXPECT_EQ(gate.regressions[0].workload, "zzz");
    EXPECT_EQ(gate.regressions[1].workload, "aaa");
    EXPECT_GT(gate.regressions[0].slowdownPct,
              gate.regressions[1].slowdownPct);
    // The one-line summary names the worst pair with its tier.
    std::string txt = compare::renderGate(gate, report);
    EXPECT_NE(txt.find("worst: zzz/interp"), std::string::npos)
        << txt;
}

} // namespace
} // namespace explain
} // namespace rigor

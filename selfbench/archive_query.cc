/**
 * @file
 * The archive-query workload: set-up measures a pool of seeded runs
 * under two configurations and appends them as ~50 archive entries;
 * each round is one closed-loop client running a fixed, seeded mix of
 * compare, gate, explain, fsck (no repair) and list. Stats bootstrap,
 * JSON parsing and archive scan/load do the work; the VM does none.
 *
 * Queries go through the same steps serve::runQuery takes (resolve
 * both refs, compareEntries, then render / gate / explainEntries), with
 * a span around each step; finish() checks every rendered report
 * against serve::runQuery itself.
 */

#include <algorithm>
#include <filesystem>

#include "archive/archive.hh"
#include "archive/fsck.hh"
#include "bench.hh"
#include "compare/compare.hh"
#include "explain/behavior_profile.hh"
#include "explain/explain.hh"
#include "harness/runner.hh"
#include "serve/jobrun.hh"
#include "stats/ci.hh"
#include "support/durable_io.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/schema.hh"

namespace fs = std::filesystem;

namespace selfbench {

namespace {

struct Query
{
    std::string kind;  ///< compare, gate, explain, fsck, list
    int base = 0;
    int cand = 0;
};

class ArchiveQueryWorkload : public Workload
{
  public:
    explicit ArchiveQueryWorkload(const Options &opts)
        : opts_(opts), dir_(opts.workDir + "/query-archive"),
          entries_(opts.smoke ? 6 : 50)
    {}

    void
    setup() override
    {
        ScopedSpan span("setup.archive_query");
        fs::remove_all(dir_);
        // Run-sets: seeds x {default JIT threshold, eager JIT}; the
        // second configuration changes the adaptive tier, so pairs
        // across configurations really differ.
        const int seeds = opts_.smoke ? 1 : 3;
        std::vector<rigor::serve::JobSpec> specs;
        std::vector<std::vector<rigor::harness::RunResult>> pool;
        for (int s = 0; s < seeds; ++s) {
            for (int jit : {rigor::harness::kDefaultJitThreshold, 400}) {
                rigor::serve::JobSpec spec;
                spec.command = "suite";
                spec.invocations = 3;
                spec.iterations = 4;
                spec.seed = mixSeed(opts_.seed, 10 + s);
                spec.jitThreshold = jit;
                spec.quiet = true;
                std::vector<rigor::harness::RunResult> runs;
                for (const char *name : {"richards", "nbody", "fasta"}) {
                    const auto &w = rigor::workloads::findWorkload(name);
                    for (auto tier : {rigor::vm::Tier::Interp,
                                      rigor::vm::Tier::Adaptive,
                                      rigor::vm::Tier::Threaded}) {
                        auto cfg = rigor::serve::makeRunnerConfig(
                            spec, tier, nullptr, nullptr, nullptr);
                        cfg.size = w.testSize;
                        ScopedSpan r("setup.run_experiment");
                        runs.push_back(
                            rigor::harness::runExperiment(w, cfg));
                    }
                }
                specs.push_back(spec);
                pool.push_back(std::move(runs));
            }
        }
        std::vector<std::vector<rigor::Json>> profiles(pool.size());
        for (size_t p = 0; p < pool.size(); ++p) {
            ScopedSpan s("explain.build_profile");
            for (const auto &r : pool[p]) {
                auto cfg = rigor::serve::makeRunnerConfig(
                    specs[p], r.tier, nullptr, nullptr, nullptr);
                profiles[p].push_back(rigor::explain::profileToJson(
                    rigor::explain::buildProfile(r, cfg)));
            }
        }
        rigor::archive::RunArchive ar(dir_);
        for (int i = 0; i < entries_; ++i) {
            size_t p = static_cast<size_t>(i) % pool.size();
            rigor::Json config = rigor::serve::configJson(specs[p]);
            config.set("schema_version", rigor::kRunSchemaVersion);
            ScopedSpan s("archive.append");
            ar.append(config,
                      specs[p].jitThreshold == 400 ? "eager-jit"
                                                   : "default-jit",
                      "suite", pool[p], profiles[p]);
        }
    }

    /** A set-up takes about 0.5 s; more of them steady the median. */
    int setupRepeats() const override { return 7; }

    void
    prepare() override
    {
        // A fixed, seeded query mix: every round runs the same one.
        rigor::Rng rng(mixSeed(opts_.seed, 20));
        auto pick = [&]() {
            return static_cast<int>(rng.nextBounded(
                       static_cast<uint64_t>(entries_))) +
                1;
        };
        queries_.clear();
        for (const char *kind : {"compare", "compare", "compare",
                                 "compare", "gate", "gate", "explain",
                                 "explain", "fsck", "list"}) {
            Query q;
            q.kind = kind;
            q.base = pick();
            do
                q.cand = pick();
            while (q.cand == q.base);
            queries_.push_back(q);
        }
        rng.shuffle(queries_);
    }

    void
    round() override
    {
        std::string all;
        for (size_t i = 0; i < queries_.size(); ++i) {
            const Query &q = queries_[i];
            double t0 = nowSeconds();
            std::string text;
            try {
                text = runOne(q);
            } catch (const std::exception &e) {
                out.errors.push_back(q.kind + " failed: " + e.what());
                ++out.failed;
            }
            double ms = (nowSeconds() - t0) * 1e3;
            out.addOp(std::to_string(i) + ":" + q.kind, ms);
            recorder().sample("query_ms", ms);
            ++out.attempted;
            all += text;
        }
        std::string d = digestHex(all);
        if (out.digest.empty())
            out.digest = d;
        else if (d != out.digest)
            out.errors.push_back(
                "query results differ between rounds of the same mix");
    }

    void
    finish(const std::vector<double> &roundWall) override
    {
        double total = 0.0;
        for (double w : roundWall)
            total += w;
        addLatencyMetrics(out, "query", out.opMs);
        out.extra["queries_per_s"] = {
            total > 0 ? static_cast<double>(roundWall.size() *
                                             queries_.size()) /
                    total
                      : 0.0,
            "1/s"};
        // The instrumented steps must render exactly what the
        // serve::runQuery path (CLI and daemon) renders.
        for (const auto &q : queries_) {
            if (q.kind == "fsck" || q.kind == "list")
                continue;
            rigor::serve::QuerySpec spec = querySpec(q);
            std::string expected = rigor::serve::runQuery(spec).text;
            if (expected != runOne(q))
                out.errors.push_back(q.kind +
                                     " report differs from "
                                     "serve::runQuery's");
        }
        if (recorder().enabled()) {
            measureJsonParse();
            measureBootstrap();
        }
        std::string err = checkRecordedDigest(
            opts_,
            rigor::strprintf("archive-query-%llu-%d",
                             static_cast<unsigned long long>(opts_.seed),
                             entries_),
            out.digest);
        if (!err.empty())
            out.errors.push_back(err);
    }

    void teardown() override { fs::remove_all(dir_); }

  private:
    rigor::serve::QuerySpec
    querySpec(const Query &q) const
    {
        rigor::serve::QuerySpec spec;
        spec.kind = q.kind;
        spec.baseRef = std::to_string(q.base);
        spec.candRef = std::to_string(q.cand);
        spec.archiveDir = dir_;
        spec.seed = mixSeed(opts_.seed, 21);
        return spec;
    }

    /** RunArchive::resolve for an id, split into scan and load. */
    rigor::archive::Entry
    resolve(const rigor::archive::RunArchive &ar, int id)
    {
        rigor::archive::ScanResult scan;
        {
            ScopedSpan s("archive.scan");
            scan = ar.scan();
        }
        for (const auto &e : scan.entries) {
            if (e.id != id)
                continue;
            recorder().sample("archive.entry_bytes",
                              static_cast<double>(e.sizeBytes));
            ScopedSpan s("archive.load");
            return ar.load(e);
        }
        throw std::runtime_error("no archive entry #" +
                                 std::to_string(id));
    }

    /** One query; returns what it prints (paths left out). */
    std::string
    runOne(const Query &q)
    {
        rigor::archive::RunArchive ar(dir_);
        if (q.kind == "fsck") {
            rigor::archive::FsckReport rep;
            {
                ScopedSpan s("archive.fsck");
                rep = rigor::archive::fsckArchive(dir_, false);
            }
            // Rendered as the CLI prints it; the text names the
            // directory, so only the counts enter the digest.
            rigor::archive::renderFsck(rep);
            if (!rep.clean() || rep.entriesOk != entries_)
                throw std::runtime_error("fsck reports damage");
            return rigor::strprintf("fsck ok %d\n", rep.entriesOk);
        }
        if (q.kind == "list") {
            rigor::archive::ScanResult scan;
            {
                ScopedSpan s("archive.scan");
                scan = ar.scan();
            }
            std::string text;
            for (const auto &e : scan.entries)
                text += rigor::strprintf("#%d %s %s %d runs %llu bytes\n",
                                         e.id, e.label.c_str(),
                                         e.fingerprint.c_str(), e.runCount,
                                         static_cast<unsigned long long>(
                                             e.sizeBytes));
            if (static_cast<int>(scan.entries.size()) != entries_)
                throw std::runtime_error("list lost entries");
            return text;
        }
        rigor::serve::QuerySpec spec = querySpec(q);
        rigor::compare::CompareConfig cfg;
        cfg.confidence = spec.confidence;
        cfg.resamples = spec.resamples;
        cfg.seed = spec.seed;
        rigor::archive::Entry base = resolve(ar, q.base);
        rigor::archive::Entry cand = resolve(ar, q.cand);
        rigor::compare::CompareReport report;
        {
            ScopedSpan s("compare.entries");
            report = rigor::compare::compareEntries(base, cand, cfg);
        }
        report.baselineRef = spec.baseRef;
        report.candidateRef = spec.candRef;
        if (q.kind == "compare") {
            ScopedSpan s("compare.render");
            rigor::compare::reportToJson(report);
            return rigor::compare::renderMarkdown(report);
        }
        if (q.kind == "explain") {
            rigor::explain::ExplainReport ex;
            {
                ScopedSpan s("explain.entries");
                ex = rigor::explain::explainEntries(base, cand, report);
            }
            ScopedSpan s("explain.render");
            rigor::explain::reportToJson(ex);
            return rigor::explain::renderMarkdown(ex);
        }
        auto gate = rigor::compare::evaluateGate(report,
                                                 spec.gateThresholdPct);
        ScopedSpan s("compare.render");
        rigor::compare::reportToJson(report);
        return rigor::compare::renderGate(gate, report);
    }

    /** support.json_parse: Json::parse over every entry file. */
    void
    measureJsonParse()
    {
        rigor::archive::RunArchive ar(dir_);
        for (const auto &e : ar.scan().entries) {
            std::string text;
            if (!rigor::readFile(e.path, text))
                continue;
            {
                ScopedSpan s("support.json_parse");
                rigor::Json::parse(text);
            }
            recorder().count("support.json_parse_bytes",
                             static_cast<double>(text.size()));
        }
    }

    /**
     * stats.bootstrap: the hierarchical bootstrap compareEntries runs,
     * on the run pairs of every compare query in the mix.
     */
    void
    measureBootstrap()
    {
        rigor::archive::RunArchive ar(dir_);
        rigor::Rng rng(mixSeed(opts_.seed, 22));
        const int resamples = 2000;
        for (const auto &q : queries_) {
            if (q.kind != "compare")
                continue;
            auto base = ar.resolve(std::to_string(q.base));
            auto cand = ar.resolve(std::to_string(q.cand));
            size_t n = std::min(base.runs.size(), cand.runs.size());
            for (size_t i = 0; i < n; ++i) {
                auto a = base.runs[i].series(), b = cand.runs[i].series();
                ScopedSpan s("stats.bootstrap");
                rigor::stats::hierarchicalRatioInterval(a, b, rng, 0.95,
                                                        resamples);
                recorder().count("stats.resamples", resamples);
            }
        }
    }

    Options opts_;
    std::string dir_;
    int entries_;
    std::vector<Query> queries_;
};

} // namespace

std::unique_ptr<Workload>
makeArchiveQueryWorkload(const Options &opts)
{
    return std::make_unique<ArchiveQueryWorkload>(opts);
}

} // namespace selfbench

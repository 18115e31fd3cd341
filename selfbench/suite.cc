/**
 * @file
 * The suite workloads: the `rigorbench suite` design (every workload x
 * every tier at its default size, then the rigorous estimates and the
 * speedup table), executed through serve::executeJob, the path the CLI
 * and the daemon share. suite-serial runs it at --jobs 1 with no
 * artifacts; suite-observed-parallel at --jobs 2 with --metrics,
 * --trace and --archive.
 *
 * The job's progress hook fires after every committed invocation; the
 * last call for a (workload, tier) carries its finished RunResult and
 * marks the end of that runExperiment.
 */

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <thread>

#include "archive/archive.hh"
#include "bench.hh"
#include "harness/analysis.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "serve/jobrun.hh"
#include "support/durable_io.hh"
#include "support/logging.hh"
#include "support/str.hh"
#include "vm/compiler.hh"

namespace fs = std::filesystem;

namespace selfbench {

namespace {

using rigor::harness::RunResult;

constexpr rigor::vm::Tier kTiers[] = {rigor::vm::Tier::Interp,
                                      rigor::vm::Tier::Adaptive,
                                      rigor::vm::Tier::Threaded};

/** The modelled outputs of one suite job. */
struct SuitePass
{
    /** Every (workload, tier) run, in execution order. */
    std::vector<RunResult> runs;
    /** The job's report stream. */
    std::string report;
    /** Digest of runToJson of every run plus the report text. */
    std::string digest;
    /** Digest of the metrics, trace and archive bytes (observed). */
    std::string artifactDigest;
    uint64_t bytecodes = 0;
    long failedRuns = 0;
    int exitCode = 0;
};

/** Report text without the lines that name artifact paths. */
std::string
modelledReport(const std::string &text)
{
    std::istringstream in(text);
    std::string line, out;
    while (std::getline(in, line))
        if (line.rfind("wrote ", 0) != 0 &&
            line.rfind("archived as ", 0) != 0)
            out += line + "\n";
    return out;
}

class SuiteWorkload : public Workload
{
  public:
    SuiteWorkload(const Options &opts, bool observed)
        : opts_(opts), observed_(observed)
    {
        spec_.command = "suite";
        spec_.invocations = kSuiteInvocations;
        spec_.iterations = kSuiteIterations;
        spec_.seed = suiteSeed(opts.seed);
        spec_.quiet = true;
        unsigned hw = std::thread::hardware_concurrency();
        spec_.jobs = observed ? (hw >= 2 ? 2 : 1) : 1;
        obsDir_ = opts.workDir + "/suite-observed";
        if (observed) {
            spec_.metricsPath = obsDir_ + "/metrics.json";
            spec_.tracePath = obsDir_ + "/trace.json";
            spec_.archiveDir = obsDir_ + "/archive";
            spec_.label = "selfbench";
        }
    }

    void
    setup() override
    {
        ScopedSpan span("setup.suite");
        // Compile every source (the VM's front end) ...
        {
            ScopedSpan c("vm.compile_suite");
            for (const auto &w : rigor::workloads::suite()) {
                ScopedSpan one("vm.compile");
                rigor::vm::Program p =
                    rigor::vm::compileSource(w.source, w.name);
                (void)p;
            }
        }
        // ... then warm up: one single-iteration invocation of every
        // workload on every tier at test size, so the first round pays
        // no cold start.
        for (const auto &w : rigor::workloads::suite()) {
            for (rigor::vm::Tier tier : kTiers) {
                auto cfg = rigor::serve::makeRunnerConfig(
                    spec_, tier, nullptr, nullptr, nullptr);
                cfg.invocations = 1;
                cfg.iterations = 1;
                cfg.size = w.testSize;
                ScopedSpan r("setup.warmup");
                rigor::harness::runExperiment(w, cfg);
            }
        }
        fs::remove_all(obsDir_);
        if (observed_)
            fs::create_directories(obsDir_);
    }

    /** A set-up takes about 0.1 s; many of them steady the median. */
    int setupRepeats() const override { return 15; }

    void
    round() override
    {
        pass_ = runJob(spec_, true);
        out.attempted += static_cast<long>(pass_.runs.size());
        out.failed += pass_.failedRuns;
        bytecodesPerRound_ = pass_.bytecodes;
        std::string d = pass_.digest + ":" + pass_.artifactDigest;
        if (firstDigest_.empty()) {
            firstDigest_ = d;
            out.digest = pass_.digest;
        } else if (d != firstDigest_) {
            out.errors.push_back(
                "suite outputs differ between rounds of the same seed");
        }
    }

    void
    between() override
    {
        // Every round appends entry #1 to an empty archive.
        if (observed_)
            fs::remove_all(spec_.archiveDir);
        if (!recorder().enabled())
            return;
        // The estimates runSuiteJob computes per workload, on this
        // round's runs.
        ScopedSpan s("harness.analysis");
        for (size_t i = 0; i + 2 < pass_.runs.size(); i += 3) {
            const RunResult &a = pass_.runs[i], &b = pass_.runs[i + 1],
                            &c = pass_.runs[i + 2];
            rigor::harness::rigorousEstimate(a);
            rigor::harness::rigorousEstimate(b);
            rigor::harness::rigorousEstimate(c);
            rigor::harness::rigorousSpeedup(a, b);
            rigor::harness::rigorousSpeedup(a, c);
        }
    }

    void
    finish(const std::vector<double> &roundWall) override
    {
        double wall = median(roundWall);
        out.extra["sim_bytecodes_per_s"] = {
            wall > 0 ? static_cast<double>(bytecodesPerRound_) / wall
                     : 0.0,
            "bytecodes/s", ""};
        if (observed_ && (recorder().enabled() || opts_.smoke)) {
            // The --jobs contract: the parallel, observed job models
            // exactly the bytes a serial, plain job does. Untraced runs
            // leave this to the recorded digest below, which serial
            // and observed runs of a seed share.
            rigor::serve::JobSpec plain = spec_;
            plain.jobs = 1;
            plain.metricsPath.clear();
            plain.tracePath.clear();
            plain.archiveDir.clear();
            plain.label.clear();
            SuitePass serial = runJob(plain, false);
            if (serial.digest != out.digest)
                out.errors.push_back(rigor::strprintf(
                    "observed --jobs %d digest %s differs from the "
                    "serial job's digest %s",
                    spec_.jobs, out.digest.c_str(),
                    serial.digest.c_str()));
        }
        std::string err = checkRecordedDigest(
            opts_, designKey(), out.digest);
        if (!err.empty())
            out.errors.push_back(err);
    }

    void
    teardown() override
    {
        std::error_code ec;
        fs::remove_all(obsDir_, ec);
    }

  private:
    /** Serial and observed runs of one design share this key. */
    std::string
    designKey() const
    {
        return rigor::strprintf(
            "suite-default-size-%d-%d-%llx", spec_.invocations,
            spec_.iterations,
            static_cast<unsigned long long>(spec_.seed));
    }

    /**
     * One suite job through serve::executeJob. With `timed`, each
     * runExperiment's latency (from the previous run's last commit to
     * this run's last commit, so it includes the compile and the
     * previous workload's estimates) goes to out.opMs and, in traced
     * rounds, becomes a harness.run_experiment span.
     */
    SuitePass
    runJob(const rigor::serve::JobSpec &spec, bool timed)
    {
        SuitePass pass;
        std::string lastKey;
        double opStart = nowSeconds(), last = opStart, opSeconds = 0.0;
        auto closeOp = [&]() {
            if (!timed)
                return;
            out.addOp(lastKey, (last - opStart) * 1e3);
            opSeconds += last - opStart;
            recorder().addSpan("harness.run_experiment", opStart, last);
        };
        rigor::serve::JobHooks hooks;
        hooks.output = [&pass](const std::string &s) { pass.report += s; };
        hooks.progress = [&](const RunResult &r, int) {
            std::string key = r.workload + "/" + rigor::vm::tierName(r.tier);
            if (key != lastKey) {
                if (!lastKey.empty()) {
                    closeOp();
                    opStart = last;
                }
                lastKey = key;
                pass.runs.push_back(r);
            } else {
                pass.runs.back() = r;
            }
            last = nowSeconds();
        };
        {
            ScopedSpan s("serve.execute_job");
            pass.exitCode = rigor::serve::executeJob(spec, hooks);
            if (!lastKey.empty())
                closeOp();
        }
        if (pass.exitCode != rigor::serve::kExitSuccess)
            out.errors.push_back(rigor::strprintf(
                "suite job exited with code %d", pass.exitCode));
        if (pass.runs.size() != rigor::workloads::suite().size() * 3)
            out.errors.push_back(rigor::strprintf(
                "suite job reported %zu runs", pass.runs.size()));
        bool serialTraced = timed && spec.jobs == 1 && recorder().enabled();
        for (const auto &r : pass.runs) {
            if (!r.failures.empty() || r.quarantined ||
                r.invocations.size() < 2)
                ++pass.failedRuns;
            for (const auto &inv : r.invocations)
                for (const auto &s : inv.samples) {
                    pass.bytecodes += s.counters.bytecodes;
                    if (timed && recorder().enabled())
                        recorder().sample(
                            "harness.iter_wall_ms",
                            static_cast<double>(s.wallNanos) / 1e6);
                }
        }
        // Serial runExperiment time and the bytecodes behind it: the
        // live cost per bytecode uarch.unattributed_share explains.
        if (serialTraced) {
            recorder().count("harness.serial_seconds", opSeconds);
            recorder().count("harness.serial_bytecodes",
                             static_cast<double>(pass.bytecodes));
        }
        std::string all;
        for (const auto &r : pass.runs)
            all += rigor::harness::runToJson(r).dump();
        pass.digest = digestHex(all + modelledReport(pass.report));
        if (!spec.archiveDir.empty())
            pass.artifactDigest = artifactDigest(spec);
        return pass;
    }

    /** Digest of the metrics, trace and archive-entry bytes written. */
    std::string
    artifactDigest(const rigor::serve::JobSpec &spec)
    {
        std::string metricsText, traceText, entryText;
        rigor::readFile(spec.metricsPath, metricsText);
        rigor::readFile(spec.tracePath, traceText);
        rigor::archive::RunArchive ar(spec.archiveDir);
        auto scan = ar.scan();
        if (scan.entries.size() == 1)
            rigor::readFile(scan.entries.front().path, entryText);
        if (metricsText.empty() || traceText.empty() || entryText.empty())
            out.errors.push_back(
                "the observed job did not write its metrics, trace and "
                "one archive entry");
        return digestHex(metricsText + traceText + entryText);
    }

    Options opts_;
    bool observed_;
    rigor::serve::JobSpec spec_;
    std::string obsDir_;
    std::string firstDigest_;
    SuitePass pass_;
    uint64_t bytecodesPerRound_ = 0;
};

} // namespace

std::unique_ptr<Workload>
makeSuiteWorkload(const Options &opts, bool observed)
{
    return std::make_unique<SuiteWorkload>(opts, observed);
}

} // namespace selfbench

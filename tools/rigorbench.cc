/**
 * @file
 * rigorbench — command-line front end to the framework. It only
 * parses and dispatches: every measurement command runs through
 * serve::executeJob (the daemon's engine), archive queries through
 * serve::runQuery, and the daemon's client commands through
 * serve/client.hh.
 *
 *   rigorbench list
 *   rigorbench env
 *   rigorbench version
 *   rigorbench disasm <workload>
 *   rigorbench run <workload> [options]
 *   rigorbench compare <workload> [options]
 *   rigorbench compare <baseline> <candidate> --archive DIR
 *   rigorbench sequential <workload> [options]
 *   rigorbench profile <workload> [options]
 *   rigorbench suite [options]
 *   rigorbench gate <baseline> [<candidate>] --archive DIR
 *   rigorbench explain <baseline> <candidate> --archive DIR
 *   rigorbench archive list|prune --archive DIR
 *   rigorbench fsck --archive DIR [--repair]
 *   rigorbench serve --socket PATH [options]
 *   rigorbench submit <job command> [<workload>] --socket PATH [options]
 *   rigorbench status [<job-id>] --socket PATH
 *   rigorbench cancel <job-id> --socket PATH
 *   rigorbench shutdown [--now] --socket PATH
 *   rigorbench help
 *
 * Flags parse straight into the spec that acts on them
 * (serve::JobSpec, serve::QuerySpec, serve::ServerConfig,
 * serve::SubmitOptions), which defines each default once. Which
 * command each flag applies to is the flag x command table in
 * serve/jobspec.cc: a flag that does not apply exits 1 naming the
 * flag and the command, before any work starts. `rigorbench help`
 * lists the flags; README.md ("Commands", "Flags") describes each.
 *
 * Exit codes (stable; scripts may rely on them — the canonical table
 * lives in README.md "Exit codes"):
 *   0  success
 *   1  usage error (bad flags/arguments)
 *   2  runtime or suite failure (nothing measurable, I/O error)
 *   3  interrupted (SIGINT/SIGTERM); state is resumable when
 *      --resume was given (serve: the queue is resumable)
 *   4  regression: gate found a workload slower than the baseline
 *      beyond the threshold at the configured confidence
 *   5  corruption: fsck found (or could not repair) archive damage
 *   6  injected crash: an io:crash-at fault killed the process at
 *      the requested call (torture harnesses rely on this code to
 *      tell an injected crash from a real failure)
 *   7  daemon unavailable: no daemon at --socket (or it spoke a
 *      different protocol version)
 *   8  rejected: the daemon's admission control refused the job
 *      (queue full, draining, or an io:* fault spec)
 */

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "archive/archive.hh"
#include "archive/fsck.hh"
#include "harness/envcheck.hh"
#include "harness/fault.hh"
#include "serve/client.hh"
#include "serve/jobrun.hh"
#include "serve/jobspec.hh"
#include "serve/server.hh"
#include "support/durable_io.hh"
#include "support/interrupt.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/schema.hh"
#include "support/str.hh"
#include "support/table.hh"
#include "vm/compiler.hh"
#include "workloads/workloads.hh"

using namespace rigor;

namespace {

// Exit-code table (see the file header). The codes themselves live in
// serve/jobrun.hh so the CLI, the daemon and the client mode agree;
// kExitInterrupted (3) is in support/interrupt.hh with the signal
// handler and kExitCrashInjected (6) in harness/fault.hh with the
// io:crash-at machinery.
using serve::kExitCorruption;
using serve::kExitFailure;
using serve::kExitSuccess;
using serve::kExitUsage;

/**
 * A parsed command line: the flags land straight in the spec of the
 * engine that acts on them, so each default is defined once there.
 */
struct Options
{
    /** The flag table's name for what runs (see serve/jobspec.hh). */
    std::string form;
    std::vector<std::string> args;
    /** Every flag given, in order, for the flag-table check. */
    std::vector<std::string> flags;
    serve::JobSpec job;
    serve::QuerySpec query;
    serve::ServerConfig server;
    serve::SubmitOptions submit;
    /** `status <job-id>` / `cancel <job-id>`. */
    int jobId = -1;
    /** `archive prune --keep N`. */
    int keep = 0;
    /** `fsck --repair`: fix what is mechanically fixable. */
    bool repair = false;
    /** `shutdown --now`: interrupt instead of draining. */
    bool shutdownNow = false;
};

void
printUsage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: rigorbench <command> [args] [options]\n"
        "\n"
        "commands:\n"
        "  list                      list the workload suite\n"
        "  env                       report environment hygiene\n"
        "  version                   print binary and artifact-schema "
        "versions\n"
        "  disasm <workload>         disassemble a workload\n"
        "  run <workload>            measure one workload\n"
        "  compare <workload>        interp-vs-adaptive speedup\n"
        "  compare <base> <cand>     compare two archive entries\n"
        "                            (needs --archive DIR)\n"
        "  sequential <workload>     run until the CI is tight\n"
        "  profile <workload>        per-opcode/JIT profile\n"
        "  suite                     measure the whole suite\n"
        "  gate <base> [<cand>]      fail (exit 4) on regression vs\n"
        "                            base; cand defaults to HEAD\n"
        "  explain <base> <cand>     attribute the measured ratio to\n"
        "                            behavior components\n"
        "                            (needs --archive DIR)\n"
        "  archive list|prune        inspect / trim an archive\n"
        "                            (list --json FILE|- for the\n"
        "                            machine-readable form)\n"
        "  fsck                      verify an archive (--repair to\n"
        "                            fix); needs --archive DIR\n"
        "  serve                     run the benchmarking daemon on\n"
        "                            --socket PATH (--resume after a\n"
        "                            drain)\n"
        "  submit <job>              queue a job on the daemon: run,\n"
        "                            sequential, profile or compare\n"
        "                            <workload>, or suite\n"
        "  status [<job-id>]         list the daemon's jobs (or one)\n"
        "  cancel <job-id>           cancel a queued job\n"
        "  shutdown                  drain the daemon (--now to\n"
        "                            interrupt running jobs)\n"
        "  help                      this text\n"
        "\n"
        "entry refs: HEAD, HEAD~N, a decimal id, or a --label name\n"
        "\n"
        "options: --tier interp|adaptive|threaded --invocations N "
        "--iterations N --size N --jobs N\n"
        "         --seed S --jit-threshold N --target PCT "
        "--json FILE --csv FILE --no-noise\n"
        "         --inject SPEC --max-retries N --deadline-ms X "
        "--resume FILE\n"
        "         --checkpoint-every N --metrics FILE --trace FILE "
        "--quiet\n"
        "         --archive DIR --label NAME --resamples N "
        "--confidence C\n"
        "         --gate-threshold PCT --keep N --explain "
        "--repair\n"
        "         --base-tier TIER --cand-tier TIER\n"
        "         --socket PATH --state-dir DIR --max-queue N "
        "--max-active N\n"
        "         --priority N --client NAME --no-wait --now\n"
        "a flag that does not apply to the command exits 1 naming "
        "both\n"
        "\n"
        "exit codes: 0 success, 1 usage error, 2 runtime failure,\n"
        "            3 interrupted (resumable with --resume),\n"
        "            4 regression detected by gate,\n"
        "            5 corruption found by fsck,\n"
        "            6 injected crash (io:crash-at fault),\n"
        "            7 daemon unavailable at --socket,\n"
        "            8 job rejected by daemon admission control\n");
}

[[noreturn]] void
usage()
{
    printUsage(stderr);
    std::exit(kExitUsage);
}

/**
 * Strict integer parsing: rejects garbage instead of yielding 0 and
 * overflow instead of silently clamping to LLONG_MAX (strtoll sets
 * errno=ERANGE but still returns a "valid-looking" value, so e.g.
 * --invocations 99999999999999999999 used to be accepted).
 */
int64_t
parseInt(const char *flag, const char *text, int64_t min_value)
{
    char *end = nullptr;
    errno = 0;
    long long v = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0')
        fatal("%s expects an integer, got '%s'", flag, text);
    if (errno == ERANGE)
        fatal("%s out of range: '%s'", flag, text);
    if (v < min_value)
        fatal("%s must be >= %lld, got %lld", flag,
              static_cast<long long>(min_value), v);
    return v;
}

/** parseInt for an int-typed setting (rejects values past INT_MAX). */
int
parseCount(const char *flag, const char *text, int min_value)
{
    int64_t v = parseInt(flag, text, min_value);
    if (v > std::numeric_limits<int>::max())
        fatal("%s out of range: '%s'", flag, text);
    return static_cast<int>(v);
}

double
parseDouble(const char *flag, const char *text, double min_value)
{
    char *end = nullptr;
    errno = 0;
    double v = std::strtod(text, &end);
    if (end == text || *end != '\0')
        fatal("%s expects a number, got '%s'", flag, text);
    if (errno == ERANGE)
        fatal("%s out of range: '%s'", flag, text);
    if (v < min_value)
        fatal("%s must be >= %g, got %g", flag, min_value, v);
    return v;
}

/** Strict seed parsing (decimal, hex or octal; full uint64 range). */
uint64_t
parseSeed(const char *flag, const char *text)
{
    char *end = nullptr;
    errno = 0;
    uint64_t v = std::strtoull(text, &end, 0);
    if (end == text || *end != '\0')
        fatal("%s expects an integer, got '%s'", flag, text);
    if (errno == ERANGE)
        fatal("%s out of range: '%s'", flag, text);
    return v;
}

/**
 * A mistyped tier value is a runtime failure (exit 2), not a usage
 * error: the flag itself was recognized, its value wasn't. Name the
 * offending value instead of drowning it in the usage wall.
 */
vm::Tier
parseTier(const char *text)
{
    std::string t = text;
    if (t == "interp")
        return vm::Tier::Interp;
    if (t == "adaptive")
        return vm::Tier::Adaptive;
    if (t == "threaded")
        return vm::Tier::Threaded;
    std::fprintf(stderr,
                 "unknown tier '%s' (expected "
                 "interp|adaptive|threaded)\n",
                 t.c_str());
    std::exit(kExitFailure);
}

/** The archive queries, answered by serve::runQuery. */
bool
isQuery(const std::string &form)
{
    return form == "compare <base> <cand>" || form == "gate" ||
        form == "explain";
}

/**
 * Name what runs, and give its spec the positionals: the flag table's
 * form (`compare` with two refs, `archive list|prune`), the job's
 * command and workload, the query's kind and refs, or the job id.
 */
void
assignPositionals(Options &opt, const std::string &command)
{
    const auto &args = opt.args;
    opt.form = command;
    if (command == "compare" && args.size() >= 2)
        opt.form = "compare <base> <cand>";
    else if (command == "archive") {
        if (args.empty() || (args[0] != "list" && args[0] != "prune"))
            fatal("'archive' expects list or prune");
        opt.form = "archive " + args[0];
    }
    serve::checkArity(opt.form, args.size());

    if (opt.form == "submit") {
        // The job's own positionals follow its command.
        opt.job.command = args[0];
        if (!serve::isJobCommand(opt.job.command))
            fatal("submit expects a job command, got '%s'",
                  args[0].c_str());
        serve::checkArity(opt.job.command, args.size() - 1);
        if (args.size() > 1)
            opt.job.workload = args[1];
    } else if (serve::isJobCommand(opt.form)) {
        opt.job.command = opt.form;
        if (!args.empty())
            opt.job.workload = args[0];
    } else if (isQuery(opt.form)) {
        opt.query.kind = command;
        opt.query.baseRef = args[0];
        if (args.size() > 1)
            opt.query.candRef = args[1];
    } else if ((opt.form == "status" || opt.form == "cancel") &&
               !args.empty()) {
        opt.jobId = parseCount(opt.form.c_str(), args[0].c_str(), 0);
    }
    // Profiling is mostly about explaining warmup/JIT behaviour, so
    // the adaptive tier is the default here (run's default stays
    // interp); --tier still overrides.
    if (opt.job.command == "profile")
        opt.job.tier = vm::Tier::Adaptive;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    if (argc < 2)
        usage();
    std::string command = argv[1];
    if (command == "help" || command == "--help" || command == "-h") {
        printUsage(stdout);
        std::exit(0);
    }
    if (command == "--version")
        command = "version";
    int i = 2;
    while (i < argc && argv[i][0] != '-')
        opt.args.push_back(argv[i++]);
    assignPositionals(opt, command);

    serve::JobSpec &job = opt.job;
    serve::QuerySpec &query = opt.query;
    for (; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage();
            return argv[++i];
        };
        if (a == "--help" || a == "-h") {
            printUsage(stdout);
            std::exit(0);
        }
        opt.flags.push_back(a);
        if (a == "--tier") {
            job.tier = parseTier(next());
        } else if (a == "--base-tier") {
            query.baseTier = vm::tierName(parseTier(next()));
        } else if (a == "--cand-tier") {
            query.candTier = vm::tierName(parseTier(next()));
        } else if (a == "--invocations") {
            job.invocations = parseCount("--invocations", next(), 1);
        } else if (a == "--iterations") {
            job.iterations = parseCount("--iterations", next(), 1);
        } else if (a == "--size") {
            job.size = parseInt("--size", next(), 1);
        } else if (a == "--seed") {
            // Jobs seed the measurement, queries the bootstrap.
            job.seed = query.seed = parseSeed("--seed", next());
        } else if (a == "--jobs") {
            job.jobs = parseCount("--jobs", next(), 1);
        } else if (a == "--jit-threshold") {
            job.jitThreshold = parseCount("--jit-threshold", next(), 1);
        } else if (a == "--target") {
            job.targetPct = parseDouble("--target", next(), 1e-6);
        } else if (a == "--json") {
            job.jsonPath = next();
        } else if (a == "--csv") {
            job.csvPath = next();
        } else if (a == "--no-noise") {
            job.noNoise = true;
        } else if (a == "--quiet") {
            job.quiet = true;
        } else if (a == "--metrics") {
            job.metricsPath = next();
        } else if (a == "--trace") {
            job.tracePath = next();
        } else if (a == "--inject") {
            job.injectSpecs.push_back(next());
        } else if (a == "--max-retries") {
            job.maxRetries = parseCount("--max-retries", next(), 0);
        } else if (a == "--deadline-ms") {
            job.deadlineMs = parseDouble("--deadline-ms", next(), 1e-9);
        } else if (a == "--resume") {
            // For `serve`, --resume is a flag (restore the queue);
            // everywhere else it names the suite state file.
            if (opt.form == "serve")
                opt.server.resume = true;
            else
                job.resumePath = next();
        } else if (a == "--checkpoint-every") {
            job.checkpointEvery =
                parseCount("--checkpoint-every", next(), 1);
        } else if (a == "--archive") {
            job.archiveDir = query.archiveDir = next();
        } else if (a == "--label") {
            job.label = next();
        } else if (a == "--resamples") {
            query.resamples = parseCount("--resamples", next(), 10);
        } else if (a == "--confidence") {
            query.confidence = parseDouble("--confidence", next(), 1e-6);
        } else if (a == "--gate-threshold") {
            query.gateThresholdPct =
                parseDouble("--gate-threshold", next(), 0.0);
        } else if (a == "--keep") {
            opt.keep = parseCount("--keep", next(), 1);
        } else if (a == "--explain") {
            query.explainGate = true;
        } else if (a == "--repair") {
            opt.repair = true;
        } else if (a == "--socket") {
            opt.server.socketPath = next();
        } else if (a == "--state-dir") {
            opt.server.stateDir = next();
        } else if (a == "--max-queue") {
            opt.server.maxQueue = parseCount("--max-queue", next(), 1);
        } else if (a == "--max-active") {
            opt.server.maxActive = parseCount("--max-active", next(), 1);
        } else if (a == "--priority") {
            opt.submit.priority = parseCount("--priority", next(), 0);
        } else if (a == "--client") {
            opt.submit.client = next();
        } else if (a == "--no-wait") {
            opt.submit.wait = false;
        } else if (a == "--now") {
            opt.shutdownNow = true;
        } else {
            usage();
        }
    }

    // Every flag acts on the command or is rejected, before any work.
    // A submitted job's flags must apply to its own command as well.
    bool submit = opt.form == "submit";
    for (const auto &flag : opt.flags)
        if (!serve::flagApplies(flag, opt.form) ||
            (submit && serve::isJobFlag(flag) &&
             !serve::flagApplies(flag, job.command)))
            fatal("%s does not apply to '%s'", flag.c_str(),
                  submit ? ("submit " + job.command).c_str()
                         : opt.form.c_str());
    // A label names the archived entry; with no archive it would
    // name nothing.
    if (job.archiveDir.empty() &&
        std::find(opt.flags.begin(), opt.flags.end(), "--label") !=
            opt.flags.end())
        fatal("--label requires --archive DIR (it names the archived "
              "entry)");
    if (serve::isJobCommand(opt.form) || opt.form == "submit")
        serve::validateJobSpec(job);
    if (isQuery(opt.form))
        serve::validateQuerySpec(query);
    // Checkpoints are written to the resume state file; a submitted
    // suite gets one from the daemon at admission.
    if (job.checkpointEvery > 0 && job.resumePath.empty() &&
        opt.form == "suite")
        fatal("--checkpoint-every requires 'suite' with --resume "
              "(checkpoints are written to the resume state file)");
    if (opt.form == "fsck" && query.archiveDir.empty())
        fatal("fsck requires --archive DIR");
    return opt;
}

int
cmdEnv()
{
    harness::EnvReport report = harness::collectEnvironment();
    std::printf("%s", report.render().c_str());
    std::printf("%d warning(s)\n", report.warningCount());
    return kExitSuccess;
}

int
cmdList()
{
    Table t({"name", "category", "default size", "description"});
    for (const auto &w : workloads::suite()) {
        t.addRow({w.name, workloads::categoryName(w.category),
                  std::to_string(w.defaultSize), w.description});
    }
    std::printf("%s", t.render().c_str());
    return kExitSuccess;
}

/**
 * `version`: the binary version plus every artifact/protocol schema
 * this build reads and writes, one per line, so "which schema does
 * this binary emit?" never requires reading the source.
 */
int
cmdVersion()
{
    std::printf("rigorbench %s\n", kRigorbenchVersion);
    std::printf("schemas:\n");
    struct Row
    {
        const char *what;
        const char *name;
        int version;
        int minVersion;
    };
    const Row rows[] = {
        {"state envelope (durable files)", kStateFormat,
         kStateVersion, kStateVersion},
        {"run (--json)", kRunSchema, kRunSchemaVersion,
         kRunSchemaVersion},
        {"series CSV (--csv)", kSeriesCsvSchema, kSeriesCsvVersion,
         kSeriesCsvVersion},
        {"archive entry", kArchiveEntrySchema, kArchiveEntryVersion,
         kArchiveEntryMinVersion},
        {"archive list (--json)", kArchiveListSchema,
         kArchiveListVersion, kArchiveListVersion},
        {"compare report", kCompareReportSchema,
         kCompareReportVersion, kCompareReportVersion},
        {"behavior profile", kBehaviorProfileSchema,
         kBehaviorProfileVersion, kBehaviorProfileVersion},
        {"explain report", kExplainReportSchema,
         kExplainReportVersion, kExplainReportVersion},
        {"fsck report", kFsckReportSchema, kFsckReportVersion,
         kFsckReportVersion},
        {"job spec (serve)", kJobSpecSchema, kJobSpecVersion,
         kJobSpecMinVersion},
        {"serve protocol", kServeProtocolSchema,
         kServeProtocolVersion, kServeProtocolVersion},
        {"serve queue state", kServeQueueSchema, kServeQueueVersion,
         kServeQueueVersion},
    };
    for (const auto &r : rows) {
        if (r.minVersion != r.version)
            std::printf("  %-33s %s v%d (reads v%d..%d)\n", r.what,
                        r.name, r.version, r.minVersion, r.version);
        else
            std::printf("  %-33s %s v%d\n", r.what, r.name,
                        r.version);
    }
    return kExitSuccess;
}

int
cmdDisasm(const Options &opt)
{
    const auto &spec = workloads::findWorkload(opt.args[0]);
    vm::Program prog = vm::compileSource(spec.source, spec.name);
    std::printf("%s", prog.module->disassemble().c_str());
    return kExitSuccess;
}

/** The CLI's output hook: a job's report stream goes to stdout. */
void
writeStdout(const std::string &chunk)
{
    std::fwrite(chunk.data(), 1, chunk.size(), stdout);
}

/**
 * Every measurement command: hand the job to the shared execution
 * engine with an output hook that writes straight to stdout. The
 * daemon runs the same engine with a streaming hook — that shared
 * path is what makes daemon-submitted artifacts byte-identical to
 * one-shot runs.
 */
int
runLocalJob(const Options &opt)
{
    serve::JobHooks hooks;
    hooks.output = writeStdout;
    return serve::executeJob(opt.job, hooks);
}

/**
 * compare/gate/explain on archive entries: run the query locally —
 * or, with --socket, on the daemon, whose answer renders identically
 * (it runs the same engine against the same archive).
 */
int
runQueryCommand(const Options &opt)
{
    const std::string &jsonPath = opt.job.jsonPath;
    if (!opt.server.socketPath.empty())
        return serve::remoteQuery(opt.server.socketPath, opt.query,
                                  jsonPath);
    serve::QueryResult res = serve::runQuery(opt.query);
    std::fputs(res.text.c_str(), stdout);
    if (!jsonPath.empty()) {
        atomicWriteFile(jsonPath, res.doc.dump(2) + "\n");
        std::printf("wrote %s\n", jsonPath.c_str());
    }
    return res.exitCode;
}

/** The machine-readable `archive list --json` document. */
Json
archiveListJson(const std::string &dir,
                const archive::ScanResult &scan)
{
    Json doc = Json::object();
    doc.set("schema", kArchiveListSchema);
    doc.set("version", kArchiveListVersion);
    doc.set("archive", dir);
    Json entries = Json::array();
    for (const auto &e : scan.entries) {
        Json j = Json::object();
        j.set("id", e.id);
        j.set("label", e.label);
        j.set("command", e.command);
        j.set("runs", e.runCount);
        j.set("profiles", e.profileCount);
        j.set("bytes", static_cast<int64_t>(e.sizeBytes));
        j.set("fingerprint", e.fingerprint);
        Json tiers = Json::array();
        for (const auto &t : e.tiers)
            tiers.push(t);
        j.set("tiers", std::move(tiers));
        entries.push(std::move(j));
    }
    doc.set("entries", std::move(entries));
    doc.set("quarantined_present", scan.quarantinedPresent);
    return doc;
}

/** `archive list|prune --archive DIR`: hygiene operations. */
int
cmdArchive(const Options &opt)
{
    const std::string &dir = opt.query.archiveDir;
    const std::string &jsonPath = opt.job.jsonPath;
    if (dir.empty())
        fatal("'%s' requires --archive DIR", opt.form.c_str());
    archive::RunArchive ar(dir);
    if (opt.form == "archive list") {
        archive::ScanResult scan = ar.scan();
        // `--json -` replaces the table with the document on stdout
        // (for pipelines); `--json FILE` writes it alongside.
        if (jsonPath == "-") {
            std::printf(
                "%s\n",
                archiveListJson(dir, scan).dump(2)
                    .c_str());
            return kExitSuccess;
        }
        Table t({"id", "label", "command", "runs", "profile",
                 "bytes", "fingerprint"});
        for (const auto &e : scan.entries) {
            // "profile" says whether `explain` can attribute this
            // entry: every run profiled, some, or none (legacy v1).
            const char *profile =
                e.profileCount == 0 ? "no"
                : e.profileCount >= e.runCount ? "yes"
                                               : "partial";
            t.addRow({std::to_string(e.id),
                      e.label.empty() ? "-" : e.label, e.command,
                      std::to_string(e.runCount), profile,
                      fmtCount(e.sizeBytes), e.fingerprint});
        }
        std::printf("%s", t.render().c_str());
        std::printf("%zu entr%s in %s", scan.entries.size(),
                    scan.entries.size() == 1 ? "y" : "ies",
                    dir.c_str());
        if (!scan.quarantined.empty())
            std::printf(", %zu quarantined this scan",
                        scan.quarantined.size());
        if (scan.quarantinedPresent > 0)
            std::printf(", %d quarantined file(s) present "
                        "(see 'rigorbench fsck')",
                        scan.quarantinedPresent);
        std::printf("\n");
        if (!jsonPath.empty()) {
            atomicWriteFile(
                jsonPath,
                archiveListJson(dir, scan).dump(2) +
                    "\n");
            std::printf("wrote %s\n", jsonPath.c_str());
        }
        return kExitSuccess;
    }
    if (opt.keep < 1)
        fatal("'archive prune' requires --keep N");
    int removed = ar.prune(opt.keep);
    std::printf("pruned %d entr%s from %s (kept newest %d)\n", removed,
                removed == 1 ? "y" : "ies", dir.c_str(), opt.keep);
    return kExitSuccess;
}

/** `fsck --archive DIR [--repair]`: verify / repair an archive. */
int
cmdFsck(const Options &opt)
{
    const std::string &jsonPath = opt.job.jsonPath;
    const std::string &metricsPath = opt.job.metricsPath;
    MetricsRegistry metrics;
    archive::FsckReport report = archive::fsckArchive(
        opt.query.archiveDir, opt.repair,
        metricsPath.empty() ? nullptr : &metrics);
    std::printf("%s", archive::renderFsck(report).c_str());
    if (!jsonPath.empty()) {
        atomicWriteFile(jsonPath,
                        archive::fsckToJson(report).dump(2) + "\n");
        std::printf("wrote %s\n", jsonPath.c_str());
    }
    serve::writeObservability(&metrics, metricsPath, nullptr, "",
                              writeStdout);
    // The verdict is about the archive's state *now*: a repaired
    // archive exits 0 even though defects were found, an unrepaired
    // (or unrepairable) one exits 5 so scripts can gate on it.
    return report.clean() ? kExitSuccess : kExitCorruption;
}

int
cmdServe(Options opt)
{
    serve::ServerConfig &cfg = opt.server;
    if (cfg.socketPath.empty())
        fatal("serve requires --socket PATH");
    if (cfg.stateDir.empty())
        cfg.stateDir = cfg.socketPath + ".d";
    return serve::runServer(cfg);
}

int
dispatch(const Options &opt)
{
    const std::string &form = opt.form;
    const std::string &socket = opt.server.socketPath;
    if (serve::isJobCommand(form))
        return runLocalJob(opt);
    if (isQuery(form))
        return runQueryCommand(opt);
    if (form == "list")
        return cmdList();
    if (form == "env")
        return cmdEnv();
    if (form == "version")
        return cmdVersion();
    if (form == "disasm")
        return cmdDisasm(opt);
    if (form == "fsck")
        return cmdFsck(opt);
    if (form == "serve")
        return cmdServe(opt);
    if (form == "submit")
        return serve::submitJob(socket, opt.job, opt.submit);
    if (form == "status")
        return serve::requestStatus(socket, opt.jobId);
    if (form == "cancel")
        return serve::cancelJob(socket, opt.jobId);
    if (form == "shutdown")
        return serve::shutdownDaemon(socket, opt.shutdownNow);
    return cmdArchive(opt);
}

} // namespace

int
main(int argc, char **argv)
{
    installInterruptHandlers();
    Options opt;
    harness::FaultPlan faults;
    try {
        opt = parseArgs(argc, argv);
        for (const auto &spec : opt.job.injectSpecs)
            faults.add(spec);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return kExitUsage;
    }
    try {
        if (opt.job.quiet)
            setQuiet(true);
        // io:* faults arm on durable-I/O calls, not invocations, so
        // they install into the process-wide FsOps seam before any
        // durable work starts. Never uninstalled: the injector must
        // outlive every write, including the observability flush.
        harness::FaultyFsOps faultyFs(faults.ioFaults, opt.job.seed);
        if (!faults.ioFaults.empty())
            setFsOps(&faultyFs);
        int rc = dispatch(opt);
        // stdout itself is an artifact consumers parse; a full disk
        // or closed pipe must be a loud failure, not silence.
        if (std::fflush(stdout) != 0 || std::ferror(stdout)) {
            std::fprintf(stderr,
                         "error: writing to stdout failed\n");
            return kExitFailure;
        }
        return rc;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return kExitFailure;
    }
}

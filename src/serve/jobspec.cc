#include "serve/jobspec.hh"

#include <cerrno>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <string_view>

#include "support/logging.hh"
#include "support/schema.hh"
#include "support/str.hh"

namespace rigor {
namespace serve {

namespace {

/** A command form of the flag table and the positionals it takes. */
struct Form
{
    const char *name;
    int minArgs;
    int maxArgs;
};

constexpr Form kForms[] = {
    {"run", 1, 1},
    {"suite", 0, 0},
    {"sequential", 1, 1},
    {"profile", 1, 1},
    {"compare", 1, 1},
    {"compare <base> <cand>", 2, 2},
    {"gate", 1, 2},
    {"explain", 2, 2},
    // The action is the positional argument.
    {"archive list", 1, 1},
    {"archive prune", 1, 1},
    {"fsck", 0, 0},
    {"serve", 0, 0},
    // The job command and, for most jobs, its workload.
    {"submit", 1, 2},
    {"status", 0, 1},
    {"cancel", 1, 1},
    {"shutdown", 0, 0},
    {"list", 0, 0},
    {"env", 0, 0},
    {"version", 0, 0},
    {"disasm", 1, 1},
};

constexpr size_t
formIndex(std::string_view name)
{
    for (size_t i = 0; i < std::size(kForms); ++i)
        if (name == kForms[i].name)
            return i;
    // Unreachable from the table below: a constant expression that
    // throws does not compile, so a misspelt form is a build error.
    throw "unknown command form";
}

/** The bit mask of the forms in a comma-separated list. */
constexpr uint32_t
forms(std::string_view list)
{
    uint32_t mask = 0;
    for (;;) {
        size_t comma = list.find(',');
        mask |= uint32_t{1} << formIndex(list.substr(0, comma));
        if (comma == std::string_view::npos)
            return mask;
        list = list.substr(comma + 1);
    }
}

constexpr uint32_t kEveryForm = (uint32_t{1} << std::size(kForms)) - 1;
/** The JobSpec commands, run by executeJob. */
constexpr uint32_t kJobs = forms("run,suite,sequential,profile,compare");
/** Knobs of every command that measures runs with the runner. */
constexpr uint32_t kRunner = forms("run,suite,sequential,compare,submit");
constexpr uint32_t kQueries = forms("compare <base> <cand>,gate,explain");

/** Which command forms each flag applies to. */
struct FlagRow
{
    const char *flag;
    uint32_t forms;
};

constexpr FlagRow kFlagTable[] = {
    {"--tier", forms("run,sequential,profile,submit")},
    {"--invocations", kRunner},
    {"--iterations", kRunner | forms("profile")},
    {"--size", kRunner | forms("profile")},
    {"--jobs", kRunner},
    {"--seed", kRunner | forms("profile") | kQueries},
    {"--jit-threshold", kRunner | forms("profile")},
    {"--target", forms("sequential,submit")},
    {"--json", kQueries | forms("run,sequential,archive list,fsck,"
                                "submit")},
    {"--csv", forms("run,sequential,submit")},
    {"--no-noise", kRunner},
    {"--inject", kRunner},
    {"--max-retries", kRunner},
    {"--deadline-ms", kRunner},
    // serve: restore the queue; suite: the state file. The daemon
    // assigns a submitted suite's state file itself.
    {"--resume", forms("suite,serve")},
    {"--checkpoint-every", forms("suite,submit")},
    {"--metrics", kRunner | forms("fsck")},
    {"--trace", kRunner},
    {"--quiet", kEveryForm},
    {"--archive", kQueries | forms("run,suite,archive list,"
                                   "archive prune,fsck,submit")},
    {"--label", forms("run,suite,submit")},
    {"--resamples", kQueries},
    {"--confidence", kQueries},
    {"--gate-threshold", forms("gate")},
    {"--keep", forms("archive prune")},
    {"--explain", forms("gate")},
    {"--repair", forms("fsck")},
    {"--base-tier", kQueries},
    {"--cand-tier", kQueries},
    {"--socket", kQueries | forms("serve,submit,status,cancel,"
                                  "shutdown")},
    {"--state-dir", forms("serve")},
    {"--max-queue", forms("serve")},
    {"--max-active", forms("serve")},
    {"--priority", forms("submit")},
    {"--client", forms("submit")},
    {"--no-wait", forms("submit")},
    {"--now", forms("shutdown")},
};

const Form *
findForm(const std::string &name)
{
    for (const auto &f : kForms)
        if (name == f.name)
            return &f;
    return nullptr;
}

/** The form's bit in a FlagRow mask; 0 for an unknown form. */
uint32_t
formBit(const std::string &name)
{
    const Form *f = findForm(name);
    return f ? uint32_t{1} << (f - std::begin(kForms)) : 0;
}

bool
flagApplies(const std::string &flag, uint32_t mask)
{
    for (const auto &row : kFlagTable)
        if (flag == row.flag)
            return (row.forms & mask) != 0;
    return false;
}

/** Reject documents that are not the expected schema/version. */
int64_t
checkHeader(const Json &j, const char *what)
{
    if (!j.has("schema") ||
        j.at("schema").asString() != kJobSpecSchema)
        fatal("%s: not a %s document", what, kJobSpecSchema);
    int64_t v = j.at("version").asInt();
    if (v < kJobSpecMinVersion || v > kJobSpecVersion)
        fatal("%s: unsupported %s version %lld (this build reads "
              "v%d..v%d)",
              what, kJobSpecSchema, static_cast<long long>(v),
              kJobSpecMinVersion, kJobSpecVersion);
    return v;
}

int
intField(const Json &j, const char *key, int64_t min_value)
{
    int64_t v = j.at(key).asInt();
    if (v < min_value)
        fatal("job spec: %s must be >= %lld, got %lld", key,
              static_cast<long long>(min_value),
              static_cast<long long>(v));
    if (v > std::numeric_limits<int>::max())
        fatal("job spec: %s must be <= %d, got %lld", key,
              std::numeric_limits<int>::max(),
              static_cast<long long>(v));
    return static_cast<int>(v);
}

/** The hex seed both spec kinds carry (full uint64 range). */
uint64_t
seedField(const Json &j, const char *what)
{
    const std::string &s = j.at("seed").asString();
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s.c_str(), &end, 0);
    if (end == s.c_str() || *end != '\0' || errno == ERANGE)
        fatal("%s: bad seed '%s'", what, s.c_str());
    return v;
}

} // namespace

bool
isJobCommand(const std::string &form)
{
    return (formBit(form) & kJobs) != 0;
}

bool
isJobFlag(const std::string &flag)
{
    return flagApplies(flag, kJobs);
}

bool
flagApplies(const std::string &flag, const std::string &form)
{
    return flagApplies(flag, formBit(form));
}

void
checkArity(const std::string &form, size_t count)
{
    const Form *f = findForm(form);
    if (!f)
        fatal("unknown command '%s' (see 'rigorbench help')",
              form.c_str());
    if (count < static_cast<size_t>(f->minArgs) ||
        count > static_cast<size_t>(f->maxArgs)) {
        std::string want = f->minArgs == f->maxArgs
            ? std::to_string(f->minArgs)
            : strprintf("%d to %d", f->minArgs, f->maxArgs);
        fatal("'%s' takes %s positional argument(s), got %zu",
              form.c_str(), want.c_str(), count);
    }
}

void
validateJobSpec(const JobSpec &spec)
{
    if (!isJobCommand(spec.command))
        fatal("job spec: unknown command '%s' (expected run, suite, "
              "sequential, profile or compare)",
              spec.command.c_str());
    if (findForm(spec.command)->minArgs > 0 && spec.workload.empty())
        fatal("job spec: '%s' needs a workload", spec.command.c_str());
    const struct
    {
        const char *flag;
        const char *field;
        bool set;
    } fields[] = {
        {"--json", "json_path", !spec.jsonPath.empty()},
        {"--csv", "csv_path", !spec.csvPath.empty()},
        {"--metrics", "metrics_path", !spec.metricsPath.empty()},
        {"--trace", "trace_path", !spec.tracePath.empty()},
        {"--archive", "archive_dir", !spec.archiveDir.empty()},
        {"--label", "label", !spec.label.empty()},
        {"--resume", "resume_path", !spec.resumePath.empty()},
        {"--inject", "inject", !spec.injectSpecs.empty()},
        {"--checkpoint-every", "checkpoint_every",
         spec.checkpointEvery > 0},
    };
    for (const auto &f : fields)
        if (f.set && !flagApplies(f.flag, spec.command))
            fatal("%s (%s) does not apply to '%s'", f.flag, f.field,
                  spec.command.c_str());
    // A resumed suite only re-measures what the interrupted process
    // left unfinished, so archiving it would record a partial picture
    // of the suite as if it were complete. Checkpoints go to the
    // resume state file, so an archived suite has nowhere to put them
    // (the daemon assigns a state file only to suites that do not
    // archive).
    if (!spec.archiveDir.empty() &&
        (!spec.resumePath.empty() || spec.checkpointEvery > 0))
        fatal("--archive (archive_dir) cannot be combined with "
              "--resume (resume_path) or --checkpoint-every; archive "
              "the suite in a single uninterrupted run");
}

Json
jobSpecToJson(const JobSpec &spec)
{
    Json j = Json::object();
    j.set("schema", kJobSpecSchema);
    j.set("version", kJobSpecVersion);
    j.set("command", spec.command);
    j.set("workload", spec.workload);
    j.set("tier", vm::tierName(spec.tier));
    j.set("invocations", spec.invocations);
    j.set("iterations", spec.iterations);
    j.set("jobs", spec.jobs);
    j.set("size", spec.size);
    // Hex like the resume fingerprint: the full uint64 range must
    // survive the round-trip (asInt would lose the top bit).
    j.set("seed",
          strprintf("0x%016llx",
                    static_cast<unsigned long long>(spec.seed)));
    j.set("jit_threshold", spec.jitThreshold);
    j.set("no_noise", spec.noNoise);
    j.set("quiet", spec.quiet);
    j.set("max_retries", spec.maxRetries);
    j.set("deadline_ms", spec.deadlineMs);
    j.set("target_pct", spec.targetPct);
    Json inj = Json::array();
    for (const auto &s : spec.injectSpecs)
        inj.push(s);
    j.set("inject", std::move(inj));
    j.set("json_path", spec.jsonPath);
    j.set("csv_path", spec.csvPath);
    j.set("metrics_path", spec.metricsPath);
    j.set("trace_path", spec.tracePath);
    j.set("archive_dir", spec.archiveDir);
    j.set("label", spec.label);
    j.set("resume_path", spec.resumePath);
    j.set("checkpoint_every", spec.checkpointEvery);
    return j;
}

JobSpec
jobSpecFromJson(const Json &j)
{
    int64_t version = checkHeader(j, "job spec");
    JobSpec spec;
    spec.command = j.at("command").asString();
    // v1 predates the other job commands and target_pct; a queue
    // persisted by such a build still resumes.
    if (version == 1 && spec.command != "run" && spec.command != "suite")
        fatal("job spec: v1 carries only run and suite jobs, got '%s'",
              spec.command.c_str());
    spec.workload = j.at("workload").asString();
    // tierFromName is loud on unknown names, as at every other
    // deserialization site.
    spec.tier = vm::tierFromName(j.at("tier").asString());
    spec.invocations = intField(j, "invocations", 1);
    spec.iterations = intField(j, "iterations", 1);
    spec.jobs = intField(j, "jobs", 1);
    spec.size = j.at("size").asInt();
    if (spec.size < 0)
        fatal("job spec: size must be >= 0, got %lld",
              static_cast<long long>(spec.size));
    spec.seed = seedField(j, "job spec");
    spec.jitThreshold = intField(j, "jit_threshold", 1);
    spec.noNoise = j.at("no_noise").asBool();
    spec.quiet = j.at("quiet").asBool();
    spec.maxRetries = intField(j, "max_retries", 0);
    spec.deadlineMs = j.at("deadline_ms").asDouble();
    if (spec.deadlineMs < 0)
        fatal("job spec: deadline_ms must be >= 0");
    if (version >= 2) {
        spec.targetPct = j.at("target_pct").asDouble();
        if (!(spec.targetPct > 0))
            fatal("job spec: target_pct must be > 0");
    }
    const Json &inj = j.at("inject");
    for (size_t i = 0; i < inj.size(); ++i)
        spec.injectSpecs.push_back(inj.at(i).asString());
    spec.jsonPath = j.at("json_path").asString();
    spec.csvPath = j.at("csv_path").asString();
    spec.metricsPath = j.at("metrics_path").asString();
    spec.tracePath = j.at("trace_path").asString();
    spec.archiveDir = j.at("archive_dir").asString();
    spec.label = j.at("label").asString();
    spec.resumePath = j.at("resume_path").asString();
    spec.checkpointEvery = intField(j, "checkpoint_every", 0);
    validateJobSpec(spec);
    return spec;
}

void
validateQuerySpec(const QuerySpec &q)
{
    if (q.baseTier.empty() != q.candTier.empty())
        fatal("cross-tier comparison needs both --base-tier and "
              "--cand-tier (base_tier '%s', cand_tier '%s')",
              q.baseTier.c_str(), q.candTier.c_str());
    if (!(q.confidence > 0.0 && q.confidence < 1.0))
        fatal("--confidence (confidence) must be in (0, 1), got %g",
              q.confidence);
}

Json
querySpecToJson(const QuerySpec &q)
{
    Json j = Json::object();
    j.set("kind", q.kind);
    j.set("base", q.baseRef);
    j.set("cand", q.candRef);
    j.set("archive_dir", q.archiveDir);
    j.set("resamples", q.resamples);
    j.set("confidence", q.confidence);
    j.set("gate_threshold_pct", q.gateThresholdPct);
    j.set("base_tier", q.baseTier);
    j.set("cand_tier", q.candTier);
    j.set("explain_gate", q.explainGate);
    j.set("seed",
          strprintf("0x%016llx",
                    static_cast<unsigned long long>(q.seed)));
    return j;
}

QuerySpec
querySpecFromJson(const Json &j)
{
    QuerySpec q;
    q.kind = j.at("kind").asString();
    if (q.kind != "compare" && q.kind != "gate" &&
        q.kind != "explain")
        fatal("query spec: unknown kind '%s' (expected compare, "
              "gate or explain)",
              q.kind.c_str());
    q.baseRef = j.at("base").asString();
    q.candRef = j.at("cand").asString();
    q.archiveDir = j.at("archive_dir").asString();
    if (q.archiveDir.empty())
        fatal("query spec: archive_dir is required");
    q.resamples = intField(j, "resamples", 10);
    q.confidence = j.at("confidence").asDouble();
    q.gateThresholdPct = j.at("gate_threshold_pct").asDouble();
    if (q.gateThresholdPct < 0)
        fatal("query spec: gate_threshold_pct must be >= 0");
    q.baseTier = j.at("base_tier").asString();
    q.candTier = j.at("cand_tier").asString();
    q.explainGate = j.at("explain_gate").asBool();
    q.seed = seedField(j, "query spec");
    validateQuerySpec(q);
    return q;
}

} // namespace serve
} // namespace rigor

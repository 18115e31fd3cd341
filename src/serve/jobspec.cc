#include "serve/jobspec.hh"

#include <cerrno>
#include <cstdlib>
#include <limits>

#include "support/logging.hh"
#include "support/schema.hh"
#include "support/str.hh"

namespace rigor {
namespace serve {

namespace {

/** Reject documents that are not the expected schema/version. */
void
checkHeader(const Json &j, const char *what)
{
    if (!j.has("schema") ||
        j.at("schema").asString() != kJobSpecSchema)
        fatal("%s: not a %s document", what, kJobSpecSchema);
    int64_t v = j.at("version").asInt();
    if (v != kJobSpecVersion)
        fatal("%s: unsupported %s version %lld (this build reads "
              "v%d)",
              what, kJobSpecSchema, static_cast<long long>(v),
              kJobSpecVersion);
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

} // namespace

void
validateJobSpec(const JobSpec &spec)
{
    // A suite writes no run document: these would be silently ignored.
    if (spec.command == "suite" && !spec.jsonPath.empty())
        fatal("--json (json_path) applies to 'run' only; a suite "
              "writes no run document (use --archive)");
    if (spec.command == "suite" && !spec.csvPath.empty())
        fatal("--csv (csv_path) applies to 'run' only; a suite "
              "writes no series CSV (use --archive)");
    // A resume path is not required here: a submitted suite arrives
    // without one and the daemon assigns a durable path at admission.
    if (spec.checkpointEvery > 0 && spec.command != "suite")
        fatal("--checkpoint-every (checkpoint_every) requires a "
              "suite job");
    // A resumed suite only re-measures what the interrupted process
    // left unfinished, so archiving it would record a partial picture
    // of the suite as if it were complete.
    if (!spec.archiveDir.empty() && !spec.resumePath.empty())
        fatal("--archive (archive_dir) cannot be combined with "
              "--resume (resume_path); archive the suite in a single "
              "uninterrupted run");
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
    checkHeader(j, "job spec");
    JobSpec spec;
    spec.command = j.at("command").asString();
    if (spec.command != "run" && spec.command != "suite")
        fatal("job spec: unknown command '%s' (expected run or "
              "suite)",
              spec.command.c_str());
    spec.workload = j.at("workload").asString();
    if (spec.command == "run" && spec.workload.empty())
        fatal("job spec: 'run' needs a workload");
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
    {
        const std::string &s = j.at("seed").asString();
        char *end = nullptr;
        errno = 0;
        unsigned long long v = std::strtoull(s.c_str(), &end, 0);
        if (end == s.c_str() || *end != '\0' || errno == ERANGE)
            fatal("job spec: bad seed '%s'", s.c_str());
        spec.seed = v;
    }
    spec.jitThreshold = intField(j, "jit_threshold", 1);
    spec.noNoise = j.at("no_noise").asBool();
    spec.quiet = j.at("quiet").asBool();
    spec.maxRetries = intField(j, "max_retries", 0);
    spec.deadlineMs = j.at("deadline_ms").asDouble();
    if (spec.deadlineMs < 0)
        fatal("job spec: deadline_ms must be >= 0");
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
    if (q.confidence <= 0.0 || q.confidence >= 1.0)
        fatal("query spec: confidence must be in (0, 1)");
    q.gateThresholdPct = j.at("gate_threshold_pct").asDouble();
    if (q.gateThresholdPct < 0)
        fatal("query spec: gate_threshold_pct must be >= 0");
    q.baseTier = j.at("base_tier").asString();
    q.candTier = j.at("cand_tier").asString();
    if (q.baseTier.empty() != q.candTier.empty())
        fatal("query spec: base_tier and cand_tier must be given "
              "together");
    q.explainGate = j.at("explain_gate").asBool();
    {
        const std::string &s = j.at("seed").asString();
        char *end = nullptr;
        errno = 0;
        unsigned long long v = std::strtoull(s.c_str(), &end, 0);
        if (end == s.c_str() || *end != '\0' || errno == ERANGE)
            fatal("query spec: bad seed '%s'", s.c_str());
        q.seed = v;
    }
    return q;
}

} // namespace serve
} // namespace rigor

/**
 * @file
 * Serializable specifications of the work the framework can execute
 * on behalf of a caller: a measurement *job* (`run`, `suite`,
 * `sequential`, `profile` or the one-workload `compare`, the things
 * the daemon queues) and an archive *query* (`compare`, `gate` or
 * `explain` over two entries, which read concurrently with
 * appenders), plus the flag x command table that says which CLI flag
 * applies to which command.
 *
 * A JobSpec is the single configuration carrier shared by the
 * one-shot CLI and the serve daemon: both paths build one and hand it
 * to serve::executeJob, which is how a job submitted over the socket
 * produces artifacts byte-identical to the same flags typed at a
 * shell. The JSON round-trip is exact — the daemon persists its queue
 * through it, and `serve --resume` must restore every pending job
 * bit for bit.
 */

#ifndef RIGOR_SERVE_JOBSPEC_HH
#define RIGOR_SERVE_JOBSPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "support/json.hh"
#include "vm/interp.hh"

namespace rigor {
namespace serve {

/** One queueable measurement job. */
struct JobSpec
{
    /**
     * "run" (one workload, one tier), "suite" (all x all),
     * "sequential" (run until the CI is tight), "profile" (per-opcode
     * profile) or "compare" (interp vs adaptive on one workload).
     */
    std::string command = "run";
    /** Workload name (every command but "suite"). */
    std::string workload;
    /** Tier to measure (run, sequential and profile). */
    vm::Tier tier = vm::Tier::Interp;

    int invocations = 8;
    int iterations = 20;
    int jobs = 1;
    int64_t size = 0;
    uint64_t seed = 0xc0ffee;
    int jitThreshold = harness::kDefaultJitThreshold;
    bool noNoise = false;
    bool quiet = false;
    int maxRetries = 2;
    double deadlineMs = 0.0;
    /** "sequential": target CI half-width, in percent of the mean. */
    double targetPct = 2.0;
    /** Raw --inject specs (measurement and io:* families). */
    std::vector<std::string> injectSpecs;

    // Artifact destinations ("" = not requested).
    std::string jsonPath;
    std::string csvPath;
    std::string metricsPath;
    std::string tracePath;
    std::string archiveDir;
    std::string label;

    // Durability (suite only).
    std::string resumePath;
    int checkpointEvery = 0;
};

/**
 * The rules every job must meet, wherever it comes from: the CLI
 * checks its spec with this before running or submitting,
 * jobSpecFromJson checks every spec the daemon receives or restores,
 * and executeJob checks again before running. A known command, a
 * workload where the command takes one, every field whose "set" state
 * is visible (a non-empty path or label, an --inject spec,
 * checkpoint_every) checked against the flag table, and --archive
 * excluding --resume and --checkpoint-every. Messages name the CLI
 * flag and the spec field.
 * @throws FatalError naming the offending flag.
 */
void validateJobSpec(const JobSpec &spec);

/**
 * The flag x command table. A command *form* is what the CLI runs:
 * a job command ("run", "suite", "sequential", "profile", "compare"
 * with one workload), "compare <base> <cand>", "gate", "explain",
 * "archive list", "archive prune", "fsck", "serve", "submit",
 * "status", "cancel", "shutdown", "list", "env", "version" or
 * "disasm". A flag applies to "submit" when the daemon can carry it;
 * a submitted job's flags must apply to its job command as well.
 *
 * isJobCommand: true for the forms a JobSpec carries
 * (JobSpec::command).
 */
bool isJobCommand(const std::string &form);

/** True when `flag` applies to some job command. */
bool isJobFlag(const std::string &flag);

/** True when `flag` applies to `form` (an unknown one never does). */
bool flagApplies(const std::string &flag, const std::string &form);

/**
 * @throws FatalError for an unknown form, or unless `form` takes
 * `count` positional arguments (submit counts its job command).
 */
void checkArity(const std::string &form, size_t count);

/**
 * Serialize a spec as a versioned document (kJobSpecSchema). The
 * round-trip through jobSpecFromJson is exact.
 */
Json jobSpecToJson(const JobSpec &spec);

/**
 * Parse a spec back, validating the schema/version header, every
 * field range the CLI would have enforced and validateJobSpec.
 * @throws FatalError naming the offending field on any mismatch.
 */
JobSpec jobSpecFromJson(const Json &j);

/** One archive query ("compare", "gate" or "explain"). */
struct QuerySpec
{
    /** "compare", "gate" or "explain". */
    std::string kind = "compare";
    /** Entry refs (HEAD, HEAD~N, id, or label). */
    std::string baseRef;
    std::string candRef;
    std::string archiveDir;
    int resamples = 2000;
    double confidence = 0.95;
    double gateThresholdPct = 5.0;
    /** Cross-tier pairing (both set or both empty). */
    std::string baseTier, candTier;
    /** gate only: append per-failing-pair attribution. */
    bool explainGate = false;
    uint64_t seed = 0xc0ffee;
};

/**
 * The cross-field rules of a query, wherever it comes from (the CLI
 * and querySpecFromJson): --base-tier and --cand-tier together or
 * not at all, and a confidence in (0, 1).
 * @throws FatalError naming the offending flag.
 */
void validateQuerySpec(const QuerySpec &q);

/** Serialize / parse a query (same validation discipline as jobs). */
Json querySpecToJson(const QuerySpec &q);
QuerySpec querySpecFromJson(const Json &j);

} // namespace serve
} // namespace rigor

#endif // RIGOR_SERVE_JOBSPEC_HH

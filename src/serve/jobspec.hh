/**
 * @file
 * Serializable specifications of the work the framework can execute
 * on behalf of a caller: a measurement *job* (`run` or `suite`, the
 * things the daemon queues) and an archive *query* (`compare`, `gate`
 * or `explain`, which read concurrently with appenders).
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

/** One queueable measurement job ("run" or "suite"). */
struct JobSpec
{
    /** "run" (one workload, one tier) or "suite" (all x all). */
    std::string command = "run";
    /** Workload name ("run" only; ignored for "suite"). */
    std::string workload;
    /** Tier to measure ("run" only). */
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
 * The cross-field rules every job must meet, wherever it comes from:
 * the CLI checks its flags with this before running or submitting,
 * jobSpecFromJson checks every spec the daemon receives or restores,
 * and executeJob checks again before running. Messages name the CLI
 * flag and the spec field.
 * @throws FatalError naming the offending flag.
 */
void validateJobSpec(const JobSpec &spec);

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

/** Serialize / parse a query (same validation discipline as jobs). */
Json querySpecToJson(const QuerySpec &q);
QuerySpec querySpecFromJson(const Json &j);

} // namespace serve
} // namespace rigor

#endif // RIGOR_SERVE_JOBSPEC_HH

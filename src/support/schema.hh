/**
 * @file
 * Artifact schema identifiers and versions.
 *
 * Every machine-readable artifact the framework emits (run JSON, CSV
 * series, archive entries, compare reports) carries a `schema` name
 * and a `version` so a reader can tell what it is holding *before*
 * interpreting a single number. Consumers reject mismatches loudly
 * instead of silently mis-parsing measurements from a different
 * layout — the compare engine in particular refuses to put a number
 * on two artifacts it cannot prove comparable.
 *
 * Versions bump when a field changes meaning or layout, not when an
 * optional field is added (readers use Json::get for those).
 */

#ifndef RIGOR_SUPPORT_SCHEMA_HH
#define RIGOR_SUPPORT_SCHEMA_HH

namespace rigor {

/**
 * The binary's own version, printed by `rigorbench version` next to
 * every schema version below so clients (and the serve protocol
 * handshake) can negotiate compatibility.
 */
inline constexpr const char *kRigorbenchVersion = "0.10.0";

/** One experiment run as dumped by harness::runToJson / --json. */
inline constexpr const char *kRunSchema = "rigorbench-run";
inline constexpr int kRunSchemaVersion = 1;

/** Per-iteration sample series as written by --csv. */
inline constexpr const char *kSeriesCsvSchema = "rigorbench-series";
inline constexpr int kSeriesCsvVersion = 1;

/**
 * One archived suite/run entry (archive::RunArchive).
 *
 * v1: fingerprint + config + runs.
 * v2: adds an optional "profiles" array (behavior profiles aligned
 *     with "runs"). Readers accept 1..kArchiveEntryVersion; v1
 *     entries load with no profiles and `explain` degrades loudly.
 */
inline constexpr const char *kArchiveEntrySchema =
    "rigorbench-archive-entry";
inline constexpr int kArchiveEntryVersion = 2;
inline constexpr int kArchiveEntryMinVersion = 1;

/** A compare/gate report (compare::reportToJson). */
inline constexpr const char *kCompareReportSchema =
    "rigorbench-compare";
inline constexpr int kCompareReportVersion = 1;

/** A per-(workload, tier) behavior profile (explain::profileToJson). */
inline constexpr const char *kBehaviorProfileSchema =
    "rigorbench-behavior-profile";
inline constexpr int kBehaviorProfileVersion = 1;

/** A differential explain report (explain::reportToJson). */
inline constexpr const char *kExplainReportSchema =
    "rigorbench-explain";
inline constexpr int kExplainReportVersion = 1;

/** An archive fsck report (archive::fsckToJson). */
inline constexpr const char *kFsckReportSchema = "rigorbench-fsck";
inline constexpr int kFsckReportVersion = 1;

/** A machine-readable archive listing (`archive list --json`). */
inline constexpr const char *kArchiveListSchema =
    "rigorbench-archive-list";
inline constexpr int kArchiveListVersion = 1;

/**
 * A serialized job specification (serve::JobSpec). v2 added the
 * sequential, profile and compare commands and target_pct; v1 (run
 * and suite only) still parses.
 */
inline constexpr const char *kJobSpecSchema = "rigorbench-job";
inline constexpr int kJobSpecVersion = 2;
inline constexpr int kJobSpecMinVersion = 1;

/** The `rigorbench serve` NDJSON request/response protocol. */
inline constexpr const char *kServeProtocolSchema =
    "rigorbench-serve";
inline constexpr int kServeProtocolVersion = 1;

/** The daemon's durable queue state (drain / `serve --resume`). */
inline constexpr const char *kServeQueueSchema =
    "rigorbench-serve-queue";
inline constexpr int kServeQueueVersion = 1;

} // namespace rigor

#endif // RIGOR_SUPPORT_SCHEMA_HH

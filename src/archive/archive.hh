/**
 * @file
 * The run archive: an append-only, durable store of suite/run results
 * that outlives the process that measured them.
 *
 * Every entry is one checksummed durable_io state envelope in the
 * archive directory (`entry-NNNNNN.json`), holding the
 * measurement-determining configuration, its fingerprint, and the
 * full per-invocation/per-iteration samples of every run — enough to
 * re-run any analysis offline, not just the summary numbers. Entries
 * are never modified after the append; ids grow monotonically even
 * across prunes, so a ref recorded in a lab notebook stays valid.
 *
 * A corrupted entry (truncated write, bit rot) is recovered from its
 * `.bak` when one exists; when both copies are unusable the file is
 * quarantined — renamed aside with a warning — and the scan
 * continues, so one bad entry cannot take the whole archive down.
 *
 * Mutating operations (append, prune) serialize on an advisory
 * `.lock` flock inside the directory, so two processes appending at
 * once cannot assign the same id. Reads never block on the lock:
 * a scan that would quarantine while another writer holds the lock
 * degrades to read-only and leaves the damaged file for the next
 * scan (or `rigorbench fsck`) to handle.
 */

#ifndef RIGOR_ARCHIVE_ARCHIVE_HH
#define RIGOR_ARCHIVE_ARCHIVE_HH

#include <string>
#include <vector>

#include "harness/measurement.hh"
#include "support/json.hh"

namespace rigor {
namespace archive {

/** Identity and shape of one archived entry (no samples loaded). */
struct EntrySummary
{
    /** Monotonic sequence number; never reused, even after prune. */
    int id = 0;
    /** Path of the entry file inside the archive directory. */
    std::string path;
    /** Fingerprint of the measurement-determining configuration. */
    std::string fingerprint;
    /** Optional user-chosen name ("" when unlabeled). */
    std::string label;
    /** Subcommand that produced the entry ("run" or "suite"). */
    std::string command;
    /** Number of archived (workload, tier) runs. */
    int runCount = 0;
    /** Runs carrying a behavior profile (0 for legacy entries). */
    int profileCount = 0;
    /** On-disk size of the entry file in bytes. */
    uint64_t sizeBytes = 0;
    /** Tiers the entry's configuration names (archived order). */
    std::vector<std::string> tiers;
};

/** One fully-loaded archive entry. */
struct Entry
{
    EntrySummary summary;
    /** The configuration the fingerprint was computed from. */
    Json config;
    /** Full runs, in archived order (workload, then tier). */
    std::vector<harness::RunResult> runs;
    /**
     * Behavior profiles aligned with `runs` (profiles[i] explains
     * runs[i]; null for a run whose profile is missing). Empty for
     * legacy (v1) entries — `explain` then degrades with a loud
     * per-pair note instead of guessing.
     */
    std::vector<Json> profiles;
};

/** Outcome of scanning the archive directory. */
struct ScanResult
{
    /** Valid entries in ascending id order. */
    std::vector<EntrySummary> entries;
    /** Files quarantined during this scan (renamed aside). */
    std::vector<std::string> quarantined;
    /**
     * Quarantined files the directory holds in total (earlier scans
     * and fsck runs included), so `archive list` can point at damage
     * even when this scan quarantined nothing new.
     */
    int quarantinedPresent = 0;
    /**
     * Entries whose bytes this scan confirmed with one CRC-32 over
     * the whole file, against bytes an earlier scan in this process
     * verified in full (see scan()). Observability for tests; no
     * output or artifact carries it.
     */
    int confirmedByFileCrc = 0;
};

/**
 * How many archive directories scan() remembers verified entries for;
 * the least recently scanned directory is forgotten first.
 */
constexpr size_t kScanMemoDirectories = 8;

/** How an entry payload relates to this build's archive-entry schema. */
enum class PayloadState
{
    Ok,     ///< readable by this build
    Future, ///< healthy data from a newer build — hands off
    Bad,    ///< not an archive entry (or structurally broken)
};

/**
 * The one "usable payload" check of scan(), load() and fsck: the
 * schema and version, and every member summaryFromPayload() reads,
 * with its type. On anything but Ok, `why` says what is wrong.
 */
PayloadState checkPayload(const Json &payload, std::string *why);

/**
 * Verify one entry file's text, as scan() and fsck do. When the bytes
 * are canonical (verifyCanonicalState) `payload` gets a skeleton:
 * every member as written, except that each element of `runs` is
 * null and each element of `profiles` is null or `{}`. That is all
 * checkPayload() and summaryFromPayload() read, with no samples
 * built. Otherwise the tree path (verifyStateText) decides, and
 * `payload` gets the whole payload.
 * @return false with a diagnosis in `why` (when non-null) when the
 * envelope does not verify.
 */
bool verifyEntryText(const std::string &text, Json *payload,
                     std::string *why);

/** Summary of a payload (or its skeleton) checkPayload() accepted. */
EntrySummary summaryFromPayload(const Json &payload, int id,
                                const std::string &path);

/**
 * An archive rooted at one directory. Operations are deterministic:
 * scans sort by id, so two scans of the same directory agree on every
 * platform.
 */
class RunArchive
{
  public:
    /** Open (without touching) the archive at `dir`. */
    explicit RunArchive(std::string dir);

    const std::string &dir() const { return dir_; }

    /**
     * Append a new entry holding `runs` measured under `config`. The
     * directory is created if missing; the entry is written through
     * the durable_io envelope (atomic replace + CRC-32) under the
     * archive lock, and orphaned `.tmp` staging files left by
     * previously interrupted writes are swept first (after their ids
     * are counted, so ids are still never reused).
     * `profiles`, when non-empty, must align with `runs` (one
     * behavior-profile document per run, explain::profileToJson).
     * @return the new entry's id.
     * @throws FatalError on I/O failure, when runs is empty, on a
     * profiles/runs length mismatch, or when the archive lock cannot
     * be acquired within the retry budget.
     */
    int append(const Json &config, const std::string &label,
               const std::string &command,
               const std::vector<harness::RunResult> &runs,
               const std::vector<Json> &profiles = {});

    /**
     * Scan the directory. Unreadable or corrupted entries (after the
     * `.bak` fallback) are quarantined with a warning instead of
     * aborting; entries whose inner schema is from a future build are
     * skipped with a warning but left in place.
     *
     * Every entry file is read and checked against a CRC-32 on every
     * scan. An entry whose main copy verified in full is remembered
     * process-wide (its length, a CRC-32 over the whole file and its
     * summary, for the kScanMemoDirectories most recently scanned
     * directories); a later scan that reads the same length and
     * whole-file CRC reuses the summary instead of verifying the
     * envelope again. Any other bytes take the full path. load() and
     * fsckArchive() never use the memo.
     */
    ScanResult scan() const;

    /**
     * Load one entry in full (samples included).
     * @throws FatalError when the file is unusable or its schema
     * does not match this build.
     */
    Entry load(const EntrySummary &summary) const;

    /**
     * Resolve a ref to a loaded entry. Accepted forms: "HEAD" (the
     * newest entry), "HEAD~N" (N entries before the newest), a
     * decimal id, or a label (the newest entry carrying it).
     * @throws FatalError with the available refs when nothing
     * matches.
     */
    Entry resolve(const std::string &ref) const;

    /**
     * Resolve a ref against an earlier scan() of this archive, so a
     * query naming two refs checks every entry once, not twice.
     */
    Entry resolve(const ScanResult &scanned,
                  const std::string &ref) const;

    /**
     * Delete all but the newest `keep` valid entries (their `.bak`
     * files included), under the archive lock. Quarantined files are
     * kept for forensics.
     * @return the number of entries removed.
     * @throws FatalError when the lock cannot be acquired within the
     * retry budget.
     */
    int prune(int keep);

    /** Path of the advisory lock file inside the archive. */
    std::string lockPath() const;

  private:
    std::string entryPath(int id) const;

    std::string dir_;
};

} // namespace archive
} // namespace rigor

#endif // RIGOR_ARCHIVE_ARCHIVE_HH

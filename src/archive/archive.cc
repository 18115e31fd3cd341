#include "archive/archive.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "archive/entry_format.hh"
#include "harness/report.hh"
#include "support/durable_io.hh"
#include "support/filelock.hh"
#include "support/fingerprint.hh"
#include "support/logging.hh"
#include "support/parallel.hh"
#include "support/schema.hh"
#include "support/str.hh"

namespace fs = std::filesystem;

namespace rigor {
namespace archive {

namespace {

/**
 * Json::Span depth of the deepest values a skeleton looks at: the
 * envelope is 0, the payload 1, its members 2, and the elements of
 * `runs` and `profiles` 3.
 */
constexpr int kSkeletonDepth = 3;

/** The skeleton verifyEntryText() describes, of a canonical payload. */
Json
skeletonOf(const CanonicalState &canon)
{
    std::string_view s = canon.text;
    if (s[canon.payloadBegin] != '{')
        return Json::parse(canon.payload());
    // The envelope's other members are scalars, so every depth-2
    // span is a payload member, followed by its depth-3 children.
    const auto &spans = canon.outline;
    auto bytes = [&](size_t begin, size_t end) {
        return s.substr(begin, end - begin);
    };
    std::string skel = "{";
    for (size_t i = 0; i < spans.size(); ++i) {
        const Json::Span &m = spans[i];
        if (m.depth != 2)
            continue;
        if (skel.size() > 1)
            skel += ',';
        std::string_view key = bytes(m.keyBegin, m.keyEnd);
        skel += key;
        skel += ':';
        bool runs = key == "\"runs\"";
        if (!(runs || key == "\"profiles\"") || s[m.begin] != '[') {
            skel += bytes(m.begin, m.end);
            continue;
        }
        skel += '[';
        for (size_t j = i + 1; j < spans.size() && spans[j].depth > 2;
             ++j) {
            if (skel.back() != '[')
                skel += ',';
            bool null = runs ||
                bytes(spans[j].begin, spans[j].end) == "null";
            skel += null ? "null" : "{}";
        }
        skel += ']';
    }
    skel += '}';
    return Json::parse(skel);
}

/**
 * What a scan remembers of one entry whose main copy verified and
 * checkPayload() accepted: the file's length, a CRC-32 over all its
 * bytes, and the summary those bytes gave.
 */
struct VerifiedBytes
{
    uint64_t length = 0;
    uint32_t crc = 0;
    EntrySummary summary;
};

/** What one scan verified, by entry path. */
using VerifiedEntries = std::unordered_map<std::string, VerifiedBytes>;

/**
 * The process-wide scan memo: for each of the kScanMemoDirectories
 * most recently scanned directories, what its last scan verified.
 * Process-wide because every query (CLI, daemon, selfbench) builds a
 * fresh RunArchive. A stored set is never changed, so a scan reads
 * its snapshot on helper threads without the lock.
 */
class ScanMemo
{
  public:
    std::shared_ptr<const VerifiedEntries>
    lookup(const std::string &dir)
    {
        std::lock_guard<std::mutex> guard(mu_);
        for (const auto &slot : slots_)
            if (slot.first == dir)
                return slot.second;
        return nullptr;
    }

    /**
     * Replace `dir`'s slot with `verified` (dropping it when empty),
     * most recently scanned first; evict the least recently scanned
     * past the bound.
     */
    void
    store(const std::string &dir,
          std::shared_ptr<const VerifiedEntries> verified)
    {
        std::lock_guard<std::mutex> guard(mu_);
        auto it = std::find_if(slots_.begin(), slots_.end(),
                               [&](const auto &slot) {
                                   return slot.first == dir;
                               });
        if (it != slots_.end())
            slots_.erase(it);
        if (verified->empty())
            return;
        slots_.emplace(slots_.begin(), dir, std::move(verified));
        if (slots_.size() > kScanMemoDirectories)
            slots_.pop_back();
    }

  private:
    std::mutex mu_;
    std::vector<
        std::pair<std::string, std::shared_ptr<const VerifiedEntries>>>
        slots_;
};

ScanMemo &
scanMemo()
{
    static ScanMemo memo;
    return memo;
}

/**
 * What scan()'s parallel step found out about one entry file: the
 * payload of its main copy (a skeleton when the bytes are canonical)
 * and checkPayload()'s verdict, when the main copy verified; or the
 * summary the memo holds for the same bytes.
 */
struct ScannedEntry
{
    /**
     * False, with nothing remembered: the commit loop falls back to
     * the backup.
     */
    bool verified = false;
    Json payload;
    PayloadState state = PayloadState::Bad;
    std::string why;
    /** Length and whole-file CRC-32 of the main copy's bytes. */
    uint64_t length = 0;
    uint32_t crc = 0;
    /** The memo's summary of these bytes, when it holds them. */
    const EntrySummary *remembered = nullptr;
};

/**
 * Verify the main copy of one entry: bytes an earlier scan verified
 * (same length, same CRC-32 over the whole file) reuse its summary;
 * any other bytes take the full check. No fsOps(), no log call: it
 * runs on parallelFor helpers.
 */
void
verifyMainCopy(const std::string &path, const VerifiedEntries *memo,
               ScannedEntry &out)
{
    std::string text;
    if (!readFile(path, text))
        return;
    out.length = text.size();
    out.crc = crc32(text);
    if (memo) {
        auto hit = memo->find(path);
        if (hit != memo->end() && hit->second.length == out.length &&
            hit->second.crc == out.crc) {
            out.remembered = &hit->second.summary;
            return;
        }
    }
    if (!verifyEntryText(text, &out.payload, nullptr))
        return;
    out.state = checkPayload(out.payload, &out.why);
    out.verified = true;
}

} // namespace

PayloadState
checkPayload(const Json &payload, std::string *why)
{
    const Json *schema = payload.get("schema");
    if (!schema || schema->type() != Json::Type::String ||
        schema->asString() != kArchiveEntrySchema) {
        *why = strprintf("payload is not a %s document",
                         kArchiveEntrySchema);
        return PayloadState::Bad;
    }
    const Json *version = payload.get("version");
    if (!version || version->type() != Json::Type::Int) {
        *why = "payload has no integer version";
        return PayloadState::Bad;
    }
    int64_t v = version->asInt();
    if (v > kArchiveEntryVersion) {
        *why = strprintf("version %lld is newer than this build's "
                         "%d..%d",
                         static_cast<long long>(v),
                         kArchiveEntryMinVersion,
                         kArchiveEntryVersion);
        return PayloadState::Future;
    }
    if (v < kArchiveEntryMinVersion) {
        *why = strprintf("version %lld predates the supported "
                         "%d..%d",
                         static_cast<long long>(v),
                         kArchiveEntryMinVersion,
                         kArchiveEntryVersion);
        return PayloadState::Bad;
    }
    auto isString = [](const Json *j) {
        return j && j->type() == Json::Type::String;
    };
    auto isArray = [](const Json *j) {
        return j && j->type() == Json::Type::Array;
    };
    if (!isString(payload.get("fingerprint"))) {
        *why = "payload has no fingerprint";
        return PayloadState::Bad;
    }
    if (!isString(payload.get("command"))) {
        *why = "payload has no command";
        return PayloadState::Bad;
    }
    const Json *runs = payload.get("runs");
    if (!isArray(runs) || runs->size() == 0) {
        *why = "payload has no runs";
        return PayloadState::Bad;
    }
    // The optional members a summary reads.
    const Json *label = payload.get("label");
    if (label && !isString(label)) {
        *why = "payload label is not a string";
        return PayloadState::Bad;
    }
    const Json *profiles = payload.get("profiles");
    if (profiles && !isArray(profiles)) {
        *why = "payload profiles is not an array";
        return PayloadState::Bad;
    }
    const Json *config = payload.get("config");
    if (const Json *tiers = config ? config->get("tiers") : nullptr) {
        bool ok = isArray(tiers);
        for (size_t i = 0; ok && i < tiers->size(); ++i)
            ok = isString(&tiers->at(i));
        if (!ok) {
            *why = "payload config tiers is not a list of names";
            return PayloadState::Bad;
        }
    }
    return PayloadState::Ok;
}

bool
verifyEntryText(const std::string &text, Json *payload,
                std::string *why)
{
    CanonicalState canon;
    if (verifyCanonicalState(text, canon, kSkeletonDepth)) {
        try {
            *payload = skeletonOf(canon);
            return true;
        } catch (const FatalError &) {
            // A CRC collision on bytes that do not parse: let the
            // tree path word the verdict.
        }
    }
    return verifyStateText(text, payload, why);
}

EntrySummary
summaryFromPayload(const Json &payload, int id,
                   const std::string &path)
{
    EntrySummary s;
    s.id = id;
    s.path = path;
    s.fingerprint = payload.at("fingerprint").asString();
    if (const Json *label = payload.get("label"))
        s.label = label->asString();
    s.command = payload.at("command").asString();
    s.runCount = static_cast<int>(payload.at("runs").size());
    // v2 entries carry a profiles array aligned with runs; a v1
    // entry (or a null slot) simply has no profile for that run.
    if (const Json *profiles = payload.get("profiles"))
        for (size_t i = 0; i < profiles->size(); ++i)
            if (!profiles->at(i).isNull())
                ++s.profileCount;
    // The config's tier list, for machine-readable listings. Guarded:
    // a hand-built or future entry without one still lists.
    if (const Json *config = payload.get("config"))
        if (const Json *tiers = config->get("tiers"))
            for (size_t i = 0; i < tiers->size(); ++i)
                s.tiers.push_back(tiers->at(i).asString());
    std::error_code ec;
    uintmax_t size = fs::file_size(path, ec);
    s.sizeBytes = ec ? 0 : static_cast<uint64_t>(size);
    return s;
}

RunArchive::RunArchive(std::string dir) : dir_(std::move(dir))
{
    if (dir_.empty())
        fatal("archive directory must not be empty");
}

std::string
RunArchive::entryPath(int id) const
{
    return dir_ + "/" + entryFileName(id);
}

std::string
RunArchive::lockPath() const
{
    return dir_ + "/" + kLockFileName;
}

int
RunArchive::append(const Json &config, const std::string &label,
                   const std::string &command,
                   const std::vector<harness::RunResult> &runs,
                   const std::vector<Json> &profiles)
{
    if (runs.empty())
        fatal("refusing to archive an entry with no runs");
    if (!profiles.empty() && profiles.size() != runs.size())
        fatal("profiles (%zu) do not align with runs (%zu)",
              profiles.size(), runs.size());
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec)
        fatal("cannot create archive directory %s: %s", dir_.c_str(),
              ec.message().c_str());

    // The scan-then-write below is what the lock protects: two
    // unlocked appenders would compute the same next id and one
    // entry would silently clobber the other.
    FileLock lock = FileLock::acquire(lockPath());
    if (!lock.held())
        fatal("archive %s is locked by another process (lock file "
              "%s); giving up after retries",
              dir_.c_str(), lockPath().c_str());

    int maxId = 0;
    std::vector<std::string> staleTmp;
    for (const auto &e : fs::directory_iterator(dir_, ec)) {
        std::string name = e.path().filename().string();
        maxId = std::max(maxId, anyIdFromName(name));
        if (isTmpName(name))
            staleTmp.push_back(e.path().string());
    }
    if (ec)
        fatal("cannot scan archive directory %s: %s", dir_.c_str(),
              ec.message().c_str());
    int id = maxId + 1;

    // Sweep staging files orphaned by interrupted writes — but only
    // now, after their ids were counted above, so a crash between
    // staging and rename can never cause an id to be handed out
    // twice.
    for (const auto &tmp : staleTmp)
        if (fsOps().unlink(tmp.c_str()) == 0)
            warn("removed orphaned temporary %s left by an "
                 "interrupted write",
                 tmp.c_str());

    Json payload = Json::object();
    payload.set("schema", kArchiveEntrySchema);
    payload.set("version", kArchiveEntryVersion);
    payload.set("fingerprint", fingerprintJson(config));
    if (!label.empty())
        payload.set("label", label);
    payload.set("command", command);
    payload.set("config", config);
    Json rs = Json::array();
    for (const auto &r : runs)
        rs.push(harness::runToJson(r));
    payload.set("runs", std::move(rs));
    if (!profiles.empty()) {
        Json ps = Json::array();
        for (const auto &p : profiles)
            ps.push(p);
        payload.set("profiles", std::move(ps));
    }
    writeStateFile(entryPath(id), payload);
    return id;
}

ScanResult
RunArchive::scan() const
{
    ScanResult out;
    std::error_code ec;
    std::vector<std::pair<int, std::string>> files;
    for (const auto &e : fs::directory_iterator(dir_, ec)) {
        std::string name = e.path().filename().string();
        if (isQuarantineName(name))
            ++out.quarantinedPresent;
        int id = entryIdFromName(name);
        if (id >= 0)
            files.emplace_back(id, e.path().string());
    }
    if (ec)
        fatal("cannot scan archive directory %s: %s", dir_.c_str(),
              ec.message().c_str());
    std::sort(files.begin(), files.end());

    // Verify in parallel, commit in order: every entry's main copy is
    // read and checked independently, then the loop below warns,
    // falls back to backups, takes the lock and quarantines in id
    // order, exactly as a serial scan would.
    std::vector<ScannedEntry> scanned(files.size());
    std::shared_ptr<const VerifiedEntries> memo =
        scanMemo().lookup(dir_);
    parallelFor(files.size(), [&](size_t k) {
        verifyMainCopy(files[k].second, memo.get(), scanned[k]);
    });
    // What this scan verified: the memo's next slot for dir_.
    auto verified = std::make_shared<VerifiedEntries>();
    auto remember = [&](const std::string &path,
                        const ScannedEntry &entry) {
        verified->emplace(path, VerifiedBytes{entry.length, entry.crc,
                                              out.entries.back()});
    };

    // The lock is taken lazily, only if something needs
    // quarantining: clean archives — the overwhelmingly common case —
    // scan without touching the lock at all.
    FileLock lock;
    bool lockTried = false;

    for (size_t k = 0; k < files.size(); ++k) {
        const auto &[id, path] = files[k];
        ScannedEntry &entry = scanned[k];
        try {
            if (entry.remembered) {
                out.entries.push_back(*entry.remembered);
                ++out.confirmedByFileCrc;
                remember(path, entry);
                continue;
            }
            if (!entry.verified) {
                // loadStateFile tries the backup and words the error.
                StateLoad load = loadStateFile(path);
                if (load.usedBackup)
                    warn("%s", load.warning.c_str());
                entry.payload = std::move(load.payload);
                entry.state = checkPayload(entry.payload, &entry.why);
            }
            if (entry.state == PayloadState::Future) {
                // Written by a future build: perfectly healthy data
                // this build cannot interpret. Skip, never
                // quarantine — downgrades must not eat archives.
                warn("%s has %s version %lld; this build reads "
                     "versions %d..%d, leaving it in place",
                     path.c_str(), kArchiveEntrySchema,
                     static_cast<long long>(
                         entry.payload.at("version").asInt()),
                     kArchiveEntryMinVersion, kArchiveEntryVersion);
                continue;
            }
            if (entry.state == PayloadState::Bad)
                fatal("%s: %s", path.c_str(), entry.why.c_str());
            out.entries.push_back(
                summaryFromPayload(entry.payload, id, path));
            // Remember bytes that passed on their own, not a backup's
            // (and not a file that changed size after it was read).
            if (entry.verified &&
                out.entries.back().sizeBytes == entry.length)
                remember(path, entry);
        } catch (const FatalError &e) {
            // Both the file and its backup are unusable (or its
            // schema is foreign): quarantine instead of aborting the
            // scan — one rotten entry must not hide the healthy rest
            // of the archive. The rename keeps the bytes around for
            // forensics while taking the file out of future scans.
            if (!lockTried) {
                lockTried = true;
                lock = FileLock::tryAcquire(lockPath());
            }
            if (!lock.held()) {
                warn("archive entry %s is unusable (%s); the archive "
                     "is locked by a writer, leaving the file in "
                     "place (read-only scan)",
                     path.c_str(), e.what());
                continue;
            }
            std::string aside = quarantineTarget(path);
            if (fsOps().rename(path.c_str(), aside.c_str()) == 0) {
                warn("archive entry %s is unusable (%s); "
                     "quarantined as %s",
                     path.c_str(), e.what(), aside.c_str());
                out.quarantined.push_back(aside);
                ++out.quarantinedPresent;
            } else {
                warn("archive entry %s is unusable (%s) and could "
                     "not be quarantined: %s",
                     path.c_str(), e.what(), std::strerror(errno));
            }
        }
    }
    scanMemo().store(dir_, std::move(verified));
    return out;
}

Entry
RunArchive::load(const EntrySummary &summary) const
{
    StateLoad stateLoad = loadStateFile(summary.path);
    if (stateLoad.usedBackup)
        warn("%s", stateLoad.warning.c_str());
    const Json &payload = stateLoad.payload;
    std::string why;
    if (checkPayload(payload, &why) != PayloadState::Ok)
        fatal("%s: %s", summary.path.c_str(), why.c_str());
    Entry entry;
    entry.summary = summaryFromPayload(payload, summary.id,
                                       summary.path);
    entry.config = payload.at("config");
    const Json &rs = payload.at("runs");
    for (size_t i = 0; i < rs.size(); ++i)
        entry.runs.push_back(harness::runFromJson(rs.at(i)));
    if (const Json *ps = payload.get("profiles")) {
        for (size_t i = 0; i < ps->size(); ++i)
            entry.profiles.push_back(ps->at(i));
        // Keep the alignment invariant even for a short array
        // written by a buggy producer: pad with nulls, never guess.
        while (entry.profiles.size() < entry.runs.size())
            entry.profiles.push_back(Json());
    }
    return entry;
}

Entry
RunArchive::resolve(const std::string &ref) const
{
    return resolve(scan(), ref);
}

Entry
RunArchive::resolve(const ScanResult &scanned,
                    const std::string &ref) const
{
    const auto &entries = scanned.entries;
    if (entries.empty())
        fatal("archive %s holds no usable entries", dir_.c_str());

    const EntrySummary *hit = nullptr;
    size_t back = 0;
    bool isHead = ref == "HEAD";
    if (!isHead && startsWith(ref, "HEAD~")) {
        std::string digits = ref.substr(5);
        isHead = !digits.empty() &&
            digits.find_first_not_of("0123456789") ==
                std::string::npos;
        if (isHead)
            back = static_cast<size_t>(
                std::strtoul(digits.c_str(), nullptr, 10));
    }
    if (isHead) {
        if (back >= entries.size())
            fatal("ref '%s' reaches past the oldest of %zu "
                  "archived entries",
                  ref.c_str(), entries.size());
        hit = &entries[entries.size() - 1 - back];
    } else if (!ref.empty() &&
               ref.find_first_not_of("0123456789") ==
                   std::string::npos) {
        int id = static_cast<int>(
            std::strtol(ref.c_str(), nullptr, 10));
        for (const auto &e : entries)
            if (e.id == id)
                hit = &e;
        if (!hit)
            fatal("no archive entry with id %d in %s", id,
                  dir_.c_str());
    } else {
        // Labels may be re-used across entries; the newest wins, so a
        // rolling label like "baseline" always names the latest run
        // that was blessed with it.
        for (const auto &e : entries)
            if (e.label == ref)
                hit = &e;
        if (!hit) {
            std::vector<std::string> labels;
            for (const auto &e : entries)
                if (!e.label.empty())
                    labels.push_back(e.label);
            fatal("no archive entry labeled '%s' in %s "
                  "(labels: %s; ids 1..%d; HEAD/HEAD~N)",
                  ref.c_str(), dir_.c_str(),
                  labels.empty() ? "none"
                                 : join(labels, ", ").c_str(),
                  entries.back().id);
        }
    }
    return load(*hit);
}

int
RunArchive::prune(int keep)
{
    if (keep < 1)
        fatal("prune must keep at least one entry (got %d)", keep);
    // Lock before scanning: two unlocked pruners would race to
    // remove the same files and the loser would die on a vanished
    // path. Holding the lock also makes the in-process scan() below
    // read-only (its lazy tryAcquire fails), which is correct —
    // entries it cannot read are not prunable anyway.
    FileLock lock = FileLock::acquire(lockPath());
    if (!lock.held())
        fatal("archive %s is locked by another process (lock file "
              "%s); giving up after retries",
              dir_.c_str(), lockPath().c_str());
    ScanResult scanned = scan();
    int removed = 0;
    size_t n = scanned.entries.size();
    for (size_t i = 0; i + static_cast<size_t>(keep) < n; ++i) {
        const auto &e = scanned.entries[i];
        if (fsOps().unlink(e.path.c_str()) != 0)
            fatal("cannot remove archive entry %s: %s",
                  e.path.c_str(), std::strerror(errno));
        // best-effort: a missing backup is no error
        (void)fsOps().unlink(stateBackupPath(e.path).c_str());
        ++removed;
    }
    return removed;
}

} // namespace archive
} // namespace rigor

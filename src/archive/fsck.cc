#include "archive/fsck.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <set>

#include "archive/archive.hh"
#include "archive/entry_format.hh"
#include "support/durable_io.hh"
#include "support/filelock.hh"
#include "support/logging.hh"
#include "support/parallel.hh"
#include "support/schema.hh"
#include "support/str.hh"

namespace fs = std::filesystem;

namespace rigor {
namespace archive {

namespace {

/**
 * Read `path` and verify envelope + payload in one go, with scan()'s
 * verifier. A restore rewrites the payload it is given, so with
 * `payload` non-null the tree path supplies the whole of it.
 * @return Ok/Future/Bad; `payload` and `why` as in the parts.
 */
PayloadState
verifyEntryFile(const std::string &path, Json *payload,
                std::string *why)
{
    std::string text;
    if (!readFile(path, text)) {
        *why = "cannot read file";
        return PayloadState::Bad;
    }
    Json inner;
    if (!(payload ? verifyStateText(text, &inner, why)
                  : verifyEntryText(text, &inner, why)))
        return PayloadState::Bad;
    PayloadState state = checkPayload(inner, why);
    if (payload)
        *payload = std::move(inner);
    return state;
}

/** Everything fsck needs to know about the directory's contents. */
struct DirListing
{
    /** (id, filename) of every entry-DIGITS.json, sorted. */
    std::vector<std::pair<int, std::string>> mains;
    /** Filenames of entry backups (entry-DIGITS.json.bak). */
    std::vector<std::string> baks;
    /** Staging files from interrupted atomic writes. */
    std::vector<std::string> tmps;
    /** Files that belong to no known category. */
    std::vector<std::string> strays;
    /** Every filename present (for collision checks). */
    std::set<std::string> names;
    int quarantineCount = 0;
};

DirListing
listDir(const std::string &dir)
{
    DirListing out;
    std::error_code ec;
    for (const auto &e : fs::directory_iterator(dir, ec)) {
        std::string name = e.path().filename().string();
        out.names.insert(name);
        if (name == kLockFileName)
            continue;
        if (isQuarantineName(name)) {
            ++out.quarantineCount;
            continue;
        }
        if (isTmpName(name)) {
            out.tmps.push_back(name);
            continue;
        }
        if (endsWith(name, ".bak") &&
            entryIdFromName(name.substr(0, name.size() - 4)) >= 0) {
            out.baks.push_back(name);
            continue;
        }
        int id = entryIdFromName(name);
        if (id >= 0) {
            out.mains.emplace_back(id, name);
            continue;
        }
        out.strays.push_back(name);
    }
    if (ec)
        fatal("cannot scan archive directory %s: %s", dir.c_str(),
              ec.message().c_str());
    std::sort(out.mains.begin(), out.mains.end());
    std::sort(out.baks.begin(), out.baks.end());
    std::sort(out.tmps.begin(), out.tmps.end());
    std::sort(out.strays.begin(), out.strays.end());
    return out;
}

/** fsck working state threaded through the per-category passes. */
struct FsckPass
{
    std::string dir;
    bool repair = false;
    FsckReport *report = nullptr;

    std::string fullPath(const std::string &name) const
    {
        return dir + "/" + name;
    }

    FsckFinding &addFinding(const std::string &name,
                            const std::string &kind,
                            const std::string &detail)
    {
        FsckFinding f;
        f.path = fullPath(name);
        f.kind = kind;
        f.detail = detail;
        report->findings.push_back(std::move(f));
        return report->findings.back();
    }

    /** Quarantine `name`; returns true (and sets action) on success. */
    bool quarantine(const std::string &name, FsckFinding &f)
    {
        std::string path = fullPath(name);
        std::string aside = quarantineTarget(path);
        if (fsOps().rename(path.c_str(), aside.c_str()) != 0) {
            f.action = strprintf("quarantine failed: %s",
                                 std::strerror(errno));
            return false;
        }
        f.action = strprintf("quarantined as %s", aside.c_str());
        f.repaired = true;
        ++report->quarantinedPresent;
        return true;
    }
};

} // namespace

int
FsckReport::defects() const
{
    int n = 0;
    for (const auto &f : findings)
        if (!f.notice)
            ++n;
    return n;
}

int
FsckReport::repairedCount() const
{
    int n = 0;
    for (const auto &f : findings)
        if (!f.notice && f.repaired)
            ++n;
    return n;
}

FsckReport
fsckArchive(const std::string &dir, bool repair,
            MetricsRegistry *metrics)
{
    if (!fs::is_directory(dir))
        fatal("archive directory %s does not exist", dir.c_str());

    FsckReport report;
    report.dir = dir;
    report.repairMode = repair;

    // Repair mutates the directory exactly like a writer, so it takes
    // the writer lock; a verify-only pass is read-only and must never
    // block a live suite run.
    FileLock lock;
    if (repair) {
        lock = FileLock::acquire(dir + "/" + kLockFileName);
        if (!lock.held())
            fatal("archive %s is locked by another process; retry "
                  "when the writer finishes",
                  dir.c_str());
    }

    DirListing listing = listDir(dir);
    report.quarantinedPresent = listing.quarantineCount;

    FsckPass pass;
    pass.dir = dir;
    pass.repair = repair;
    pass.report = &report;

    int orphanTmp = 0;

    // --- staging temporaries -----------------------------------------
    for (const auto &name : listing.tmps) {
        ++orphanTmp;
        FsckFinding &f = pass.addFinding(
            name, "orphan-tmp",
            "staging file left by an interrupted atomic write");
        if (!repair) {
            f.action = "remove";
            continue;
        }
        if (fsOps().unlink(pass.fullPath(name).c_str()) == 0) {
            f.action = "removed";
            f.repaired = true;
        } else {
            f.action = strprintf("remove failed: %s",
                                 std::strerror(errno));
        }
    }

    // --- entry files --------------------------------------------------
    // Verify in parallel, commit in order: every main copy is checked
    // on its own (a rename below does not change its bytes), then the
    // loop records findings and repairs in id order.
    std::vector<std::pair<PayloadState, std::string>> checks(
        listing.mains.size());
    parallelFor(checks.size(), [&](size_t k) {
        auto &[state, why] = checks[k];
        state = verifyEntryFile(pass.fullPath(listing.mains[k].second),
                                nullptr, &why);
    });

    // Names that verified (or were repaired into verifying); baks are
    // matched against this set afterwards.
    std::set<std::string> healthyMains;

    for (size_t k = 0; k < listing.mains.size(); ++k) {
        auto &[id, name] = listing.mains[k];
        ++report.entriesScanned;

        // Naming first: a non-canonical digit count (entry-7.json)
        // aliases the canonical file's id, which would make refs
        // ambiguous. Rename when the canonical slot is free,
        // quarantine when it is taken.
        std::string canonical = entryFileName(id);
        if (name != canonical) {
            bool slotTaken = listing.names.count(canonical) > 0;
            FsckFinding &f = pass.addFinding(
                name, slotTaken ? "duplicate-id" : "non-canonical-name",
                slotTaken
                    ? strprintf("parses to id %d, which %s already "
                                "holds",
                                id, canonical.c_str())
                    : strprintf("parses to id %d but is not the "
                                "canonical %s",
                                id, canonical.c_str()));
            if (!repair) {
                f.action = slotTaken ? "quarantine"
                                     : strprintf("rename to %s",
                                                 canonical.c_str());
                continue;
            }
            if (slotTaken) {
                pass.quarantine(name, f);
                continue;
            }
            if (fsOps().rename(pass.fullPath(name).c_str(),
                               pass.fullPath(canonical).c_str()) !=
                0) {
                f.action = strprintf("rename failed: %s",
                                     std::strerror(errno));
                continue;
            }
            f.action = strprintf("renamed to %s", canonical.c_str());
            f.repaired = true;
            listing.names.insert(canonical);
            name = canonical; // fall through to content checks
        }

        const auto &[state, why] = checks[k];
        if (state == PayloadState::Ok) {
            ++report.entriesOk;
            report.headId = std::max(report.headId, id);
            healthyMains.insert(name);
            continue;
        }
        if (state == PayloadState::Future) {
            FsckFinding &f =
                pass.addFinding(name, "future-version", why);
            f.notice = true;
            f.action = "left in place";
            healthyMains.insert(name); // its .bak is not orphaned
            continue;
        }

        // Envelope or payload is broken. A valid backup turns this
        // into a restore; otherwise both copies go to quarantine.
        std::string bakName = name + ".bak";
        std::string bakWhy;
        Json bakPayload;
        bool bakOk = listing.names.count(bakName) > 0 &&
            verifyEntryFile(pass.fullPath(bakName), &bakPayload,
                            &bakWhy) == PayloadState::Ok;
        if (bakOk) {
            FsckFinding &f = pass.addFinding(
                name, "corrupt-main",
                strprintf("%s (backup verifies)", why.c_str()));
            healthyMains.insert(name); // bak is accounted for
            if (!repair) {
                f.action = "restore from backup";
                continue;
            }
            // The backup's payload re-wraps in a fresh envelope; the
            // invalid main is not rotated (writeStateFile never
            // rotates corruption over a good backup).
            writeStateFile(pass.fullPath(name), bakPayload);
            f.action = "restored from backup";
            f.repaired = true;
            ++report.entriesOk;
            report.headId = std::max(report.headId, id);
        } else {
            std::string detail = strprintf("main: %s", why.c_str());
            if (listing.names.count(bakName) > 0)
                detail += strprintf("; backup: %s", bakWhy.c_str());
            else
                detail += "; no backup";
            FsckFinding &f =
                pass.addFinding(name, "corrupt-entry", detail);
            healthyMains.insert(name); // its bak joins the quarantine
            if (!repair) {
                f.action = "quarantine";
                continue;
            }
            bool ok = pass.quarantine(name, f);
            if (ok && listing.names.count(bakName) > 0) {
                std::string bakPath = pass.fullPath(bakName);
                std::string aside = quarantineTarget(bakPath);
                if (fsOps().rename(bakPath.c_str(),
                                   aside.c_str()) == 0)
                    ++report.quarantinedPresent;
            }
        }
    }

    // --- backups whose main is gone ----------------------------------
    for (const auto &bakName : listing.baks) {
        std::string mainName = bakName.substr(0, bakName.size() - 4);
        if (healthyMains.count(mainName) > 0)
            continue;
        if (listing.names.count(mainName) > 0)
            continue; // its main was handled (and quarantined) above
        std::string why;
        Json payload;
        PayloadState state =
            verifyEntryFile(pass.fullPath(bakName), &payload, &why);
        if (state == PayloadState::Ok) {
            FsckFinding &f = pass.addFinding(
                bakName, "missing-main",
                strprintf("backup verifies but %s is gone",
                          mainName.c_str()));
            if (!repair) {
                f.action = "restore from backup";
                continue;
            }
            writeStateFile(pass.fullPath(mainName), payload);
            f.action = strprintf("restored %s from backup",
                                 mainName.c_str());
            f.repaired = true;
            ++report.entriesScanned;
            ++report.entriesOk;
            report.headId = std::max(report.headId,
                                     entryIdFromName(mainName));
        } else {
            FsckFinding &f = pass.addFinding(
                bakName, "orphan-bak",
                strprintf("no main entry and the backup is "
                          "unusable (%s)",
                          why.c_str()));
            if (!repair) {
                f.action = "quarantine";
                continue;
            }
            pass.quarantine(bakName, f);
        }
    }

    // --- strays -------------------------------------------------------
    for (const auto &name : listing.strays) {
        FsckFinding &f = pass.addFinding(
            name, "stray-file",
            "not an archive file; fsck never touches it");
        f.notice = true;
        f.action = "left in place";
    }

    if (metrics) {
        metrics->counter("fsck.entries_scanned")
            .inc(static_cast<uint64_t>(report.entriesScanned));
        metrics->counter("fsck.entries_ok")
            .inc(static_cast<uint64_t>(report.entriesOk));
        metrics->counter("fsck.defects")
            .inc(static_cast<uint64_t>(report.defects()));
        metrics->counter("fsck.repaired")
            .inc(static_cast<uint64_t>(report.repairedCount()));
        metrics->counter("fsck.orphan_tmp")
            .inc(static_cast<uint64_t>(orphanTmp));
        metrics->counter("fsck.quarantined_present")
            .inc(static_cast<uint64_t>(report.quarantinedPresent));
    }
    return report;
}

std::string
renderFsck(const FsckReport &report)
{
    std::string out = strprintf(
        "fsck %s: %d entries scanned, %d ok, %d defect(s)",
        report.dir.c_str(), report.entriesScanned, report.entriesOk,
        report.defects());
    if (report.repairMode)
        out += strprintf(", %d repaired", report.repairedCount());
    if (report.quarantinedPresent > 0)
        out += strprintf(", %d quarantined file(s) present",
                         report.quarantinedPresent);
    if (report.headId >= 0)
        out += strprintf(", HEAD %s",
                         entryFileName(report.headId).c_str());
    out += "\n";
    for (const auto &f : report.findings) {
        out += strprintf("  %-18s %s: %s", f.kind.c_str(),
                         f.path.c_str(), f.detail.c_str());
        if (f.notice)
            out += " [notice]";
        else if (f.repaired)
            out += strprintf(" [%s]", f.action.c_str());
        else if (!f.action.empty())
            out += strprintf(" [would: %s]", f.action.c_str());
        out += "\n";
    }
    if (report.clean())
        out += "archive is clean\n";
    else
        out += strprintf("%d defect(s) remain%s\n", report.unrepaired(),
                         report.repairMode
                             ? ""
                             : " (re-run with --repair to fix)");
    return out;
}

Json
fsckToJson(const FsckReport &report)
{
    Json doc = Json::object();
    doc.set("schema", kFsckReportSchema);
    doc.set("version", kFsckReportVersion);
    doc.set("dir", report.dir);
    doc.set("repair", report.repairMode);
    doc.set("entries_scanned", report.entriesScanned);
    doc.set("entries_ok", report.entriesOk);
    doc.set("defects", report.defects());
    doc.set("repaired", report.repairedCount());
    doc.set("unrepaired", report.unrepaired());
    doc.set("quarantined_present", report.quarantinedPresent);
    if (report.headId >= 0)
        doc.set("head_id", report.headId);
    else
        doc.set("head_id", Json());
    Json findings = Json::array();
    for (const auto &f : report.findings) {
        Json j = Json::object();
        j.set("path", f.path);
        j.set("kind", f.kind);
        j.set("detail", f.detail);
        j.set("notice", f.notice);
        j.set("repaired", f.repaired);
        j.set("action", f.action);
        findings.push(std::move(j));
    }
    doc.set("findings", std::move(findings));
    return doc;
}

} // namespace archive
} // namespace rigor

/**
 * @file
 * Run-archive tests: append/scan/load round-trips, ref resolution,
 * fingerprint sensitivity, quarantine of corrupted entries, and prune
 * semantics (ids are never reused).
 */

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "archive/archive.hh"
#include "archive/entry_format.hh"
#include "archive/fsck.hh"
#include "support/durable_io.hh"
#include "support/filelock.hh"
#include "support/fingerprint.hh"
#include "support/logging.hh"
#include "support/str.hh"

namespace rigor {
namespace archive {
namespace {

/** Fresh scratch directory, removed on destruction. */
class ScratchDir
{
  public:
    ScratchDir()
    {
        char tmpl[] = "/tmp/rigor_archive_XXXXXX";
        const char *d = ::mkdtemp(tmpl);
        EXPECT_NE(d, nullptr);
        dir_ = d ? d : ".";
    }

    ~ScratchDir()
    {
        std::string cmd = "rm -rf '" + dir_ + "'";
        int rc = std::system(cmd.c_str());
        (void)rc;
    }

    const std::string &dir() const { return dir_; }

    std::string path(const std::string &name) const
    {
        return dir_ + "/" + name;
    }

  private:
    std::string dir_;
};

harness::RunResult
makeRun(const std::string &workload, double baseMs)
{
    harness::RunResult run;
    run.workload = workload;
    run.tier = vm::Tier::Interp;
    run.size = 10;
    for (int inv = 0; inv < 2; ++inv) {
        harness::InvocationResult ir;
        ir.invocationSeed = 10 + inv;
        for (int it = 0; it < 3; ++it) {
            harness::IterationSample s;
            s.timeMs = baseMs + 0.01 * it;
            ir.samples.push_back(s);
        }
        run.invocations.push_back(ir);
    }
    run.invocationsAttempted = 2;
    return run;
}

Json
makeConfig(int jitThreshold)
{
    Json c = Json::object();
    c.set("jit_threshold", jitThreshold);
    c.set("seed", "0xc0ffee");
    return c;
}

TEST(Archive, AppendScanLoadRoundTrip)
{
    ScratchDir scratch;
    RunArchive ar(scratch.dir());
    int id1 = ar.append(makeConfig(100), "base", "run",
                        {makeRun("sieve", 1.0)});
    int id2 = ar.append(makeConfig(100), "", "suite",
                        {makeRun("sieve", 1.1),
                         makeRun("queens", 2.0)});
    EXPECT_EQ(id1, 1);
    EXPECT_EQ(id2, 2);

    ScanResult scan = ar.scan();
    ASSERT_EQ(scan.entries.size(), 2u);
    EXPECT_TRUE(scan.quarantined.empty());
    EXPECT_EQ(scan.entries[0].id, 1);
    EXPECT_EQ(scan.entries[0].label, "base");
    EXPECT_EQ(scan.entries[0].command, "run");
    EXPECT_EQ(scan.entries[0].runCount, 1);
    EXPECT_EQ(scan.entries[1].label, "");
    EXPECT_EQ(scan.entries[1].runCount, 2);
    // Same config, same fingerprint: compare can promise identity.
    EXPECT_EQ(scan.entries[0].fingerprint,
              scan.entries[1].fingerprint);

    Entry e = ar.load(scan.entries[1]);
    ASSERT_EQ(e.runs.size(), 2u);
    EXPECT_EQ(e.runs[0].workload, "sieve");
    EXPECT_EQ(e.runs[1].workload, "queens");
    ASSERT_EQ(e.runs[0].invocations.size(), 2u);
    EXPECT_DOUBLE_EQ(e.runs[0].invocations[0].samples[1].timeMs,
                     1.11);
    EXPECT_EQ(e.config.at("jit_threshold").asInt(), 100);
}

TEST(Archive, FingerprintTracksConfig)
{
    ScratchDir scratch;
    RunArchive ar(scratch.dir());
    ar.append(makeConfig(100), "", "run", {makeRun("sieve", 1.0)});
    ar.append(makeConfig(999), "", "run", {makeRun("sieve", 1.0)});
    ScanResult scan = ar.scan();
    ASSERT_EQ(scan.entries.size(), 2u);
    EXPECT_NE(scan.entries[0].fingerprint,
              scan.entries[1].fingerprint);
    // The fingerprint is a pure function of the canonical dump.
    EXPECT_EQ(fingerprintJson(makeConfig(100)),
              fingerprintJson(makeConfig(100)));
}

TEST(Archive, ResolvesHeadIdAndLabelRefs)
{
    ScratchDir scratch;
    RunArchive ar(scratch.dir());
    ar.append(makeConfig(1), "baseline", "run",
              {makeRun("sieve", 1.0)});
    ar.append(makeConfig(2), "", "run", {makeRun("sieve", 1.1)});
    // A re-used label names the newest entry carrying it.
    ar.append(makeConfig(3), "baseline", "run",
              {makeRun("sieve", 1.2)});

    EXPECT_EQ(ar.resolve("HEAD").summary.id, 3);
    EXPECT_EQ(ar.resolve("HEAD~0").summary.id, 3);
    EXPECT_EQ(ar.resolve("HEAD~2").summary.id, 1);
    EXPECT_EQ(ar.resolve("2").summary.id, 2);
    EXPECT_EQ(ar.resolve("baseline").summary.id, 3);

    EXPECT_THROW(ar.resolve("HEAD~3"), FatalError);
    EXPECT_THROW(ar.resolve("7"), FatalError);
    EXPECT_THROW(ar.resolve("no-such-label"), FatalError);
}

/** Both forms of resolve agree on every ref form and every error. */
TEST(Archive, ResolveAgainstOneScanMatchesResolve)
{
    ScratchDir scratch;
    RunArchive ar(scratch.dir());
    ar.append(makeConfig(1), "baseline", "run",
              {makeRun("sieve", 1.0)});
    ar.append(makeConfig(2), "", "run", {makeRun("sieve", 1.1)});
    ar.append(makeConfig(3), "baseline", "run",
              {makeRun("sieve", 1.2)});
    ScanResult scanned = ar.scan();

    for (const char *ref : {"HEAD", "HEAD~0", "HEAD~1", "HEAD~2", "1",
                            "3", "baseline"}) {
        Entry viaScan = ar.resolve(scanned, ref);
        Entry direct = ar.resolve(ref);
        EXPECT_EQ(viaScan.summary.id, direct.summary.id) << ref;
        EXPECT_EQ(viaScan.summary.path, direct.summary.path) << ref;
        EXPECT_EQ(viaScan.config.dump(), direct.config.dump()) << ref;
    }
    for (const char *ref : {"HEAD~3", "7", "no-such-label", "HEAD~x"}) {
        std::string viaScan, direct;
        try {
            ar.resolve(scanned, ref);
        } catch (const FatalError &e) {
            viaScan = e.what();
        }
        try {
            ar.resolve(ref);
        } catch (const FatalError &e) {
            direct = e.what();
        }
        EXPECT_FALSE(direct.empty()) << ref;
        EXPECT_EQ(viaScan, direct) << ref;
    }

    ScratchDir emptyDir;
    RunArchive empty(emptyDir.dir());
    std::string viaScan, direct;
    try {
        empty.resolve(empty.scan(), "HEAD");
    } catch (const FatalError &e) {
        viaScan = e.what();
    }
    try {
        empty.resolve("HEAD");
    } catch (const FatalError &e) {
        direct = e.what();
    }
    EXPECT_FALSE(direct.empty());
    EXPECT_EQ(viaScan, direct);
}

TEST(Archive, EmptyArchiveAndEmptyAppendAreLoudErrors)
{
    ScratchDir scratch;
    RunArchive ar(scratch.dir());
    EXPECT_THROW(ar.resolve("HEAD"), FatalError);
    EXPECT_THROW(ar.append(makeConfig(1), "", "run", {}),
                 FatalError);
}

TEST(Archive, QuarantinesCorruptedEntriesAndKeepsScanning)
{
    ScratchDir scratch;
    RunArchive ar(scratch.dir());
    ar.append(makeConfig(1), "good", "run", {makeRun("sieve", 1.0)});

    // Plant garbage where an entry should be (no .bak to fall back
    // to): scan must quarantine it, not abort.
    {
        std::ofstream bad(scratch.path("entry-000002.json"));
        bad << "{ this is not a durable envelope";
    }
    ScanResult scan = ar.scan();
    ASSERT_EQ(scan.entries.size(), 1u);
    EXPECT_EQ(scan.entries[0].label, "good");
    ASSERT_EQ(scan.quarantined.size(), 1u);
    EXPECT_NE(scan.quarantined[0].find(".quarantine"),
              std::string::npos);
    EXPECT_EQ(scan.quarantinedPresent, 1);
    // The quarantined bytes survive for forensics...
    std::ifstream aside(scan.quarantined[0]);
    EXPECT_TRUE(aside.good());
    // ...and later scans are clean (the file was renamed aside) but
    // still report how many quarantined files the directory holds.
    ScanResult again = ar.scan();
    EXPECT_EQ(again.entries.size(), 1u);
    EXPECT_TRUE(again.quarantined.empty());
    EXPECT_EQ(again.quarantinedPresent, 1);
}

TEST(Archive, TruncatedEntryFallsBackToBackupOrQuarantine)
{
    ScratchDir scratch;
    RunArchive ar(scratch.dir());
    ar.append(makeConfig(1), "v1", "run", {makeRun("sieve", 1.0)});
    std::string p = scratch.path("entry-000001.json");

    // Truncate the entry mid-file, as a crashed writer or bit rot
    // would. With no .bak the file is unusable: quarantined.
    {
        std::ofstream trunc(p, std::ios::trunc);
        trunc << "{\"format\":\"rigorbench-state\",\"ver";
    }
    ScanResult scan = ar.scan();
    EXPECT_TRUE(scan.entries.empty());
    ASSERT_EQ(scan.quarantined.size(), 1u);

    // A fresh append still works and does not reuse the id.
    int id = ar.append(makeConfig(1), "v2", "run",
                       {makeRun("sieve", 1.0)});
    EXPECT_EQ(id, 2);

    // Now plant a verified backup next to a truncated entry: the
    // loader recovers from the .bak and the entry survives the scan.
    std::string p2 = scratch.path("entry-000002.json");
    std::string content;
    {
        std::ifstream in(p2);
        std::getline(in, content, '\0');
    }
    {
        std::ofstream bak(stateBackupPath(p2));
        bak << content;
        std::ofstream trunc(p2, std::ios::trunc);
        trunc << content.substr(0, content.size() / 2);
    }
    ScanResult recovered = ar.scan();
    ASSERT_EQ(recovered.entries.size(), 1u);
    EXPECT_EQ(recovered.entries[0].label, "v2");
    EXPECT_TRUE(recovered.quarantined.empty());
}

TEST(Archive, QuarantineIsIdempotentAcrossRepeatedDamage)
{
    ScratchDir scratch;
    RunArchive ar(scratch.dir());
    ar.append(makeConfig(1), "", "run", {makeRun("sieve", 1.0)});
    // Damage the same path twice (quarantine, then re-plant): the
    // second quarantine must pick a fresh name, not clobber the
    // first forensic copy.
    for (int round = 0; round < 2; ++round) {
        std::ofstream bad(scratch.path("entry-000001.json"),
                          std::ios::trunc);
        bad << "garbage round " << round;
        bad.close();
        ScanResult scan = ar.scan();
        ASSERT_EQ(scan.quarantined.size(), 1u) << "round " << round;
        EXPECT_EQ(scan.quarantinedPresent, round + 1);
    }
    std::string first, second;
    ASSERT_TRUE(readFile(
        scratch.path("entry-000001.json.quarantine"), first));
    ASSERT_TRUE(readFile(
        scratch.path("entry-000001.json.quarantine.2"), second));
    EXPECT_NE(first, second);
}

TEST(Archive, AppendSweepsOrphanedTmpWithoutReusingItsId)
{
    ScratchDir scratch;
    RunArchive ar(scratch.dir());
    ar.append(makeConfig(1), "", "run", {makeRun("sieve", 1.0)});
    // A crashed writer left entry 2's staging file behind: the next
    // append must remove it, yet still count its id as taken.
    {
        std::ofstream tmp(scratch.path("entry-000002.json.tmp"));
        tmp << "partial bytes from a dead process";
    }
    int id = ar.append(makeConfig(1), "", "run",
                       {makeRun("sieve", 1.1)});
    EXPECT_EQ(id, 3);
    std::string dummy;
    EXPECT_FALSE(
        readFile(scratch.path("entry-000002.json.tmp"), dummy));
}

TEST(Archive, FutureVersionEntriesAreSkippedInPlace)
{
    ScratchDir scratch;
    RunArchive ar(scratch.dir());
    ar.append(makeConfig(1), "good", "run", {makeRun("sieve", 1.0)});
    // Hand-craft an entry claiming a future schema version inside a
    // valid envelope: a downgraded build must leave it alone.
    Json payload = Json::object();
    payload.set("schema", "rigorbench-archive-entry");
    payload.set("version", 999);
    payload.set("fingerprint", "f");
    payload.set("command", "run");
    payload.set("runs", Json::array());
    writeStateFile(scratch.path("entry-000002.json"), payload);

    ScanResult scan = ar.scan();
    ASSERT_EQ(scan.entries.size(), 1u);
    EXPECT_TRUE(scan.quarantined.empty());
    std::string still;
    EXPECT_TRUE(
        readFile(scratch.path("entry-000002.json"), still));
    // The future entry's id still counts for monotonicity.
    EXPECT_EQ(ar.append(makeConfig(1), "", "run",
                        {makeRun("sieve", 1.0)}),
              3);
}

TEST(Archive, ScanUnderHeldLockIsReadOnly)
{
    ScratchDir scratch;
    RunArchive ar(scratch.dir());
    ar.append(makeConfig(1), "", "run", {makeRun("sieve", 1.0)});
    {
        std::ofstream bad(scratch.path("entry-000002.json"));
        bad << "garbage";
    }
    // While a writer holds the lock, a scan that would quarantine
    // degrades to read-only: the damaged file stays where it is.
    FileLock held = FileLock::tryAcquire(ar.lockPath());
    ASSERT_TRUE(held.held());
    ScanResult scan = ar.scan();
    ASSERT_EQ(scan.entries.size(), 1u);
    EXPECT_TRUE(scan.quarantined.empty());
    std::string still;
    EXPECT_TRUE(readFile(scratch.path("entry-000002.json"), still));
    held.release();

    // Lock released: the next scan quarantines as usual.
    ScanResult after = ar.scan();
    EXPECT_EQ(after.quarantined.size(), 1u);
}

TEST(FileLockTest, ExclusionAndRelease)
{
    ScratchDir scratch;
    std::string p = scratch.path(".lock");
    FileLock a = FileLock::tryAcquire(p);
    ASSERT_TRUE(a.held());
    // flock is per open-file-description, so a second acquire in the
    // same process conflicts just like another process would.
    FileLock b = FileLock::tryAcquire(p);
    EXPECT_FALSE(b.held());
    // Bounded retry gives up (quickly here) instead of hanging.
    FileLock c = FileLock::acquire(p, 3, 0.1, 0.4);
    EXPECT_FALSE(c.held());
    a.release();
    EXPECT_FALSE(a.held());
    FileLock d = FileLock::acquire(p);
    EXPECT_TRUE(d.held());
}

TEST(Archive, PruneKeepsNewestAndNeverReusesIds)
{
    ScratchDir scratch;
    RunArchive ar(scratch.dir());
    for (int i = 0; i < 4; ++i)
        ar.append(makeConfig(i), "", "run", {makeRun("sieve", 1.0)});

    EXPECT_THROW(ar.prune(0), FatalError);
    EXPECT_EQ(ar.prune(2), 2);
    ScanResult scan = ar.scan();
    ASSERT_EQ(scan.entries.size(), 2u);
    EXPECT_EQ(scan.entries[0].id, 3);
    EXPECT_EQ(scan.entries[1].id, 4);
    // Pruning below the current count is a no-op...
    EXPECT_EQ(ar.prune(10), 0);
    // ...and new entries continue the sequence past pruned ids.
    EXPECT_EQ(ar.append(makeConfig(9), "", "run",
                        {makeRun("sieve", 1.0)}),
              5);
}

void
expectSameSummary(const EntrySummary &a, const EntrySummary &b)
{
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.path, b.path);
    EXPECT_EQ(a.fingerprint, b.fingerprint);
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.command, b.command);
    EXPECT_EQ(a.runCount, b.runCount);
    EXPECT_EQ(a.profileCount, b.profileCount);
    EXPECT_EQ(a.sizeBytes, b.sizeBytes);
    EXPECT_EQ(a.tiers, b.tiers);
}

// scan() summarizes a skeleton of each canonical entry and load() the
// whole payload: every field must agree, whichever path verified it.
TEST(Archive, ScanSummariesEqualLoadSummaries)
{
    ScratchDir scratch;
    RunArchive ar(scratch.dir());
    Json config = makeConfig(7);
    Json tiers = Json::array();
    tiers.push("interp");
    tiers.push("adaptive");
    config.set("tiers", std::move(tiers));
    Json profile = Json::object();
    profile.set("counters", Json::object());
    ar.append(config, "say \"hi\" \\ [x]", "suite",
              {makeRun("sieve", 1.0), makeRun("queens", 2.0),
               makeRun("nbody", 3.0)},
              {profile, Json(), profile});
    ar.append(makeConfig(1), "", "run", {makeRun("sieve", 1.5)});
    ar.append(makeConfig(2), "{\"runs\":[]}", "run",
              {makeRun("sieve", 1.5)}, {Json()});

    // Entry 4: entry 1 re-indented (still canonical once stripped).
    // Entry 5: entry 1 with its envelope reordered (the tree path).
    // Entry 6: entry 1 with an empty profiles array (canonical).
    std::string text;
    ASSERT_TRUE(readFile(scratch.path("entry-000001.json"), text));
    Json envelope = Json::parse(text);
    atomicWriteFile(scratch.path("entry-000004.json"), envelope.dump(4));
    std::string reordered = strprintf(
        "{\"payload\": %s, \"crc32\": \"%s\", \"version\": 1, "
        "\"format\": \"rigorbench-state\"}",
        envelope.at("payload").dump(2).c_str(),
        envelope.at("crc32").asString().c_str());
    atomicWriteFile(scratch.path("entry-000005.json"), reordered);
    Json noProfiles = envelope.at("payload");
    noProfiles.set("profiles", Json::array());
    writeStateFile(scratch.path("entry-000006.json"), noProfiles);
    // Damage an earlier scan set aside, which every scan counts.
    atomicWriteFile(scratch.path("entry-000007.json.quarantine"), "x");

    ScanResult scan = ar.scan();
    ASSERT_EQ(scan.entries.size(), 6u);
    EXPECT_TRUE(scan.quarantined.empty());
    EXPECT_EQ(scan.quarantinedPresent, 1);
    EXPECT_EQ(scan.confirmedByFileCrc, 0);
    for (const auto &s : scan.entries) {
        SCOPED_TRACE(s.path);
        expectSameSummary(s, ar.load(s).summary);
    }
    // A warm scan confirms every entry with its whole-file CRC and
    // gives the cold scan's result, field for field.
    ScanResult warm = ar.scan();
    EXPECT_EQ(warm.confirmedByFileCrc, 6);
    ASSERT_EQ(warm.entries.size(), scan.entries.size());
    for (size_t i = 0; i < warm.entries.size(); ++i) {
        SCOPED_TRACE(warm.entries[i].path);
        expectSameSummary(warm.entries[i], scan.entries[i]);
    }
    EXPECT_EQ(warm.quarantined, scan.quarantined);
    EXPECT_EQ(warm.quarantinedPresent, scan.quarantinedPresent);
    EXPECT_EQ(scan.entries[0].label, "say \"hi\" \\ [x]");
    EXPECT_EQ(scan.entries[0].runCount, 3);
    EXPECT_EQ(scan.entries[0].profileCount, 2);
    EXPECT_EQ(scan.entries[0].tiers,
              (std::vector<std::string>{"interp", "adaptive"}));
    EXPECT_EQ(scan.entries[2].label, "{\"runs\":[]}");
    EXPECT_EQ(scan.entries[2].profileCount, 0);
    for (int i : {3, 4}) {
        EXPECT_EQ(scan.entries[i].label, scan.entries[0].label);
        EXPECT_EQ(scan.entries[i].profileCount, 2);
    }
    EXPECT_EQ(scan.entries[5].runCount, 3);
    EXPECT_EQ(scan.entries[5].profileCount, 0);
}

// Regression: a CRC-valid entry without a fingerprint made scan()
// panic (Json::at: missing key), taking `archive list` and `compare`
// down, while fsck called the same file a corrupt entry. scan() now
// applies fsck's check and quarantines it.
TEST(Archive, ScanQuarantinesAUsableLookingEntryFsckRejects)
{
    ScratchDir scratch;
    RunArchive ar(scratch.dir());
    ar.append(makeConfig(1), "good", "run", {makeRun("sieve", 1.0)});
    Json payload = Json::object();
    payload.set("schema", "rigorbench-archive-entry");
    payload.set("version", 2);
    payload.set("command", "run");
    Json runs = Json::array();
    runs.push(Json::object());
    payload.set("runs", std::move(runs));
    writeStateFile(scratch.path("entry-000002.json"), payload);

    FsckReport report = fsckArchive(scratch.dir(), false);
    ASSERT_EQ(report.findings.size(), 1u);
    EXPECT_EQ(report.findings[0].kind, "corrupt-entry");
    EXPECT_NE(report.findings[0].detail.find("payload has no fingerprint"),
              std::string::npos)
        << report.findings[0].detail;

    ScanResult scan = ar.scan();
    ASSERT_EQ(scan.entries.size(), 1u);
    EXPECT_EQ(scan.entries[0].label, "good");
    ASSERT_EQ(scan.quarantined.size(), 1u);
    EXPECT_EQ(ar.resolve("HEAD").summary.label, "good");

    // Every member a summary reads is checked, so none of these
    // panics either.
    Json good = Json::parse(payload.dump());
    good.set("fingerprint", "f");
    std::vector<std::pair<std::string, Json>> bad = {
        {"label", Json(3)},
        {"profiles", Json::object()},
        {"config", Json::parse("{\"tiers\": [\"interp\", 1]}")},
        {"runs", Json::parse("{\"a\": {}}")},
        {"runs", Json::array()},
        {"version", Json("2")},
    };
    for (const auto &[key, value] : bad) {
        Json p = good;
        p.set(key, value);
        writeStateFile(scratch.path("entry-000003.json"), p);
        ScanResult again = ar.scan();
        EXPECT_EQ(again.entries.size(), 1u) << key;
        EXPECT_EQ(again.quarantined.size(), 1u) << key;
    }
}

/** Every message warn()/inform() delivers while it lives, in order. */
class LogCapture
{
  public:
    LogCapture()
        : previous_(setLogSink([this](LogLevel, const std::string &msg) {
              lines.push_back(msg);
          }))
    {
    }
    ~LogCapture() { setLogSink(std::move(previous_)); }
    LogCapture(const LogCapture &) = delete;
    LogCapture &operator=(const LogCapture &) = delete;

    std::vector<std::string> lines;

  private:
    LogSink previous_;
};

/** Entry ids 1..kMixedEntries of writeMixedArchive(), by kind. */
constexpr int kMixedEntries = 24;
bool isCorrupt(int id) { return id % 4 == 1; }
bool isRecoverable(int id) { return id % 4 == 2; }
bool isFuture(int id) { return id % 4 == 3; }

/**
 * An archive whose entries repeat four kinds, so every helper of a
 * parallel scan meets each: a CRC-corrupt entry with no backup
 * (quarantined), a truncated entry with a verifying backup (recovered
 * with a warning), a future-version entry (skipped in place) and a
 * healthy one.
 */
void
writeMixedArchive(const std::string &dir)
{
    RunArchive ar(dir);
    for (int id = 1; id <= kMixedEntries; ++id) {
        std::string path = dir + "/" + entryFileName(id);
        std::string label = strprintf("e%02d", id);
        if (isFuture(id)) {
            Json payload = Json::object();
            payload.set("schema", "rigorbench-archive-entry");
            payload.set("version", 999);
            payload.set("fingerprint", "f");
            payload.set("command", "run");
            payload.set("runs", Json::array());
            writeStateFile(path, payload);
            continue;
        }
        ASSERT_EQ(ar.append(makeConfig(id), label, "run",
                            {makeRun("sieve", 1.0 + id)}),
                  id);
        std::string text;
        ASSERT_TRUE(readFile(path, text));
        if (isCorrupt(id)) {
            size_t at = text.find("\"" + label + "\"");
            ASSERT_NE(at, std::string::npos);
            text[at + 1] = 'x';
            atomicWriteFile(path, text);
        } else if (isRecoverable(id)) {
            atomicWriteFile(stateBackupPath(path), text);
            atomicWriteFile(path, text.substr(0, text.size() / 2));
        }
    }
}

/** Copy `from` to a fresh `to`, replacing what `to` held. */
void
copyArchive(const std::string &from, const std::string &to)
{
    std::filesystem::remove_all(to);
    std::filesystem::copy(from, to,
                          std::filesystem::copy_options::recursive);
}

/** Sorted names of the files in `dir`. */
std::vector<std::string>
listNames(const std::string &dir)
{
    std::vector<std::string> names;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        names.push_back(e.path().filename().string());
    std::sort(names.begin(), names.end());
    return names;
}

// Entries are verified on helper threads, but warnings, backup
// fallbacks and quarantine renames are committed in id order: every
// scan of the same damage reads the same.
TEST(Archive, ParallelScanCommitsInIdOrderEveryTime)
{
    ScratchDir scratch;
    std::string tmpl = scratch.path("template");
    std::string dir = scratch.path("archive");
    writeMixedArchive(tmpl);

    std::vector<int> kept, warned, quarantined;
    for (int id = 1; id <= kMixedEntries; ++id) {
        if (!isCorrupt(id) && !isFuture(id))
            kept.push_back(id);
        if (isCorrupt(id) || isRecoverable(id) || isFuture(id))
            warned.push_back(id);
        if (isCorrupt(id))
            quarantined.push_back(id);
    }

    std::vector<std::string> firstSummaries, firstLog, firstNames;
    for (int round = 0; round < 20; ++round) {
        SCOPED_TRACE(strprintf("round %d", round));
        copyArchive(tmpl, dir);
        ScanResult scan;
        std::vector<std::string> log;
        {
            LogCapture capture;
            scan = RunArchive(dir).scan();
            log = capture.lines;
        }
        std::vector<std::string> summaries;
        for (const auto &e : scan.entries)
            summaries.push_back(strprintf(
                "%d %s %s %s %d %llu", e.id, e.label.c_str(),
                e.fingerprint.c_str(), e.command.c_str(), e.runCount,
                static_cast<unsigned long long>(e.sizeBytes)));

        ASSERT_EQ(scan.entries.size(), kept.size());
        for (size_t i = 0; i < kept.size(); ++i)
            EXPECT_EQ(scan.entries[i].id, kept[i]);
        ASSERT_EQ(log.size(), warned.size());
        for (size_t i = 0; i < warned.size(); ++i) {
            int id = warned[i];
            const std::string &line = log[i];
            EXPECT_NE(line.find(dir + "/" + entryFileName(id)),
                      std::string::npos)
                << line;
            const char *expect = isCorrupt(id) ? "quarantined as"
                : isRecoverable(id) ? "recovered the last good checkpoint"
                                    : "version 999";
            EXPECT_NE(line.find(expect), std::string::npos) << line;
        }
        ASSERT_EQ(scan.quarantined.size(), quarantined.size());
        for (size_t i = 0; i < quarantined.size(); ++i)
            EXPECT_EQ(scan.quarantined[i],
                      dir + "/" + entryFileName(quarantined[i]) +
                          kQuarantineSuffix);

        if (round == 0) {
            firstSummaries = summaries;
            firstLog = log;
            firstNames = listNames(dir);
            continue;
        }
        EXPECT_EQ(summaries, firstSummaries);
        EXPECT_EQ(log, firstLog);
        EXPECT_EQ(listNames(dir), firstNames);
    }
}

// fsck verifies every main copy in parallel too, and repairs in id
// order: the same findings, actions and directory every time.
TEST(Archive, ParallelFsckCommitsInIdOrderEveryTime)
{
    ScratchDir scratch;
    std::string tmpl = scratch.path("template");
    std::string dir = scratch.path("archive");
    writeMixedArchive(tmpl);

    std::vector<std::pair<std::string, std::string>> expected;
    for (int id = 1; id <= kMixedEntries; ++id) {
        std::string path = dir + "/" + entryFileName(id);
        if (isCorrupt(id))
            expected.emplace_back("corrupt-entry", path);
        else if (isRecoverable(id))
            expected.emplace_back("corrupt-main", path);
        else if (isFuture(id))
            expected.emplace_back("future-version", path);
    }

    std::string firstText;
    std::vector<std::string> firstNames;
    for (int round = 0; round < 20; ++round) {
        SCOPED_TRACE(strprintf("round %d", round));
        copyArchive(tmpl, dir);
        FsckReport report;
        std::vector<std::string> log;
        {
            LogCapture capture;
            report = fsckArchive(dir, true);
            log = capture.lines;
        }
        EXPECT_TRUE(log.empty());
        ASSERT_EQ(report.findings.size(), expected.size());
        for (size_t i = 0; i < expected.size(); ++i) {
            EXPECT_EQ(report.findings[i].kind, expected[i].first);
            EXPECT_EQ(report.findings[i].path, expected[i].second);
        }
        EXPECT_EQ(report.unrepaired(), 0);
        std::string text = renderFsck(report);
        if (round == 0) {
            firstText = text;
            firstNames = listNames(dir);
            continue;
        }
        EXPECT_EQ(text, firstText);
        EXPECT_EQ(listNames(dir), firstNames);
    }
}

/** Overwrite one byte of `path` in place, keeping its mtime. */
void
flipByteKeepingMtime(const std::string &path, size_t at, char byte)
{
    auto mtime = std::filesystem::last_write_time(path);
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.seekp(static_cast<std::streamoff>(at));
        f.put(byte);
    }
    std::filesystem::last_write_time(path, mtime);
}

/** Byte offset of the first `needle` in `path`'s bytes. */
size_t
offsetOf(const std::string &path, const std::string &needle)
{
    std::string text;
    EXPECT_TRUE(readFile(path, text));
    size_t at = text.find(needle);
    EXPECT_NE(at, std::string::npos) << needle;
    return at;
}

/** A scan and every warning it logged. */
struct LoggedScan
{
    ScanResult result;
    std::vector<std::string> log;
};

LoggedScan
scanLogged(const RunArchive &ar)
{
    LogCapture capture;
    LoggedScan out;
    out.result = ar.scan();
    out.log = capture.lines;
    return out;
}

// The memo is keyed on the bytes, not on size or mtime: a bit flip
// that keeps both is quarantined after a warm scan exactly as a cold
// scan quarantines it.
TEST(Archive, WarmScanQuarantinesAFlipThatKeepsSizeAndMtime)
{
    ScratchDir scratch;
    RunArchive ar(scratch.dir());
    ar.append(makeConfig(1), "good", "run", {makeRun("sieve", 1.0)});
    ar.append(makeConfig(2), "fine", "run", {makeRun("sieve", 2.0)});
    std::string p = scratch.path("entry-000002.json");
    std::string pristine;
    ASSERT_TRUE(readFile(p, pristine));
    size_t at = offsetOf(p, "\"fine\"") + 1;

    // Cold: the first scan of this directory meets the damage.
    flipByteKeepingMtime(p, at, 'x');
    LoggedScan cold = scanLogged(ar);
    EXPECT_EQ(cold.result.confirmedByFileCrc, 0);
    ASSERT_EQ(cold.result.quarantined.size(), 1u);
    ASSERT_EQ(cold.log.size(), 1u);
    EXPECT_NE(cold.log[0].find("quarantined as"), std::string::npos)
        << cold.log[0];

    // Put the healthy bytes back, and warm the memo with them.
    ASSERT_EQ(std::remove(cold.result.quarantined[0].c_str()), 0);
    atomicWriteFile(p, pristine);
    ar.scan();
    ScanResult warmClean = ar.scan();
    EXPECT_EQ(warmClean.confirmedByFileCrc, 2);
    ASSERT_EQ(warmClean.entries.size(), 2u);

    // Warm: the same flip, size and mtime kept.
    auto size = std::filesystem::file_size(p);
    auto mtime = std::filesystem::last_write_time(p);
    flipByteKeepingMtime(p, at, 'x');
    ASSERT_EQ(std::filesystem::file_size(p), size);
    ASSERT_EQ(std::filesystem::last_write_time(p), mtime);
    LoggedScan warm = scanLogged(ar);
    EXPECT_EQ(warm.result.confirmedByFileCrc, 1);
    EXPECT_EQ(warm.log, cold.log);
    EXPECT_EQ(warm.result.quarantined, cold.result.quarantined);
    EXPECT_EQ(warm.result.quarantinedPresent,
              cold.result.quarantinedPresent);
    ASSERT_EQ(warm.result.entries.size(), 1u);
    EXPECT_EQ(warm.result.entries[0].label, "good");
    EXPECT_FALSE(std::filesystem::exists(p));
}

// A different valid entry of the same length at the same path is
// verified in full and listed, not mistaken for the remembered one.
TEST(Archive, WarmScanListsASameLengthReplacement)
{
    ScratchDir scratch;
    RunArchive ar(scratch.dir());
    ar.append(makeConfig(1), "aaaa", "run", {makeRun("sieve", 1.0)});
    std::string p = scratch.path("entry-000001.json");
    ar.scan();
    EXPECT_EQ(ar.scan().confirmedByFileCrc, 1);

    // The relabelled entry, written elsewhere and copied over in
    // place with the old mtime.
    std::string text;
    ASSERT_TRUE(readFile(p, text));
    Json payload = Json::parse(text).at("payload");
    payload.set("label", "bbbb");
    std::string other = scratch.path("relabelled.json");
    writeStateFile(other, payload);
    std::string replacement;
    ASSERT_TRUE(readFile(other, replacement));
    ASSERT_EQ(replacement.size(), text.size());
    ASSERT_NE(replacement, text);
    auto mtime = std::filesystem::last_write_time(p);
    {
        std::fstream f(p, std::ios::in | std::ios::out |
                              std::ios::binary);
        f.write(replacement.data(),
                static_cast<std::streamsize>(replacement.size()));
    }
    std::filesystem::last_write_time(p, mtime);

    ScanResult scan = ar.scan();
    EXPECT_EQ(scan.confirmedByFileCrc, 0);
    EXPECT_TRUE(scan.quarantined.empty());
    ASSERT_EQ(scan.entries.size(), 1u);
    EXPECT_EQ(scan.entries[0].label, "bbbb");
    ScanResult again = ar.scan();
    EXPECT_EQ(again.confirmedByFileCrc, 1);
    ASSERT_EQ(again.entries.size(), 1u);
    EXPECT_EQ(again.entries[0].label, "bbbb");
}

std::vector<int>
idsOf(const ScanResult &scan)
{
    std::vector<int> ids;
    for (const auto &e : scan.entries)
        ids.push_back(e.id);
    return ids;
}

// Each scan replaces its directory's slot with what it verified, and
// only the kScanMemoDirectories most recently scanned directories
// keep one: pruned, vanished and evicted entries are never served.
TEST(Archive, ScanMemoServesNoStaleEntry)
{
    ScratchDir scratch;
    std::string dir = scratch.path("archive");
    RunArchive ar(dir);
    for (int i = 0; i < 4; ++i)
        ar.append(makeConfig(i), "", "run", {makeRun("sieve", 1.0)});
    EXPECT_EQ(ar.scan().confirmedByFileCrc, 0);
    EXPECT_EQ(ar.scan().confirmedByFileCrc, 4);

    EXPECT_EQ(ar.prune(2), 2);
    ScanResult pruned = ar.scan();
    EXPECT_EQ(idsOf(pruned), (std::vector<int>{3, 4}));
    EXPECT_EQ(pruned.confirmedByFileCrc, 2);

    ar.append(makeConfig(9), "", "run", {makeRun("sieve", 1.0)});
    ASSERT_EQ(std::remove((dir + "/" + entryFileName(4)).c_str()), 0);
    ScanResult vanished = ar.scan();
    EXPECT_EQ(idsOf(vanished), (std::vector<int>{3, 5}));
    EXPECT_EQ(vanished.confirmedByFileCrc, 1);
    EXPECT_EQ(ar.scan().confirmedByFileCrc, 2);

    // Scanning as many other archives as the memo holds forgets this
    // one: the next scan is cold again, and lists the same.
    for (size_t i = 0; i < kScanMemoDirectories; ++i) {
        RunArchive other(scratch.path(strprintf("other%zu", i)));
        other.append(makeConfig(1), "", "run", {makeRun("sieve", 1.0)});
        ScanResult scan = other.scan();
        ASSERT_EQ(scan.entries.size(), 1u);
    }
    ScanResult evicted = ar.scan();
    EXPECT_EQ(evicted.confirmedByFileCrc, 0);
    EXPECT_EQ(idsOf(evicted), (std::vector<int>{3, 5}));
    EXPECT_EQ(ar.scan().confirmedByFileCrc, 2);
}

// Scans of one directory from several threads share one memo slot;
// each must list what a scan alone lists.
TEST(Archive, ConcurrentScansOfOneDirectoryAgree)
{
    ScratchDir scratch;
    RunArchive ar(scratch.dir());
    for (int i = 0; i < 6; ++i)
        ar.append(makeConfig(i), strprintf("e%d", i), "run",
                  {makeRun("sieve", 1.0 + i)});
    auto render = [](const ScanResult &scan) {
        std::string text;
        for (const auto &e : scan.entries)
            text += strprintf("%d %s %s %s %d %d %llu\n", e.id,
                              e.path.c_str(), e.label.c_str(),
                              e.fingerprint.c_str(), e.runCount,
                              e.profileCount,
                              static_cast<unsigned long long>(
                                  e.sizeBytes));
        return text;
    };
    std::string expected = render(ar.scan());

    constexpr int kThreads = 4;
    constexpr int kScans = 10;
    std::vector<std::vector<std::string>> seen(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (int i = 0; i < kScans; ++i)
                seen[t].push_back(render(RunArchive(ar.dir()).scan()));
        });
    for (auto &t : threads)
        t.join();
    for (int t = 0; t < kThreads; ++t)
        for (int i = 0; i < kScans; ++i)
            EXPECT_EQ(seen[t][i], expected)
                << "thread " << t << " scan " << i;
}

} // namespace
} // namespace archive
} // namespace rigor

/**
 * @file
 * Crash-point enumeration tests: fork a child with a FaultyFsOps that
 * kills the process at FsOps call N, for every N until the operation
 * completes, and assert that recovery from the survivor's point of
 * view always yields the pre-operation or the post-operation state —
 * never a third, torn one. Also covers the non-crash fault kinds
 * (ENOSPC, short writes, fsync failure, torn rename) against the
 * durable-write layer, and two concurrent forked archive appenders.
 *
 * The child installs the faulty seam and runs the operation; CrashAt
 * models power loss with _exit(), so nothing the child buffered
 * survives. The parent then plays the role of the next process start:
 * loadStateFile / fsck / scan must make sense of whatever is on disk.
 */

#include <cstdlib>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include "archive/archive.hh"
#include "archive/fsck.hh"
#include "harness/fault.hh"
#include "support/durable_io.hh"
#include "support/logging.hh"

namespace rigor {
namespace harness {
namespace {

/** Fresh scratch directory, removed on destruction. */
class ScratchDir
{
  public:
    ScratchDir()
    {
        char tmpl[] = "/tmp/rigor_crash_XXXXXX";
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

Json
samplePayload(int marker)
{
    Json p = Json::object();
    p.set("marker", marker);
    p.set("note", std::string("crash-consistency payload #") +
                      std::to_string(marker));
    return p;
}

harness::RunResult
makeRun(const std::string &workload)
{
    harness::RunResult run;
    run.workload = workload;
    run.tier = vm::Tier::Interp;
    run.size = 10;
    harness::InvocationResult ir;
    ir.invocationSeed = 7;
    harness::IterationSample s;
    s.timeMs = 1.25;
    ir.samples.push_back(s);
    run.invocations.push_back(ir);
    run.invocationsAttempted = 1;
    return run;
}

/**
 * Run `fn` in a forked child and return its exit status (-1 when the
 * child died on a signal). The child never returns: it runs fn() and
 * _exit()s — 0 on completion, 3 on an exception — unless an armed
 * CrashAt fault _exit(kExitCrashInjected)s first.
 */
template <typename Fn>
int
runInChild(Fn fn)
{
    ::pid_t pid = ::fork();
    EXPECT_GE(pid, 0);
    if (pid == 0) {
        try {
            fn();
        } catch (...) {
            ::_exit(3);
        }
        ::_exit(0);
    }
    int status = 0;
    ::waitpid(pid, &status, 0);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/** Child body: install a crash-at=`n` seam, then run `op`. */
template <typename Op>
int
runChildCrashingAt(int n, Op op)
{
    return runInChild([n, &op] {
        std::vector<IoFaultSpec> faults{FaultPlan::parseIoSpec(
            "io:crash-at=" + std::to_string(n))};
        FaultyFsOps faulty(std::move(faults), 0);
        setFsOps(&faulty);
        op();
    });
}

// Every sweep must terminate: the operations under test make a small,
// bounded number of FsOps calls. The cap only turns an unexpected
// livelock into a test failure instead of a hang.
constexpr int kSweepCap = 128;

TEST(CrashSweep, WriteStateFileYieldsPreOrPostState)
{
    ScratchDir scratch;
    std::string p = scratch.path("state.json");
    std::string pre = samplePayload(1).dump();
    std::string post = samplePayload(2).dump();

    bool completed = false;
    for (int n = 1; n <= kSweepCap && !completed; ++n) {
        // Reset to the pre-operation state so every crash point sees
        // the identical call sequence.
        ::unlink(p.c_str());
        ::unlink((p + ".bak").c_str());
        ::unlink((p + ".tmp").c_str());
        writeStateFile(p, samplePayload(1));

        int rc = runChildCrashingAt(
            n, [&p] { writeStateFile(p, samplePayload(2)); });
        completed = rc == 0;
        ASSERT_TRUE(rc == 0 || rc == kExitCrashInjected)
            << "crash point " << n << " exited " << rc;

        // Recovery: whatever the crash left behind, the loader must
        // produce exactly the old or the new payload.
        StateLoad load = loadStateFile(p);
        std::string got = load.payload.dump();
        EXPECT_TRUE(got == pre || got == post)
            << "crash point " << n << " recovered a third state: "
            << got;
        if (rc == 0) {
            EXPECT_EQ(got, post) << "completed write lost data";
        }
    }
    EXPECT_TRUE(completed)
        << "writeStateFile made more than " << kSweepCap
        << " FsOps calls";
}

TEST(CrashSweep, ArchiveAppendRecoversToPreOrPostState)
{
    ScratchDir scratch;
    bool completed = false;
    for (int n = 1; n <= kSweepCap && !completed; ++n) {
        // Fresh archive per crash point: one healthy entry, then a
        // child append that dies at call n.
        std::string dir =
            scratch.path("archive-" + std::to_string(n));
        {
            archive::RunArchive ar(dir);
            ASSERT_EQ(
                ar.append(Json::object(), "seed", "run",
                          {makeRun("pre")}),
                1);
        }

        int rc = runChildCrashingAt(n, [&dir] {
            archive::RunArchive ar(dir);
            ar.append(Json::object(), "crashing", "run",
                      {makeRun("post")});
        });
        completed = rc == 0;
        ASSERT_TRUE(rc == 0 || rc == kExitCrashInjected)
            << "crash point " << n << " exited " << rc;

        // The next process start: repair sweeps any orphaned .tmp,
        // after which the archive must hold exactly the pre-append or
        // the post-append entry set.
        archive::FsckReport report = archive::fsckArchive(dir, true);
        EXPECT_TRUE(report.clean())
            << "crash point " << n << " left unrepairable damage:\n"
            << archive::renderFsck(report);

        archive::RunArchive ar(dir);
        archive::ScanResult scan = ar.scan();
        ASSERT_TRUE(scan.entries.size() == 1 ||
                    scan.entries.size() == 2)
            << "crash point " << n << " left "
            << scan.entries.size() << " entries";
        EXPECT_EQ(scan.entries[0].id, 1);
        EXPECT_EQ(ar.load(scan.entries[0]).runs[0].workload, "pre");
        if (scan.entries.size() == 2) {
            EXPECT_EQ(scan.entries[1].id, 2);
            EXPECT_EQ(ar.load(scan.entries[1]).runs[0].workload,
                      "post");
        }
        if (rc == 0) {
            EXPECT_EQ(scan.entries.size(), 2u)
                << "completed append lost its entry";
        }
    }
    EXPECT_TRUE(completed)
        << "archive append made more than " << kSweepCap
        << " FsOps calls";
}

TEST(CrashSweep, InjectedCrashUsesTheDocumentedExitCode)
{
    ScratchDir scratch;
    std::string p = scratch.path("state.json");
    int rc = runChildCrashingAt(
        1, [&p] { writeStateFile(p, samplePayload(1)); });
    EXPECT_EQ(rc, kExitCrashInjected);
}

TEST(ConcurrentWriters, ForkedAppendersNeverCollideOnIds)
{
    ScratchDir scratch;
    std::string dir = scratch.path("archive");
    {
        // Create the directory up front so neither child races mkdir.
        archive::RunArchive ar(dir);
        ASSERT_EQ(ar.append(Json::object(), "", "run",
                            {makeRun("seed")}),
                  1);
    }

    auto appender = [&dir](const std::string &who) {
        archive::RunArchive ar(dir);
        for (int i = 0; i < 4; ++i)
            ar.append(Json::object(), who, "run",
                      {makeRun(who + std::to_string(i))});
    };
    ::pid_t left = ::fork();
    ASSERT_GE(left, 0);
    if (left == 0) {
        try {
            appender("left");
        } catch (...) {
            ::_exit(3);
        }
        ::_exit(0);
    }
    int rcRight = runInChild([&appender] { appender("right"); });
    int status = 0;
    ::waitpid(left, &status, 0);
    int rcLeft = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    EXPECT_EQ(rcLeft, 0);
    EXPECT_EQ(rcRight, 0);

    archive::RunArchive ar(dir);
    archive::ScanResult scan = ar.scan();
    ASSERT_EQ(scan.entries.size(), 9u);
    int leftSeen = 0, rightSeen = 0;
    for (size_t i = 0; i < scan.entries.size(); ++i) {
        // Ids are dense and ascending: the lock serialized the
        // appends, so no id was skipped or assigned twice.
        EXPECT_EQ(scan.entries[i].id, static_cast<int>(i) + 1);
        const std::string &label = scan.entries[i].label;
        leftSeen += label == "left";
        rightSeen += label == "right";
    }
    EXPECT_EQ(leftSeen, 4);
    EXPECT_EQ(rightSeen, 4);
    EXPECT_TRUE(archive::fsckArchive(dir, false).clean());
}

/** Installs a FaultyFsOps for one scope; restores the default after. */
class FaultScope
{
  public:
    explicit FaultScope(const std::string &spec, uint64_t seed = 0)
        : ops_({FaultPlan::parseIoSpec(spec)}, seed)
    {
        prev_ = setFsOps(&ops_);
    }

    ~FaultScope() { setFsOps(prev_); }

  private:
    FaultyFsOps ops_;
    FsOps *prev_;
};

TEST(IoFaults, EnospcFailsTheWriteLoudly)
{
    ScratchDir scratch;
    std::string p = scratch.path("state.json");
    writeStateFile(p, samplePayload(1));
    {
        FaultScope fault("io:enospc");
        EXPECT_THROW(writeStateFile(p, samplePayload(2)),
                     FatalError);
    }
    // The failed write cleaned up its staging file and the previous
    // checkpoint (rotated to .bak before the write) is recovered.
    EXPECT_NE(::access((p + ".tmp").c_str(), F_OK), 0);
    StateLoad load = loadStateFile(p);
    EXPECT_EQ(load.payload.dump(), samplePayload(1).dump());
}

TEST(IoFaults, FsyncFailureFailsTheWriteLoudly)
{
    ScratchDir scratch;
    std::string p = scratch.path("state.json");
    writeStateFile(p, samplePayload(1));
    {
        FaultScope fault("io:fsync-fail");
        EXPECT_THROW(writeStateFile(p, samplePayload(2)),
                     FatalError);
    }
    StateLoad load = loadStateFile(p);
    EXPECT_EQ(load.payload.dump(), samplePayload(1).dump());
}

TEST(IoFaults, PersistentShortWritesStillComplete)
{
    // One byte per write(): the atomic-write loop must keep retrying
    // and the end state must be the full, verified file.
    ScratchDir scratch;
    std::string p = scratch.path("state.json");
    {
        FaultScope fault("io:short-write:n=1000000:mag=1");
        writeStateFile(p, samplePayload(7));
    }
    StateLoad load = loadStateFile(p);
    EXPECT_FALSE(load.usedBackup);
    EXPECT_EQ(load.payload.dump(), samplePayload(7).dump());
}

TEST(IoFaults, TornRenameIsCaughtByTheEnvelope)
{
    ScratchDir scratch;
    std::string p = scratch.path("state.json");
    writeStateFile(p, samplePayload(1));
    writeStateFile(p, samplePayload(2));
    {
        // Tear only the tmp -> main publication rename (the .bak
        // rotation renames the main file, whose path has no ".tmp").
        FaultScope fault("io:torn-rename:path=.tmp");
        // The torn rename reports success — like a crashed kernel
        // that acked the rename before writing it out.
        writeStateFile(p, samplePayload(3));
    }
    StateLoad load = loadStateFile(p);
    EXPECT_TRUE(load.usedBackup);
    EXPECT_EQ(load.payload.dump(), samplePayload(2).dump());
}

TEST(IoFaults, CrashSweepIsDeterministic)
{
    // The same crash point must leave byte-identical on-disk state on
    // every run — that is what makes torture runs reproducible.
    ScratchDir scratch;
    for (int round = 0; round < 2; ++round) {
        std::string p =
            scratch.path("state" + std::to_string(round) + ".json");
        writeStateFile(p, samplePayload(1));
        int rc = runChildCrashingAt(
            4, [&p] { writeStateFile(p, samplePayload(2)); });
        ASSERT_EQ(rc, kExitCrashInjected);
    }
    std::string a, b;
    ASSERT_TRUE(readFile(scratch.path("state0.json.tmp"), a) ||
                readFile(scratch.path("state0.json"), a));
    ASSERT_TRUE(readFile(scratch.path("state1.json.tmp"), b) ||
                readFile(scratch.path("state1.json"), b));
    EXPECT_EQ(a, b);
}

} // namespace
} // namespace harness
} // namespace rigor

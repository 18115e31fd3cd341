/**
 * @file
 * Serve-subsystem tests: JobSpec/QuerySpec JSON round-trips and
 * validation, the durable priority-FIFO JobQueue (persist/restore,
 * drain semantics, daemon-assigned resume paths), protocol envelope
 * checking, and the shared execution engine's daemon-facing contract
 * — suite heartbeats route through the installed LogSink (so a
 * per-job-thread sink captures them and --quiet fully silences them)
 * and a job's streamed report is deterministic across executions.
 */

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "serve/jobrun.hh"
#include "serve/jobspec.hh"
#include "serve/protocol.hh"
#include "serve/queue.hh"
#include "serve/server.hh"
#include "support/logging.hh"
#include "support/schema.hh"
#include "support/unix_socket.hh"
#include "workloads/workloads.hh"

namespace rigor {
namespace serve {
namespace {

/** Fresh scratch directory, removed on destruction. */
class ScratchDir
{
  public:
    ScratchDir()
    {
        char tmpl[] = "/tmp/rigor_serve_XXXXXX";
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

  private:
    std::string dir_;
};

/** RAII capture of this thread's log messages. */
class ThreadSinkCapture
{
  public:
    ThreadSinkCapture()
    {
        previous_ = setThreadLogSink(
            [this](LogLevel level, const std::string &msg) {
                lines.emplace_back(level, msg);
            });
    }
    ~ThreadSinkCapture() { setThreadLogSink(std::move(previous_)); }

    std::vector<std::pair<LogLevel, std::string>> lines;

  private:
    LogSink previous_;
};

JobSpec
tinySuiteSpec()
{
    JobSpec spec;
    spec.command = "suite";
    // Two invocations is the floor for the rigorous CI estimate;
    // a tiny size for every workload keeps this fast under
    // sanitizers (the heartbeat cadence under test is per-workload,
    // not per-iteration).
    spec.invocations = 2;
    spec.iterations = 2;
    spec.size = 4;
    return spec;
}

TEST(JobSpec, RoundTripIsExact)
{
    JobSpec spec;
    spec.command = "run";
    spec.workload = "queens";
    spec.tier = vm::Tier::Threaded;
    spec.invocations = 5;
    spec.iterations = 7;
    spec.jobs = 3;
    spec.size = 42;
    spec.seed = 0xdeadbeefcafef00dULL;
    spec.jitThreshold = 11;
    spec.noNoise = true;
    spec.quiet = true;
    spec.maxRetries = 4;
    spec.deadlineMs = 12.5;
    spec.injectSpecs = {"throw:wl=queens:inv=2", "stall:p=0.5"};
    spec.jsonPath = "/tmp/x.json";
    spec.csvPath = "/tmp/x.csv";
    spec.metricsPath = "/tmp/x.metrics";
    spec.tracePath = "/tmp/x.trace";
    spec.archiveDir = "/tmp/arch";
    spec.label = "lbl";

    JobSpec back = jobSpecFromJson(jobSpecToJson(spec));
    EXPECT_EQ(jobSpecToJson(back).dump(), jobSpecToJson(spec).dump());
    EXPECT_EQ(back.seed, spec.seed);
    EXPECT_EQ(back.tier, vm::Tier::Threaded);
    EXPECT_EQ(back.injectSpecs, spec.injectSpecs);
}

TEST(JobSpec, RejectsUnknownCommandAndBadCheckpoint)
{
    JobSpec spec;
    spec.command = "frobnicate";
    EXPECT_THROW(jobSpecFromJson(jobSpecToJson(spec)), FatalError);

    JobSpec run;
    run.command = "run";
    run.workload = "queens";
    run.checkpointEvery = 4;
    EXPECT_THROW(jobSpecFromJson(jobSpecToJson(run)), FatalError);

    // A submitted suite arrives with checkpoint_every but no resume
    // path (the daemon assigns one at admission) — that must parse.
    JobSpec suite;
    suite.command = "suite";
    suite.checkpointEvery = 4;
    EXPECT_NO_THROW(jobSpecFromJson(jobSpecToJson(suite)));
}

TEST(QuerySpec, RoundTripIsExact)
{
    QuerySpec q;
    q.kind = "gate";
    q.baseRef = "v1";
    q.candRef = "HEAD";
    q.archiveDir = "/tmp/arch";
    q.resamples = 500;
    q.confidence = 0.9;
    q.gateThresholdPct = 2.5;
    q.baseTier = "interp";
    q.candTier = "adaptive";
    q.explainGate = true;
    q.seed = 7;
    QuerySpec back = querySpecFromJson(querySpecToJson(q));
    EXPECT_EQ(querySpecToJson(back).dump(), querySpecToJson(q).dump());
}

TEST(Protocol, HeaderMismatchIsFatal)
{
    Json ok = makeRequest("status");
    EXPECT_NO_THROW(checkProtocolHeader(ok));

    Json wrongSchema = makeRequest("status");
    wrongSchema.set("schema", "something-else");
    EXPECT_THROW(checkProtocolHeader(wrongSchema), FatalError);

    Json wrongVersion = makeRequest("status");
    wrongVersion.set("version", kServeProtocolVersion + 1);
    EXPECT_THROW(checkProtocolHeader(wrongVersion), FatalError);
}

TEST(JobQueue, PriorityThenFifo)
{
    ScratchDir scratch;
    JobQueue q(scratch.dir());
    JobSpec spec;
    spec.command = "run";
    spec.workload = "queens";
    int a = q.submit(spec, 10, "a").id;
    int b = q.submit(spec, 5, "b").id;
    int c = q.submit(spec, 5, "c").id;

    // Lowest priority number first; FIFO among equals.
    JobRecord *next = q.nextRunnable();
    ASSERT_NE(next, nullptr);
    EXPECT_EQ(next->id, b);
    next->state = JobState::Running;
    next = q.nextRunnable();
    EXPECT_EQ(next->id, c);
    next->state = JobState::Done;
    next = q.nextRunnable();
    EXPECT_EQ(next->id, a);
}

TEST(JobQueue, SuiteJobsGetDurableResumePaths)
{
    ScratchDir scratch;
    JobQueue q(scratch.dir());
    JobSpec suite;
    suite.command = "suite";
    EXPECT_FALSE(q.submit(suite, 10, "").spec.resumePath.empty());

    // Archiving suites are excluded (the archive/resume exclusion):
    // they restart from scratch on resume, byte-identically.
    JobSpec archived;
    archived.command = "suite";
    archived.archiveDir = scratch.dir() + "/arch";
    EXPECT_TRUE(q.submit(archived, 10, "").spec.resumePath.empty());

    JobSpec run;
    run.command = "run";
    run.workload = "queens";
    EXPECT_TRUE(q.submit(run, 10, "").spec.resumePath.empty());
}

TEST(JobQueue, RestoreRequeuesInFlightJobsBitExactly)
{
    ScratchDir scratch;
    JobSpec spec;
    spec.command = "run";
    spec.workload = "queens";
    spec.seed = 0x1234abcdULL;
    std::string specDump;
    int runningId, doneId;
    {
        JobQueue q(scratch.dir());
        JobRecord &running = q.submit(spec, 3, "tenant-a");
        runningId = running.id;
        specDump = jobSpecToJson(running.spec).dump();
        running.state = JobState::Running;
        JobRecord &done = q.submit(spec, 10, "tenant-b");
        doneId = done.id;
        done.state = JobState::Done;
        done.exitCode = 0;
        q.persist();
    }
    JobQueue q2(scratch.dir());
    ASSERT_TRUE(q2.stateExists());
    q2.restore();

    // The drained Running job is Queued again with its spec bit-exact;
    // the finished one keeps its result.
    JobRecord *running = q2.find(runningId);
    ASSERT_NE(running, nullptr);
    EXPECT_EQ(running->state, JobState::Queued);
    EXPECT_EQ(running->exitCode, -1);
    EXPECT_EQ(running->priority, 3);
    EXPECT_EQ(running->client, "tenant-a");
    EXPECT_EQ(jobSpecToJson(running->spec).dump(), specDump);
    JobRecord *done = q2.find(doneId);
    ASSERT_NE(done, nullptr);
    EXPECT_EQ(done->state, JobState::Done);
    EXPECT_EQ(done->exitCode, 0);

    // Ids keep advancing: never reused across a restart.
    EXPECT_GT(q2.submit(spec, 10, "").id, doneId);
}

TEST(ServeJob, SuiteHeartbeatRoutesThroughLogSink)
{
    ThreadSinkCapture capture;
    std::string output;
    JobHooks hooks;
    hooks.output = [&](const std::string &chunk) { output += chunk; };
    EXPECT_EQ(executeJob(tinySuiteSpec(), hooks), 0);

    // One heartbeat per workload, all through the sink — this is what
    // keeps concurrent daemon jobs' heartbeats from interleaving on a
    // shared stderr.
    int heartbeats = 0;
    for (const auto &[level, msg] : capture.lines)
        if (level == LogLevel::Info &&
            msg.compare(0, 7, "suite [") == 0)
            ++heartbeats;
    EXPECT_EQ(static_cast<size_t>(heartbeats),
              workloads::suite().size());
    EXPECT_NE(output.find("geomean speedup"), std::string::npos);
}

TEST(ServeJob, QuietSilencesHeartbeatsCompletely)
{
    ThreadSinkCapture capture;
    JobSpec spec = tinySuiteSpec();
    spec.quiet = true;
    // As in the daemon's worker: the job thread carries the job's
    // quiet so deeper layers (parallel workers included) are silent.
    bool prevQuiet = setThreadQuiet(true);
    JobHooks hooks;
    hooks.output = [](const std::string &) {};
    int rc = executeJob(spec, hooks);
    setThreadQuiet(prevQuiet);
    EXPECT_EQ(rc, 0);
    EXPECT_TRUE(capture.lines.empty());
}

TEST(ServeJob, RunReportIsDeterministic)
{
    JobSpec spec;
    spec.command = "run";
    spec.workload = "queens";
    spec.invocations = 2;
    spec.iterations = 3;
    spec.size = 5;

    auto execute = [&spec]() {
        std::string out;
        JobHooks hooks;
        hooks.output = [&out](const std::string &chunk) {
            out += chunk;
        };
        EXPECT_EQ(executeJob(spec, hooks), 0);
        return out;
    };
    std::string first = execute();
    std::string second = execute();
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(first, second);
}


/**
 * A job's result line must follow its last event at once. The stream
 * used to sleep on the condition variable (for up to its 200 ms poll)
 * before looking for events, so a job that settled while the stream
 * was not waiting — all of its events already pushed when the stream
 * looked again — paid the whole poll. A tiny job finishes in a few
 * milliseconds; its stream did almost always.
 */
TEST(ServeDaemon, ResultLineFollowsTheLastEventAtOnce)
{
    ScratchDir tmp;
    ServerConfig cfg;
    cfg.socketPath = tmp.dir() + "/serve.sock";
    cfg.stateDir = tmp.dir() + "/state";
    int serverRc = -1;
    std::thread daemon([&] { serverRc = runServer(cfg); });
    auto dial = [&] {
        for (int i = 0; i < 500; ++i) {
            int fd = connectUnixSocket(cfg.socketPath);
            if (fd >= 0)
                return fd;
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        }
        return -1;
    };

    JobSpec spec;
    spec.workload = "sieve";
    spec.invocations = 1;
    spec.iterations = 1;
    spec.size = 10;
    spec.quiet = true;
    std::vector<double> latencyMs;
    for (int i = 0; i < 7; ++i) {
        int fd = dial();
        ASSERT_GE(fd, 0) << "daemon never listened";
        LineChannel ch(fd);
        Json req = makeRequest("submit");
        req.set("job", jobSpecToJson(spec));
        req.set("wait", true);
        auto start = std::chrono::steady_clock::now();
        ASSERT_TRUE(ch.writeLine(req.dump()));
        std::string line;
        bool gotResult = false;
        while (!gotResult && ch.readLine(line)) {
            Json msg = Json::parse(line);
            const Json *op = msg.get("op");
            if (op && op->asString() == "result") {
                EXPECT_EQ(msg.at("exit_code").asInt(), 0) << line;
                gotResult = true;
            }
        }
        ASSERT_TRUE(gotResult);
        latencyMs.push_back(std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count());
    }

    int fd = dial();
    ASSERT_GE(fd, 0);
    {
        LineChannel ch(fd);
        Json req = makeRequest("shutdown");
        req.set("mode", "drain");
        ASSERT_TRUE(ch.writeLine(req.dump()));
        std::string line;
        ch.readLine(line);
    }
    daemon.join();
    EXPECT_EQ(serverRc, kExitSuccess);

    // Well under the old 200 ms poll, with room for a sanitizer build
    // and a slow fsync; the median ignores one stalled submission.
    std::sort(latencyMs.begin(), latencyMs.end());
    EXPECT_LT(latencyMs[latencyMs.size() / 2], 100.0)
        << "fastest " << latencyMs.front() << " ms, slowest "
        << latencyMs.back() << " ms";
}

} // namespace
} // namespace serve
} // namespace rigor

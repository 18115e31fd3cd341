/**
 * @file
 * Serve-subsystem tests: JobSpec/QuerySpec JSON round-trips and
 * validation, the durable priority-FIFO JobQueue (persist/restore,
 * drain semantics, daemon-assigned resume paths), protocol envelope
 * checking, and the shared execution engine's daemon-facing contract
 * — suite heartbeats route through the installed LogSink (so a
 * per-job-thread sink captures them and --quiet fully silences them)
 * and a job's streamed report is deterministic across executions.
 * Also resume from every tier position of a checkpointed suite, the
 * daemon's limit on the length of a request line and the reaping of
 * its finished connection threads.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/socket.h>

#include <gtest/gtest.h>

#include "serve/jobrun.hh"
#include "serve/jobspec.hh"
#include "serve/protocol.hh"
#include "serve/queue.hh"
#include "serve/server.hh"
#include "support/durable_io.hh"
#include "support/interrupt.hh"
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

    // Every other job command, with each field it takes set.
    JobSpec seq = spec;
    seq.command = "sequential";
    seq.targetPct = 0.375;
    seq.archiveDir.clear();
    seq.label.clear();
    JobSpec cmp = seq;
    cmp.command = "compare";
    cmp.targetPct = 2.0;
    cmp.jsonPath.clear();
    cmp.csvPath.clear();
    JobSpec prof;
    prof.command = "profile";
    prof.workload = "queens";
    prof.tier = vm::Tier::Adaptive;
    prof.iterations = 7;
    prof.size = 42;
    prof.seed = spec.seed;
    prof.jitThreshold = 11;
    prof.quiet = true;
    JobSpec suite = cmp;
    suite.command = "suite";
    suite.workload.clear();
    suite.resumePath = "/tmp/x.state";
    suite.checkpointEvery = 3;
    suite.label = "lbl";
    for (const JobSpec &s : {seq, cmp, prof, suite}) {
        JobSpec b = jobSpecFromJson(jobSpecToJson(s));
        EXPECT_EQ(jobSpecToJson(b).dump(), jobSpecToJson(s).dump())
            << s.command;
    }
    EXPECT_EQ(jobSpecFromJson(jobSpecToJson(seq)).targetPct, 0.375);
}

TEST(JobSpec, VersionOneDocumentsStillParse)
{
    // A queue persisted by a v1 build holds run and suite specs
    // without target_pct; they resume under this one.
    JobSpec suite = tinySuiteSpec();
    suite.resumePath = "/tmp/x.state";
    Json v1 = jobSpecToJson(suite);
    v1.set("version", 1);
    v1.erase("target_pct");
    EXPECT_EQ(jobSpecToJson(jobSpecFromJson(v1)).dump(),
              jobSpecToJson(suite).dump());

    // v1 carried no other command, and v2 requires target_pct.
    JobSpec seq;
    seq.command = "sequential";
    seq.workload = "queens";
    Json seqV1 = jobSpecToJson(seq);
    seqV1.set("version", 1);
    EXPECT_THROW(jobSpecFromJson(seqV1), FatalError);
    Json noTarget = jobSpecToJson(seq);
    noTarget.erase("target_pct");
    EXPECT_ANY_THROW(jobSpecFromJson(noTarget));
    Json future = jobSpecToJson(seq);
    future.set("version", kJobSpecVersion + 1);
    EXPECT_THROW(jobSpecFromJson(future), FatalError);
}

TEST(JobSpec, FieldsRejectedByTheFlagTableNameTheFlag)
{
    // Each spec field whose "set" state the check can see, on a job
    // command the flag table says it does not apply to.
    struct Case
    {
        const char *command;
        const char *flag;
        void (*set)(JobSpec &);
    };
    const Case cases[] = {
        {"profile", "--json", [](JobSpec &s) { s.jsonPath = "x"; }},
        {"compare", "--csv", [](JobSpec &s) { s.csvPath = "x"; }},
        {"profile", "--metrics", [](JobSpec &s) { s.metricsPath = "x"; }},
        {"profile", "--trace", [](JobSpec &s) { s.tracePath = "x"; }},
        {"sequential", "--archive",
         [](JobSpec &s) { s.archiveDir = "x"; }},
        {"compare", "--label", [](JobSpec &s) { s.label = "x"; }},
        {"run", "--resume", [](JobSpec &s) { s.resumePath = "x"; }},
        {"profile", "--inject",
         [](JobSpec &s) { s.injectSpecs = {"throw"}; }},
        {"sequential", "--checkpoint-every",
         [](JobSpec &s) { s.checkpointEvery = 2; }},
    };
    for (const auto &c : cases) {
        JobSpec spec;
        spec.command = c.command;
        spec.workload = "queens";
        c.set(spec);
        try {
            validateJobSpec(spec);
            ADD_FAILURE() << c.command << " accepted " << c.flag;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(c.flag),
                      std::string::npos)
                << e.what();
        }
    }
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

    // Counts past INT_MAX used to wrap silently into a small int.
    Json huge = jobSpecToJson(suite);
    huge.set("invocations", int64_t{1} << 32);
    EXPECT_THROW(jobSpecFromJson(huge), FatalError);
    QuerySpec q;
    q.archiveDir = "/tmp/arch";
    Json hugeQuery = querySpecToJson(q);
    hugeQuery.set("resamples", (int64_t{1} << 32) + 500);
    EXPECT_THROW(querySpecFromJson(hugeQuery), FatalError);
}

/** Connect to the daemon at `path`, retrying while it starts. */
int
dialDaemon(const std::string &path)
{
    for (int i = 0; i < 500; ++i) {
        int fd = connectUnixSocket(path);
        if (fd >= 0)
            return fd;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return -1;
}

/** Ask the daemon at `path` to drain and wait for its answer. */
void
drainDaemon(const std::string &path)
{
    int fd = dialDaemon(path);
    ASSERT_GE(fd, 0);
    LineChannel ch(fd);
    Json req = makeRequest("shutdown");
    req.set("mode", "drain");
    ASSERT_TRUE(ch.writeLine(req.dump()));
    std::string line;
    ch.readLine(line);
}

/**
 * A suite writes no run document and no series CSV. Each flag is
 * rejected by name wherever a job enters: the daemon's spec parser
 * and the execution engine the CLI and the daemon share.
 */
void
expectSuiteRejects(const char *flag, JobSpec suite)
{
    suite.command = "suite";
    suite.quiet = true;
    try {
        jobSpecFromJson(jobSpecToJson(suite));
        ADD_FAILURE() << "jobSpecFromJson accepted suite " << flag;
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
            << e.what();
    }
    JobHooks hooks;
    std::string out;
    hooks.output = [&out](const std::string &c) { out += c; };
    EXPECT_THROW(executeJob(suite, hooks), FatalError);
    EXPECT_EQ(out, "");
}

TEST(JobSpec, SuiteRejectsJson)
{
    JobSpec suite;
    suite.jsonPath = "/tmp/never-written.json";
    expectSuiteRejects("--json", suite);
}

TEST(JobSpec, SuiteRejectsCsv)
{
    JobSpec suite;
    suite.csvPath = "/tmp/never-written.csv";
    expectSuiteRejects("--csv", suite);
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
    // A queued job of another command, with its own fields set.
    JobSpec seq;
    seq.command = "sequential";
    seq.workload = "nbody";
    seq.tier = vm::Tier::Threaded;
    seq.targetPct = 0.625;
    seq.jsonPath = scratch.dir() + "/seq.json";
    std::string specDump, seqDump;
    int runningId, doneId, queuedId;
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
        JobRecord &queued = q.submit(seq, 10, "tenant-c");
        queuedId = queued.id;
        seqDump = jobSpecToJson(queued.spec).dump();
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
    JobRecord *queued = q2.find(queuedId);
    ASSERT_NE(queued, nullptr);
    EXPECT_EQ(queued->state, JobState::Queued);
    EXPECT_EQ(jobSpecToJson(queued->spec).dump(), seqDump);
    EXPECT_EQ(queued->spec.targetPct, 0.625);

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


/** The bytes a checkpointed suite job leaves behind. */
struct SuiteBytes
{
    std::string report;
    std::string state;
    std::string metrics;
    std::string trace;
};

/**
 * Run the checkpointed suite `spec` from scratch to the end. With
 * `interruptAt` k > 0, interrupt it at its k-th committed invocation
 * first, then resume it with the same spec; the report is the
 * resumed process's.
 */
SuiteBytes
runSuiteInterruptedAt(const JobSpec &spec, int interruptAt)
{
    for (const std::string &f : {spec.resumePath, spec.resumePath + ".bak",
                                  spec.metricsPath, spec.tracePath})
        std::remove(f.c_str());
    SuiteBytes b;
    JobHooks hooks;
    hooks.output = [&b](const std::string &chunk) { b.report += chunk; };
    if (interruptAt > 0) {
        int commits = 0;
        hooks.progress = [&commits, interruptAt](
                             const harness::RunResult &, int) {
            if (++commits == interruptAt)
                requestInterrupt();
        };
        EXPECT_EQ(executeJob(spec, hooks), kExitInterrupted)
            << "interrupted at commit " << interruptAt;
        clearInterruptRequest();
        EXPECT_EQ(commits, interruptAt);
        hooks.progress = nullptr;
        b.report.clear();
    }
    EXPECT_EQ(executeJob(spec, hooks), kExitSuccess)
        << "resumed from commit " << interruptAt;
    EXPECT_TRUE(readFile(spec.resumePath, b.state));
    EXPECT_TRUE(readFile(spec.metricsPath, b.metrics));
    EXPECT_TRUE(readFile(spec.tracePath, b.trace));
    return b;
}

/**
 * A suite interrupted at any commit and resumed writes the bytes of
 * an uninterrupted run. With two invocations per tier, commits 1-6
 * are the middle and the end of the first workload's interp,
 * adaptive and threaded runs (a partial tier, or a complete one whose
 * workload span is still open), and commit 7 is the second
 * workload's first.
 */
TEST(ServeJob, ResumeFromEveryTierPositionIsByteIdentical)
{
    ScratchDir tmp;
    ThreadSinkCapture logs;  // heartbeats stay out of the test output
    JobSpec spec = tinySuiteSpec();
    spec.resumePath = tmp.dir() + "/state.json";
    spec.checkpointEvery = 1;
    spec.metricsPath = tmp.dir() + "/metrics.json";
    spec.tracePath = tmp.dir() + "/trace.json";

    SuiteBytes ref = runSuiteInterruptedAt(spec, 0);
    ASSERT_NE(ref.report.find("geomean speedup"), std::string::npos);
    for (int k = 1; k <= 7; ++k) {
        SuiteBytes got = runSuiteInterruptedAt(spec, k);
        EXPECT_EQ(got.report, ref.report) << "commit " << k;
        // Compared as booleans: a failure must not print ~1 MB.
        EXPECT_TRUE(got.state == ref.state) << "state, commit " << k;
        EXPECT_TRUE(got.metrics == ref.metrics)
            << "metrics, commit " << k;
        EXPECT_TRUE(got.trace == ref.trace) << "trace, commit " << k;
    }
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

    JobSpec spec;
    spec.workload = "sieve";
    spec.invocations = 1;
    spec.iterations = 1;
    spec.size = 10;
    spec.quiet = true;
    std::vector<double> latencyMs;
    for (int i = 0; i < 7; ++i) {
        int fd = dialDaemon(cfg.socketPath);
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

    drainDaemon(cfg.socketPath);
    daemon.join();
    EXPECT_EQ(serverRc, kExitSuccess);

    // Well under the old 200 ms poll, with room for a sanitizer build
    // and a slow fsync; the median ignores one stalled submission.
    std::sort(latencyMs.begin(), latencyMs.end());
    EXPECT_LT(latencyMs[latencyMs.size() / 2], 100.0)
        << "fastest " << latencyMs.front() << " ms, slowest "
        << latencyMs.back() << " ms";
}

TEST(LineChannel, LineLongerThanTheMaximumEndsTheChannel)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    LineChannel writer(fds[0]);
    LineChannel reader(fds[1], 8);
    ASSERT_TRUE(writer.writeLine("12345678"));
    ASSERT_TRUE(writer.writeLine("123456789"));
    std::string line;
    ASSERT_TRUE(reader.readLine(line));
    EXPECT_EQ(line, "12345678");
    EXPECT_FALSE(reader.lineTooLong());
    EXPECT_FALSE(reader.readLine(line));
    EXPECT_TRUE(reader.lineTooLong());
    ASSERT_TRUE(writer.writeLine("1"));
    EXPECT_FALSE(reader.readLine(line)) << "read past a too-long line";

    // Without any newline, the limit still holds.
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    LineChannel sender(fds[0]);
    LineChannel bounded(fds[1], 8);
    ASSERT_EQ(::send(sender.fd(), "123456789", 9, 0), 9);
    EXPECT_FALSE(bounded.readLine(line));
    EXPECT_TRUE(bounded.lineTooLong());
}

/**
 * A client that sends one endless line gets a structured
 * line-too-long error and its connection closed; the daemon never
 * buffers more than the maximum and keeps serving everyone else.
 */
TEST(ServeDaemon, OverLongLineIsRejectedAndOthersStillServed)
{
    ScratchDir tmp;
    ServerConfig cfg;
    cfg.socketPath = tmp.dir() + "/serve.sock";
    cfg.stateDir = tmp.dir() + "/state";
    int serverRc = -1;
    std::thread daemon([&] { serverRc = runServer(cfg); });

    std::string line;
    {
        int fd = dialDaemon(cfg.socketPath);
        ASSERT_GE(fd, 0) << "daemon never listened";
        LineChannel ch(fd);
        // The daemon may close before it has read the whole line, so
        // the write itself may fail.
        ch.writeLine(std::string(kMaxRequestLineBytes + 1, 'x'));
        ASSERT_TRUE(ch.readLine(line));
        Json err = Json::parse(line);
        EXPECT_FALSE(err.at("ok").asBool());
        EXPECT_EQ(err.at("error").asString(), "line-too-long");
        EXPECT_FALSE(ch.readLine(line)) << "connection left open";
    }
    {
        int fd = dialDaemon(cfg.socketPath);
        ASSERT_GE(fd, 0);
        LineChannel ch(fd);
        // A request padded to exactly the maximum is still served.
        std::string hello = makeRequest("hello").dump();
        hello.resize(kMaxRequestLineBytes, ' ');
        ASSERT_TRUE(ch.writeLine(hello));
        ASSERT_TRUE(ch.readLine(line));
        Json resp = Json::parse(line);
        EXPECT_TRUE(resp.at("ok").asBool()) << line;
        EXPECT_EQ(resp.at("op").asString(), "hello");
    }
    drainDaemon(cfg.socketPath);
    daemon.join();
    EXPECT_EQ(serverRc, kExitSuccess);
}

/**
 * A request line nested far deeper than any document the tool writes
 * is an ordinary protocol error, not a stack overflow on the
 * connection thread: the same connection and the next client are
 * still served.
 */
TEST(ServeDaemon, DeeplyNestedRequestIsRejectedAndOthersStillServed)
{
    ScratchDir tmp;
    ServerConfig cfg;
    cfg.socketPath = tmp.dir() + "/serve.sock";
    cfg.stateDir = tmp.dir() + "/state";
    int serverRc = -1;
    std::thread daemon([&] { serverRc = runServer(cfg); });

    std::string line;
    {
        int fd = dialDaemon(cfg.socketPath);
        ASSERT_GE(fd, 0) << "daemon never listened";
        LineChannel ch(fd);
        ASSERT_TRUE(ch.writeLine(std::string(kMaxRequestLineBytes / 4, '[')));
        ASSERT_TRUE(ch.readLine(line));
        Json err = Json::parse(line);
        EXPECT_FALSE(err.at("ok").asBool());
        EXPECT_EQ(err.at("error").asString(), "protocol-error");
        EXPECT_NE(err.at("message").asString().find("nesting"),
                  std::string::npos)
            << line;
        ASSERT_TRUE(ch.writeLine(makeRequest("hello").dump()));
        ASSERT_TRUE(ch.readLine(line));
        EXPECT_TRUE(Json::parse(line).at("ok").asBool()) << line;
    }
    {
        int fd = dialDaemon(cfg.socketPath);
        ASSERT_GE(fd, 0);
        LineChannel ch(fd);
        ASSERT_TRUE(ch.writeLine(makeRequest("hello").dump()));
        ASSERT_TRUE(ch.readLine(line));
        EXPECT_TRUE(Json::parse(line).at("ok").asBool()) << line;
    }
    drainDaemon(cfg.socketPath);
    daemon.join();
    EXPECT_EQ(serverRc, kExitSuccess);
}

/** Mappings in this process's address space. */
size_t
mappingCount()
{
    std::string maps;
    EXPECT_TRUE(readFile("/proc/self/maps", maps));
    return static_cast<size_t>(std::count(maps.begin(), maps.end(), '\n'));
}

/**
 * The daemon joins a finished connection's thread while it runs. It
 * used to keep every connection's thread, and with it a mapped stack,
 * until it shut down, so a long-lived daemon grew with every client
 * it had ever served.
 */
TEST(ServeDaemon, FinishedConnectionThreadsAreReaped)
{
    ScratchDir tmp;
    ServerConfig cfg;
    cfg.socketPath = tmp.dir() + "/serve.sock";
    cfg.stateDir = tmp.dir() + "/state";
    int serverRc = -1;
    std::thread daemon([&] { serverRc = runServer(cfg); });

    auto hello = [&cfg] {
        int fd = dialDaemon(cfg.socketPath);
        ASSERT_GE(fd, 0) << "daemon never listened";
        LineChannel ch(fd);
        ASSERT_TRUE(ch.writeLine(makeRequest("hello").dump()));
        std::string line;
        ASSERT_TRUE(ch.readLine(line));
    };
    for (int i = 0; i < 10; ++i)
        hello();
    size_t baseline = mappingCount();
    for (int i = 0; i < 200; ++i)
        hello();
    // Each kept thread holds two mappings (stack and guard page). A
    // thread is reaped on the accept loop's next turn, at most one
    // 200 ms poll after it finished.
    const size_t slack = 40;
    size_t after = mappingCount();
    for (int i = 0; i < 30 && after > baseline + slack; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        after = mappingCount();
    }
    EXPECT_LE(after, baseline + slack)
        << "mappings: " << baseline << " before 200 connections, "
        << after << " after";

    drainDaemon(cfg.socketPath);
    daemon.join();
    EXPECT_EQ(serverRc, kExitSuccess);
}

} // namespace
} // namespace serve
} // namespace rigor

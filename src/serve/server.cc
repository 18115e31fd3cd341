#include "serve/server.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "serve/jobrun.hh"
#include "serve/protocol.hh"
#include "serve/queue.hh"
#include "support/durable_io.hh"
#include "support/interrupt.hh"
#include "support/logging.hh"
#include "support/schema.hh"
#include "support/str.hh"
#include "support/unix_socket.hh"

namespace fs = std::filesystem;

namespace rigor {
namespace serve {

namespace {

/**
 * Pull the archive entry id out of a job's report stream (the
 * "archived as #N in DIR" line executeJob prints). Parsing our own
 * output is deliberate: it keeps jobrun free of daemon concerns while
 * still letting `status` hand clients a ref they can feed straight to
 * compare/gate/explain.
 */
int
archiveIdFromOutput(const std::string &output)
{
    size_t pos = output.rfind("archived as #");
    if (pos == std::string::npos)
        return -1;
    return std::atoi(output.c_str() + pos +
                     std::strlen("archived as #"));
}

class Server
{
  public:
    explicit Server(const ServerConfig &cfg)
        : cfg_(cfg), queue_(cfg.stateDir)
    {}

    int run();

  private:
    void workerLoop();
    void runJob(int id, std::unique_lock<std::mutex> &l);
    void handleConn(int fd);
    void dispatchRequest(LineChannel &ch, const Json &req,
                         const std::string &op);
    void handleHello(LineChannel &ch);
    void handleSubmit(LineChannel &ch, const Json &req);
    void streamJob(LineChannel &ch, int id);
    void handleStatus(LineChannel &ch, const Json &req);
    void handleCancel(LineChannel &ch, const Json &req);
    void handleQuery(LineChannel &ch, const Json &req);
    void handleShutdown(LineChannel &ch, const Json &req);
    void pushEvent(int id, Json event);

    ServerConfig cfg_;
    JobQueue queue_;

    /** Guards queue_, events_, draining_, stopping_, shutdownOp_. */
    std::mutex mu_;
    std::condition_variable cv_;
    /** Per-job event streams (log/output/progress/done lines). */
    std::map<int, std::vector<Json>> events_;
    /** No new submissions; workers exit once the queue is empty. */
    bool draining_ = false;
    /** The daemon is past its worker join; waiters must give up. */
    bool stopping_ = false;
    /** Shutdown came from the protocol op, not a signal (exit 0). */
    bool shutdownOp_ = false;

    /** Guards connFds_, connDone_ (connThreads_ is run()'s alone). */
    std::mutex connMu_;
    std::vector<std::thread> connThreads_;
    std::set<int> connFds_;
    /** Connection threads that have finished but are not joined. */
    std::vector<std::thread::id> connDone_;
};

/** Append an event to a job's stream; caller does NOT hold mu_. */
void
Server::pushEvent(int id, Json event)
{
    std::lock_guard<std::mutex> g(mu_);
    events_[id].push_back(std::move(event));
    cv_.notify_all();
}

void
Server::runJob(int id, std::unique_lock<std::mutex> &l)
{
    JobRecord *job = queue_.find(id);
    job->state = JobState::Running;
    queue_.persist();
    JobSpec spec = job->spec;
    l.unlock();
    cv_.notify_all();

    // Per-job-thread sinks: the runner replays its parallel workers'
    // buffered messages on this thread, so one thread-local capture
    // sees the job's whole log stream in deterministic order — and a
    // thread-local quiet honors this job's --quiet without touching
    // concurrently streaming jobs.
    bool prevQuiet = setThreadQuiet(spec.quiet);
    LogSink prevSink = setThreadLogSink(
        [this, id](LogLevel level, const std::string &msg) {
            Json e = makeEvent("log", id);
            e.set("level", logLevelName(level));
            e.set("message", msg);
            pushEvent(id, std::move(e));
        });

    JobHooks hooks;
    hooks.output = [this, id](const std::string &chunk) {
        {
            std::lock_guard<std::mutex> g(mu_);
            queue_.find(id)->output += chunk;
            Json e = makeEvent("output", id);
            e.set("chunk", chunk);
            events_[id].push_back(std::move(e));
        }
        cv_.notify_all();
    };
    hooks.progress = [this, id](const harness::RunResult &run,
                                int total) {
        Json e = makeEvent("progress", id);
        e.set("workload", run.workload);
        e.set("tier", vm::tierName(run.tier));
        e.set("committed", run.invocationsAttempted);
        e.set("total", total);
        pushEvent(id, std::move(e));
    };

    int rc = kExitFailure;
    std::string err;
    try {
        rc = executeJob(spec, hooks);
    } catch (const std::exception &e) {
        err = e.what();
    }
    setThreadLogSink(std::move(prevSink));
    setThreadQuiet(prevQuiet);

    l.lock();
    job = queue_.find(id);
    job->exitCode = rc;
    job->error = err;
    job->state = rc == kExitSuccess ? JobState::Done
        : rc == kExitInterrupted   ? JobState::Interrupted
                                   : JobState::Failed;
    job->archiveId = archiveIdFromOutput(job->output);
    // Persist the report stream for terminal jobs so results survive
    // the daemon (interrupted jobs re-run and re-produce it).
    if (job->state != JobState::Interrupted) {
        try {
            atomicWriteFile(queue_.outputPath(id), job->output);
        } catch (const FatalError &e) {
            warn("cannot persist job %d output: %s", id, e.what());
        }
    }
    queue_.persist();
    Json done = makeEvent("done", id);
    done.set("state", jobStateName(job->state));
    done.set("exit_code", rc);
    if (job->archiveId >= 0)
        done.set("archive_id", job->archiveId);
    if (!err.empty())
        done.set("message", err);
    events_[id].push_back(std::move(done));
    cv_.notify_all();
}

void
Server::workerLoop()
{
    std::unique_lock<std::mutex> l(mu_);
    for (;;) {
        if (interruptRequested())
            return;
        JobRecord *job = queue_.nextRunnable();
        if (job) {
            runJob(job->id, l);
            continue;
        }
        if (draining_)
            return;
        cv_.wait_for(l, std::chrono::milliseconds(200));
    }
}

void
Server::handleHello(LineChannel &ch)
{
    Json resp = makeResponse("hello");
    resp.set("server", kRigorbenchVersion);
    resp.set("job_schema", kJobSpecSchema);
    resp.set("job_version", kJobSpecVersion);
    ch.writeLine(resp.dump());
}

void
Server::handleSubmit(LineChannel &ch, const Json &req)
{
    JobSpec spec;
    try {
        spec = jobSpecFromJson(req.at("job"));
    } catch (const std::exception &e) {
        ch.writeLine(
            makeError("submit", "bad-request", e.what()).dump());
        return;
    }
    // Multi-tenancy guard: io:* faults install a process-global
    // filesystem seam — inside the daemon they would perturb every
    // tenant's durable writes, so they are rejected at admission.
    // Measurement faults (throw/checksum/stall/ramp) are per-run
    // deterministic and fine.
    for (const auto &s : spec.injectSpecs) {
        if (startsWith(s, "io:")) {
            ch.writeLine(makeError("submit", "io-fault-rejected",
                                   "io:* fault injection is "
                                   "process-global and cannot run "
                                   "in a shared daemon; use the "
                                   "one-shot CLI")
                             .dump());
            return;
        }
    }
    int priority = 10;
    if (const Json *p = req.get("priority"))
        priority = static_cast<int>(p->asInt());
    std::string client;
    if (const Json *c = req.get("client"))
        client = c->asString();
    bool wait = false;
    if (const Json *w = req.get("wait"))
        wait = w->asBool();

    int id;
    {
        std::lock_guard<std::mutex> g(mu_);
        if (draining_ || stopping_) {
            ch.writeLine(makeError("submit", "shutting-down",
                                   "the daemon is draining and "
                                   "accepts no new jobs")
                             .dump());
            return;
        }
        if (queue_.queuedCount() >=
            static_cast<size_t>(cfg_.maxQueue)) {
            Json e = makeError(
                "submit", "queue-full",
                strprintf("queue depth limit %d reached",
                          cfg_.maxQueue));
            e.set("queued", static_cast<int64_t>(
                                queue_.queuedCount()));
            ch.writeLine(e.dump());
            return;
        }
        JobRecord &rec = queue_.submit(std::move(spec), priority,
                                       std::move(client));
        id = rec.id;
        events_[id];  // the stream exists from the moment of accept
    }
    cv_.notify_all();
    Json resp = makeResponse("submit");
    resp.set("job_id", id);
    resp.set("state", "queued");
    if (!ch.writeLine(resp.dump()))
        return;
    if (wait)
        streamJob(ch, id);
}

/** Forward a job's events until it reaches a terminal state. */
void
Server::streamJob(LineChannel &ch, int id)
{
    size_t next = 0;
    for (;;) {
        std::vector<Json> batch;
        bool terminal = false;
        Json result;
        {
            std::unique_lock<std::mutex> l(mu_);
            auto &ev = events_[id];
            JobRecord *j = nullptr;
            bool settled = false;
            // Check before sleeping: events pushed (or the job settled)
            // while the last batch was being written must not wait for
            // the next notification.
            cv_.wait(l, [&] {
                j = queue_.find(id);
                settled = j && j->state != JobState::Queued &&
                    j->state != JobState::Running;
                return next < ev.size() || settled || stopping_;
            });
            while (next < ev.size())
                batch.push_back(ev[next++]);
            if (settled && next >= ev.size()) {
                terminal = true;
                result = makeResponse("result");
                result.set("job_id", id);
                result.set("state", jobStateName(j->state));
                result.set("exit_code", j->exitCode);
                if (j->archiveId >= 0)
                    result.set("archive_id", j->archiveId);
                if (!j->error.empty())
                    result.set("message", j->error);
            } else if (stopping_ && next >= ev.size()) {
                // The daemon is exiting with this job unfinished
                // (signal drain with the job still queued, say). Its
                // state is persisted; tell the waiter instead of
                // hanging it.
                terminal = true;
                result = makeError(
                    "result", "daemon-stopping",
                    strprintf("daemon is stopping; job %d is %s and "
                              "will continue under 'serve --resume'",
                              id,
                              j ? jobStateName(j->state)
                                : "unknown"));
                result.set("job_id", id);
                if (j)
                    result.set("state", jobStateName(j->state));
            }
        }
        for (const auto &b : batch)
            if (!ch.writeLine(b.dump()))
                return;
        if (terminal) {
            ch.writeLine(result.dump());
            return;
        }
    }
}

void
Server::handleStatus(LineChannel &ch, const Json &req)
{
    std::lock_guard<std::mutex> g(mu_);
    if (const Json *jid = req.get("job_id")) {
        JobRecord *j = queue_.find(static_cast<int>(jid->asInt()));
        if (!j) {
            ch.writeLine(
                makeError("status", "unknown-job",
                          strprintf("no job #%lld",
                                    static_cast<long long>(
                                        jid->asInt())))
                    .dump());
            return;
        }
        Json resp = makeResponse("status");
        Json d = Json::object();
        d.set("id", j->id);
        d.set("state", jobStateName(j->state));
        d.set("priority", j->priority);
        d.set("client", j->client);
        d.set("exit_code", j->exitCode);
        d.set("archive_id", j->archiveId);
        if (!j->error.empty())
            d.set("error", j->error);
        d.set("output", j->output);
        d.set("spec", jobSpecToJson(j->spec));
        resp.set("job", std::move(d));
        ch.writeLine(resp.dump());
        return;
    }
    Json resp = makeResponse("status");
    resp.set("jobs", queue_.statusJson());
    resp.set("queued", static_cast<int64_t>(queue_.queuedCount()));
    resp.set("running",
             static_cast<int64_t>(queue_.runningCount()));
    resp.set("max_queue", cfg_.maxQueue);
    resp.set("max_active", cfg_.maxActive);
    resp.set("draining", draining_);
    ch.writeLine(resp.dump());
}

void
Server::handleCancel(LineChannel &ch, const Json &req)
{
    int id = static_cast<int>(req.at("job_id").asInt());
    {
        std::lock_guard<std::mutex> g(mu_);
        JobRecord *j = queue_.find(id);
        if (!j) {
            ch.writeLine(makeError("cancel", "unknown-job",
                                   strprintf("no job #%d", id))
                             .dump());
            return;
        }
        if (j->state == JobState::Running) {
            // The interrupt flag is process-global; firing it for
            // one tenant would stop every tenant's job. An honest
            // refusal beats a lying success.
            ch.writeLine(
                makeError("cancel", "already-running",
                          strprintf("job #%d is running; running "
                                    "jobs cannot be cancelled",
                                    id))
                    .dump());
            return;
        }
        if (j->state != JobState::Queued) {
            ch.writeLine(makeError("cancel", "already-finished",
                                   strprintf("job #%d is %s", id,
                                             jobStateName(j->state)))
                             .dump());
            return;
        }
        j->state = JobState::Cancelled;
        queue_.persist();
        Json done = makeEvent("done", id);
        done.set("state", jobStateName(j->state));
        done.set("exit_code", -1);
        events_[id].push_back(std::move(done));
    }
    cv_.notify_all();
    Json resp = makeResponse("cancel");
    resp.set("job_id", id);
    ch.writeLine(resp.dump());
}

void
Server::handleQuery(LineChannel &ch, const Json &req)
{
    QuerySpec q;
    try {
        q = querySpecFromJson(req.at("query"));
    } catch (const std::exception &e) {
        ch.writeLine(
            makeError("query", "bad-request", e.what()).dump());
        return;
    }
    // Deliberately outside mu_: queries are read-only archive scans
    // and run concurrently with appending jobs — the archive's flock
    // discipline (readers degrade to read-only scans while a writer
    // holds the lock) is the synchronization.
    QueryResult res;
    try {
        res = runQuery(q);
    } catch (const std::exception &e) {
        ch.writeLine(
            makeError("query", "query-failed", e.what()).dump());
        return;
    }
    Json resp = makeResponse("query");
    resp.set("exit_code", res.exitCode);
    resp.set("text", res.text);
    resp.set("doc", res.doc);
    ch.writeLine(resp.dump());
}

void
Server::handleShutdown(LineChannel &ch, const Json &req)
{
    std::string mode = "drain";
    if (const Json *m = req.get("mode"))
        mode = m->asString();
    if (mode != "drain" && mode != "now") {
        ch.writeLine(makeError("shutdown", "bad-request",
                               "mode must be drain or now")
                         .dump());
        return;
    }
    {
        std::lock_guard<std::mutex> g(mu_);
        draining_ = true;
        shutdownOp_ = true;
    }
    if (mode == "now")
        requestInterrupt();  // running jobs stop at the next commit
    cv_.notify_all();
    Json resp = makeResponse("shutdown");
    resp.set("mode", mode);
    ch.writeLine(resp.dump());
}

void
Server::dispatchRequest(LineChannel &ch, const Json &req,
                        const std::string &op)
{
    if (op == "hello")
        handleHello(ch);
    else if (op == "submit")
        handleSubmit(ch, req);
    else if (op == "status")
        handleStatus(ch, req);
    else if (op == "cancel")
        handleCancel(ch, req);
    else if (op == "query")
        handleQuery(ch, req);
    else if (op == "shutdown")
        handleShutdown(ch, req);
    else
        ch.writeLine(makeError(op, "unknown-op",
                               "unknown op '" + op + "'")
                         .dump());
}

void
Server::handleConn(int fd)
{
    {
        LineChannel ch(fd, kMaxRequestLineBytes);
        std::string line;
        while (ch.readLine(line)) {
            Json req;
            std::string op = "?";
            try {
                req = Json::parse(line);
                checkProtocolHeader(req);
                op = req.at("op").asString();
            } catch (const std::exception &e) {
                if (!ch.writeLine(makeError(op, "protocol-error",
                                            e.what())
                                      .dump()))
                    break;
                continue;
            }
            try {
                dispatchRequest(ch, req, op);
            } catch (const std::exception &e) {
                if (!ch.writeLine(
                        makeError(op, "failed", e.what()).dump()))
                    break;
            }
        }
        if (ch.lineTooLong())
            ch.writeLine(makeError("?", "line-too-long",
                                   strprintf("request line exceeds "
                                             "%zu bytes",
                                             kMaxRequestLineBytes))
                             .dump());
        // Deregister before the channel closes the fd: once the fd
        // is closed the number can be reused, and the exit path's
        // wake-up shutdown() must never hit a stranger's socket.
        std::lock_guard<std::mutex> g(connMu_);
        connFds_.erase(fd);
        connDone_.push_back(std::this_thread::get_id());
    }
}

int
Server::run()
{
    std::error_code ec;
    fs::create_directories(cfg_.stateDir, ec);
    if (ec)
        fatal("cannot create state directory %s: %s",
              cfg_.stateDir.c_str(), ec.message().c_str());
    if (cfg_.resume) {
        queue_.restore();
    } else if (queue_.stateExists()) {
        fatal("%s holds a previous daemon's queue; start with "
              "'serve --resume' to continue its jobs (or remove "
              "%s/queue.json to discard them)",
              cfg_.stateDir.c_str(), cfg_.stateDir.c_str());
    }
    int listenFd = listenUnixSocket(cfg_.socketPath);
    inform("serving on %s (state in %s, max queue %d, max active "
           "%d)%s",
           cfg_.socketPath.c_str(), cfg_.stateDir.c_str(),
           cfg_.maxQueue, cfg_.maxActive,
           cfg_.resume ? " [resumed]" : "");
    {
        std::lock_guard<std::mutex> g(mu_);
        size_t restored = queue_.queuedCount();
        if (restored > 0)
            inform("restored %zu pending job(s) from %s", restored,
                   cfg_.stateDir.c_str());
    }

    std::vector<std::thread> workers;
    for (int i = 0; i < cfg_.maxActive; ++i)
        workers.emplace_back([this] { workerLoop(); });

    for (;;) {
        // A finished connection's thread keeps its stack mapped until
        // it is joined, so join each one soon after it finishes.
        std::vector<std::thread::id> done;
        {
            std::lock_guard<std::mutex> g(connMu_);
            done.swap(connDone_);
        }
        for (std::thread::id id : done) {
            auto it = std::find_if(
                connThreads_.begin(), connThreads_.end(),
                [id](const std::thread &t) { return t.get_id() == id; });
            it->join();
            connThreads_.erase(it);
        }
        pollfd pfd{};
        pfd.fd = listenFd;
        pfd.events = POLLIN;
        int rv = ::poll(&pfd, 1, 200);
        {
            std::lock_guard<std::mutex> g(mu_);
            if (interruptRequested())
                break;
            if (draining_ && queue_.queuedCount() == 0 &&
                queue_.runningCount() == 0)
                break;
        }
        if (rv > 0 && (pfd.revents & POLLIN)) {
            int c = ::accept(listenFd, nullptr, nullptr);
            if (c < 0)
                continue;
            std::lock_guard<std::mutex> g(connMu_);
            connFds_.insert(c);
            connThreads_.emplace_back(
                [this, c] { handleConn(c); });
        }
    }

    // Stop taking work, let workers settle at commit boundaries (a
    // signal already set the interrupt flag; a drain op finishes the
    // queue first), then make everything durable.
    {
        std::lock_guard<std::mutex> g(mu_);
        draining_ = true;
    }
    cv_.notify_all();
    for (auto &w : workers)
        w.join();
    bool interrupted = interruptRequested();
    {
        std::lock_guard<std::mutex> g(mu_);
        stopping_ = true;
        queue_.persist();
    }
    cv_.notify_all();
    ::close(listenFd);
    ::unlink(cfg_.socketPath.c_str());
    {
        // Kick blocked connection reads awake so their threads can
        // exit; streamJob waiters see stopping_ instead.
        std::lock_guard<std::mutex> g(connMu_);
        for (int fd : connFds_)
            ::shutdown(fd, SHUT_RDWR);
    }
    for (auto &t : connThreads_)
        t.join();
    if (interrupted && !shutdownOp_) {
        inform("interrupted; queue persisted — continue with: "
               "rigorbench serve --socket %s --state-dir %s "
               "--resume",
               cfg_.socketPath.c_str(), cfg_.stateDir.c_str());
        return kExitInterrupted;
    }
    inform("daemon exiting (%zu job(s) on record)",
           queue_.jobs().size());
    return kExitSuccess;
}

} // namespace

int
runServer(const ServerConfig &cfg)
{
    if (cfg.socketPath.empty())
        fatal("serve requires --socket PATH");
    if (cfg.maxQueue < 1)
        fatal("--max-queue must be >= 1");
    if (cfg.maxActive < 1)
        fatal("--max-active must be >= 1");
    Server server(cfg);
    return server.run();
}

} // namespace serve
} // namespace rigor

/**
 * @file
 * The daemon-mixed workload: a `serve` daemon (this executable in its
 * --daemon child mode, which calls serve::runServer) with a state dir
 * and an archive, driven by one client process over two persistent
 * connections. Each connection runs a closed loop: it sends a request
 * and waits for the reply before sending the next. A round is one
 * batch of small archived `run` jobs interleaved with `compare`
 * queries over the socket.
 *
 * Every job's report stream and --json file must equal what the same
 * JobSpec produces in-process through serve::executeJob.
 */

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>

#include "archive/archive.hh"
#include "bench.hh"
#include "serve/jobrun.hh"
#include "serve/jobspec.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "support/durable_io.hh"
#include "support/interrupt.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/unix_socket.hh"

namespace fs = std::filesystem;

namespace selfbench {

int
runDaemonChild(const std::string &socket, const std::string &stateDir,
               const std::string &statsPath, bool timed)
{
    rigor::setQuiet(true);
    rigor::installInterruptHandlers();
    std::unique_ptr<TimingFsOps> timer;
    if (timed) {
        recorder().setEnabled(true);
        timer = std::make_unique<TimingFsOps>();
    }
    rigor::serve::ServerConfig cfg;
    cfg.socketPath = socket;
    cfg.stateDir = stateDir;
    int rc = rigor::serve::runServer(cfg);
    timer.reset();
    if (timed) {
        rigor::Json stats = rigor::Json::object();
        rigor::Json fsyncs = rigor::Json::array();
        for (double ms : recorder().samples("support.fsync_ms"))
            fsyncs.push(ms);
        stats.set("fsync_ms", std::move(fsyncs));
        stats.set("durable_writes",
                  recorder().counter("support.durable_writes"));
        stats.set("durable_bytes",
                  recorder().counter("support.durable_bytes"));
        rigor::atomicWriteFile(statsPath, stats.dump() + "\n");
    }
    return rc;
}

namespace {

/** Report text without the lines that name paths or archive ids. */
std::string
stripVolatile(const std::string &text)
{
    std::istringstream in(text);
    std::string line, outText;
    while (std::getline(in, line))
        if (line.rfind("wrote ", 0) != 0 &&
            line.rfind("archived as ", 0) != 0)
            outText += line + "\n";
    return outText;
}

std::string
slurp(const std::string &path)
{
    std::string s;
    rigor::readFile(path, s);
    return s;
}

/** VmHWM of a live process in MiB (0 when unreadable). */
double
processPeakRssMb(pid_t pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

struct Item
{
    bool job = true;
    int type = 0;
};

class DaemonWorkload : public Workload
{
  public:
    explicit DaemonWorkload(const Options &opts)
        : opts_(opts), base_(opts.workDir + "/daemon"),
          sock_(base_ + "/d.sock"), archive_(base_ + "/archive"),
          stats_(base_ + "/daemon-stats.json")
    {}

    ~DaemonWorkload() override
    {
        try {
            stopDaemon();
        } catch (const std::exception &e) {
            std::fprintf(stderr, "selfbench: stopping the daemon: %s\n",
                         e.what());
        }
    }

    void
    setup() override
    {
        ScopedSpan span("setup.daemon");
        fs::create_directories(base_);
        startDaemon();
    }

    /** A daemon start is short; more repeats steady its median. */
    int setupRepeats() const override { return 9; }

    void
    prepare() override
    {
        static const char *names[] = {"sieve", "nbody", "richards",
                                      "fasta"};
        static const rigor::vm::Tier tiers[] = {
            rigor::vm::Tier::Interp, rigor::vm::Tier::Adaptive,
            rigor::vm::Tier::Threaded, rigor::vm::Tier::Interp};
        types_.clear();
        refOut_.clear();
        refJson_.clear();
        for (int i = 0; i < 4; ++i) {
            const auto &w = rigor::workloads::findWorkload(names[i]);
            rigor::serve::JobSpec spec;
            spec.command = "run";
            spec.workload = w.name;
            spec.tier = tiers[i];
            spec.invocations = 3;
            spec.iterations = opts_.smoke ? 2 : 4;
            spec.size = w.testSize;
            spec.seed = mixSeed(opts_.seed, 30 + static_cast<uint64_t>(i));
            spec.quiet = true;
            spec.label = "selfbench";
            // The in-process reference: same spec, no archive.
            rigor::serve::JobSpec ref = spec;
            ref.jsonPath = base_ + "/ref-" + std::to_string(i) + ".json";
            std::string text;
            rigor::serve::JobHooks hooks;
            hooks.output = [&text](const std::string &c) { text += c; };
            if (rigor::serve::executeJob(ref, hooks) != 0)
                throw std::runtime_error("reference job failed");
            refOut_.push_back(stripVolatile(text));
            refJson_.push_back(slurp(ref.jsonPath));
            spec.archiveDir = archive_;
            types_.push_back(spec);
        }
        latest_.assign(types_.size(), 0);
        // Seed the archive with one entry per job type (so the first
        // round's queries have something to compare).
        for (size_t t = 0; t < types_.size(); ++t)
            runJob(0, static_cast<int>(t), false);
        prev_ = latest_;
        prepared_ = true;
        rigor::Rng rng(mixSeed(opts_.seed, 31));
        plans_.assign(2, {});
        for (int c = 0; c < 2; ++c) {
            for (int t : {2 * c, 2 * c + 1}) {
                plans_[c].push_back({true, t});
                plans_[c].push_back({false, t});
            }
            rng.shuffle(plans_[c]);
        }
    }

    void
    round() override
    {
        std::vector<std::thread> threads;
        for (int c = 0; c < 2; ++c)
            threads.emplace_back([this, c] {
                try {
                    for (const Item &it : plans_[c]) {
                        if (it.job)
                            runJob(c, it.type, true);
                        else
                            runQuery(c, it.type);
                    }
                } catch (const std::exception &e) {
                    fail(std::string("client connection: ") + e.what());
                }
            });
        for (auto &t : threads)
            t.join();
    }

    void
    between() override
    {
        // Keep the archive to this round's entries and restart the
        // daemon every ten rounds, so every round sees the same
        // archive size and a short job history.
        prev_ = latest_;
        rigor::archive::RunArchive(archive_).prune(
            static_cast<int>(types_.size()));
        if (++roundsSinceStart_ >= 10) {
            stopDaemon();
            startDaemon();
        }
    }

    void
    finish(const std::vector<double> &roundWall) override
    {
        double total = 0.0;
        for (double w : roundWall)
            total += w;
        addLatencyMetrics(out, "job", jobMs_);
        addLatencyMetrics(out, "query", queryMs_);
        out.extra["jobs_per_s"] = {
            total > 0 ? static_cast<double>(jobsTimed_) / total : 0.0,
            "1/s"};
        // Every daemon job was checked against these references.
        std::string refs;
        for (size_t i = 0; i < refOut_.size(); ++i)
            refs += refOut_[i] + refJson_[i];
        out.digest = digestHex(refs);
        std::string err = checkRecordedDigest(
            opts_,
            rigor::strprintf("daemon-mixed-%llu-%d",
                             static_cast<unsigned long long>(opts_.seed),
                             opts_.smoke ? 1 : 0),
            out.digest);
        if (!err.empty())
            out.errors.push_back(err);
    }

    /**
     * Median over daemon instances of each one's VmHWM (the daemon
     * restarts every ten rounds; thread arenas make single readings
     * jumpy).
     */
    double
    peakRssMb() override
    {
        std::vector<double> all = peakRss_;
        if (pid_ > 0)
            all.push_back(processPeakRssMb(pid_));
        return median(all);
    }

    void
    teardown() override
    {
        stopDaemon();
        fs::remove_all(base_);
    }

  private:
    void
    startDaemon()
    {
        state_ = base_ + "/state-" + std::to_string(++generation_);
        fs::remove(sock_);
        std::vector<std::string> args = {"selfbench", "--daemon", sock_,
                                         state_, stats_};
        if (opts_.trace)
            args.push_back("--daemon-timed");
        pid_ = fork();
        if (pid_ < 0)
            throw std::runtime_error("fork failed");
        if (pid_ == 0) {
            // The daemon must not outlive a benchmark that dies.
            prctl(PR_SET_PDEATHSIG, SIGTERM);
            int fd = ::open((base_ + "/daemon.log").c_str(),
                            O_WRONLY | O_CREAT | O_APPEND, 0644);
            if (fd >= 0) {
                dup2(fd, 1);
                dup2(fd, 2);
            }
            std::vector<char *> argv;
            for (auto &a : args)
                argv.push_back(a.data());
            argv.push_back(nullptr);
            execv(opts_.selfExe.c_str(), argv.data());
            _exit(127);
        }
        // Ready once it answers hello.
        double deadline = nowSeconds() + 20.0;
        for (;;) {
            int status;
            if (waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("daemon exited during start");
            }
            int fd = rigor::connectUnixSocket(sock_);
            if (fd >= 0) {
                auto ch = std::make_unique<rigor::LineChannel>(fd);
                rigor::Json resp;
                if (request(*ch, rigor::serve::makeRequest("hello"),
                            resp) &&
                    resp.at("ok").asBool()) {
                    conns_.clear();
                    conns_.push_back(std::move(ch));
                    int fd2 = rigor::connectUnixSocket(sock_);
                    if (fd2 < 0)
                        throw std::runtime_error("second connect failed");
                    conns_.push_back(
                        std::make_unique<rigor::LineChannel>(fd2));
                    break;
                }
            }
            if (nowSeconds() > deadline)
                throw std::runtime_error("daemon did not answer hello");
            usleep(500);
        }
        roundsSinceStart_ = 0;
    }

    void
    stopDaemon()
    {
        if (pid_ <= 0)
            return;
        if (prepared_)
            peakRss_.push_back(processPeakRssMb(pid_));
        conns_.clear();
        int fd = rigor::connectUnixSocket(sock_);
        if (fd >= 0) {
            rigor::LineChannel ch(fd);
            rigor::Json req = rigor::serve::makeRequest("shutdown");
            req.set("mode", "drain");
            rigor::Json resp;
            request(ch, req, resp);
        }
        int status = 0;
        double deadline = nowSeconds() + 20.0;
        while (waitpid(pid_, &status, WNOHANG) != pid_) {
            if (nowSeconds() > deadline) {
                kill(pid_, SIGKILL);
                waitpid(pid_, &status, 0);
                break;
            }
            usleep(1000);
        }
        pid_ = -1;
        if (opts_.trace)
            mergeDaemonStats();
        std::error_code ec;
        fs::remove_all(state_, ec);
    }

    /** Fold the daemon's FsOps timings into this process's recorder. */
    void
    mergeDaemonStats()
    {
        std::string text = slurp(stats_);
        if (text.empty())
            return;
        rigor::Json s = rigor::Json::parse(text);
        const rigor::Json &fsyncs = s.at("fsync_ms");
        for (size_t i = 0; i < fsyncs.size(); ++i)
            recorder().sample("support.fsync_ms", fsyncs.at(i).asDouble());
        recorder().count("support.durable_writes",
                         s.at("durable_writes").asDouble());
        recorder().count("support.durable_bytes",
                         s.at("durable_bytes").asDouble());
        fs::remove(stats_);
    }

    static bool
    request(rigor::LineChannel &ch, const rigor::Json &req,
            rigor::Json &resp)
    {
        std::string line;
        if (!ch.writeLine(req.dump()) || !ch.readLine(line))
            return false;
        resp = rigor::Json::parse(line);
        rigor::serve::checkProtocolHeader(resp);
        return true;
    }

    void
    fail(const std::string &msg)
    {
        std::lock_guard<std::mutex> g(mu_);
        ++out.failed;
        out.errors.push_back(msg);
    }

    /** Submit one job on connection `c` and stream it to completion. */
    void
    runJob(int c, int type, bool timed)
    {
        rigor::serve::JobSpec spec = types_[static_cast<size_t>(type)];
        spec.jsonPath = base_ + "/job-" + std::to_string(c) + ".json";
        rigor::Json req = rigor::serve::makeRequest("submit");
        req.set("job", rigor::serve::jobSpecToJson(spec));
        req.set("client", "selfbench-" + std::to_string(c));
        req.set("wait", true);
        rigor::LineChannel &ch = *conns_[static_cast<size_t>(c)];
        {
            std::lock_guard<std::mutex> g(mu_);
            ++out.attempted;
        }
        double t0 = nowSeconds();
        rigor::Json ack;
        if (!request(ch, req, ack)) {
            fail("lost the daemon connection");
            return;
        }
        double tAck = nowSeconds();
        if (!ack.at("ok").asBool()) {
            recorder().count("serve.rejects", 1.0);
            fail("job rejected: " + ack.dump());
            return;
        }
        std::string text, line;
        double tFirst = 0.0, tDone = 0.0;
        int64_t exitCode = -1, archiveId = -1;
        while (ch.readLine(line)) {
            rigor::Json msg = rigor::Json::parse(line);
            const rigor::Json *ev = msg.get("event");
            if (!ev) {
                if (msg.at("ok").asBool()) {
                    exitCode = msg.at("exit_code").asInt();
                    if (const rigor::Json *a = msg.get("archive_id"))
                        archiveId = a->asInt();
                }
                break;
            }
            if (tFirst == 0.0)
                tFirst = nowSeconds();
            if (ev->asString() == "output")
                text += msg.at("chunk").asString();
            else if (ev->asString() == "done")
                tDone = nowSeconds();
        }
        if (tDone == 0.0)
            tDone = nowSeconds();
        {
            std::lock_guard<std::mutex> g(mu_);
            if (timed) {
                double ms = (tDone - t0) * 1e3;
                jobMs_.push_back(ms);
                out.addOp("job-" + std::to_string(type), ms);
                ++jobsTimed_;
                recorder().sample("job_ms", ms);
                recorder().sample("serve.submit_ack_ms",
                                  (tAck - t0) * 1e3);
                if (tFirst > 0.0)
                    recorder().sample("serve.first_event_ms",
                                      (tFirst - t0) * 1e3);
            }
            if (archiveId > 0)
                latest_[static_cast<size_t>(type)] =
                    static_cast<int>(archiveId);
        }
        if (exitCode != 0 || archiveId <= 0)
            fail(rigor::strprintf("daemon job exit code %lld",
                                  static_cast<long long>(exitCode)));
        else if (stripVolatile(text) !=
                     refOut_[static_cast<size_t>(type)] ||
                 slurp(spec.jsonPath) !=
                     refJson_[static_cast<size_t>(type)])
            fail("daemon job output differs from serve::executeJob's");
    }

    /** One compare query on connection `c`. */
    void
    runQuery(int c, int type)
    {
        rigor::serve::QuerySpec q;
        q.kind = "compare";
        {
            std::lock_guard<std::mutex> g(mu_);
            q.baseRef = std::to_string(prev_[static_cast<size_t>(type)]);
            q.candRef =
                std::to_string(latest_[static_cast<size_t>(type)]);
        }
        q.archiveDir = archive_;
        q.seed = mixSeed(opts_.seed, 32);
        rigor::Json req = rigor::serve::makeRequest("query");
        req.set("query", rigor::serve::querySpecToJson(q));
        double t0 = nowSeconds();
        rigor::Json resp;
        bool ok = request(*conns_[static_cast<size_t>(c)], req, resp);
        double ms = (nowSeconds() - t0) * 1e3;
        {
            std::lock_guard<std::mutex> g(mu_);
            ++out.attempted;
            queryMs_.push_back(ms);
            recorder().sample("query_ms", ms);
        }
        if (!ok || !resp.at("ok").asBool() ||
            resp.at("exit_code").asInt() != 0)
            fail("compare query failed: " + (ok ? resp.dump()
                                                 : std::string("no reply")));
    }

    Options opts_;
    std::string base_, sock_, archive_, stats_, state_;
    pid_t pid_ = -1;
    int generation_ = 0;
    int roundsSinceStart_ = 0;
    /** VmHWM (MiB) of each stopped daemon that served rounds. */
    std::vector<double> peakRss_;
    bool prepared_ = false;
    std::vector<std::unique_ptr<rigor::LineChannel>> conns_;
    std::vector<rigor::serve::JobSpec> types_;
    std::vector<std::string> refOut_, refJson_;
    std::vector<int> prev_, latest_;
    std::vector<std::vector<Item>> plans_;
    std::vector<double> jobMs_, queryMs_;
    long jobsTimed_ = 0;
    std::mutex mu_;
};

} // namespace

std::unique_ptr<Workload>
makeDaemonWorkload(const Options &opts)
{
    return std::make_unique<DaemonWorkload>(opts);
}

} // namespace selfbench

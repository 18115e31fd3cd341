/**
 * @file
 * selfbench: RigorBench's self-benchmark. Measures the host cost of
 * producing a rigorous measurement, end to end (untraced runs) and per
 * layer (traced runs), and checks that every modelled output it
 * produces is correct. See selfbench/BENCHMARK.md.
 *
 *   selfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--smoke] [--state-dir DIR]
 *   selfbench --fold LABEL [--state-dir DIR]
 *   selfbench --compare BASE CAND [--gate PCT] [--state-dir DIR]
 *
 * The last line of a measuring run's stdout is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 */

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "archive/archive.hh"
#include "bench.hh"
#include "harness/envcheck.hh"
#include "serve/jobrun.hh"
#include "support/durable_io.hh"
#include "support/fingerprint.hh"
#include "support/logging.hh"
#include "support/schema.hh"

namespace fs = std::filesystem;

namespace selfbench {

// --- shared helpers -------------------------------------------------

uint64_t
mixSeed(uint64_t seed, uint64_t stream)
{
    uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (stream + 1);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

uint64_t
suiteSeed(uint64_t seed)
{
    return mixSeed(seed, 1);
}

std::string
digestHex(const std::string &text)
{
    return rigor::strprintf("%016llx",
                            static_cast<unsigned long long>(
                                rigor::fnv1a64(text)));
}

std::string
checkRecordedDigest(const Options &opts, const std::string &key,
                    const std::string &digest)
{
    std::string dir = opts.stateDir + "/digests";
    fs::create_directories(dir);
    std::string path = dir + "/" + key + ".txt";
    std::string recorded;
    if (rigor::readFile(path, recorded)) {
        while (!recorded.empty() && recorded.back() == '\n')
            recorded.pop_back();
        if (recorded != digest)
            return rigor::strprintf(
                "%s: digest %s differs from %s recorded by an earlier "
                "run with the same seed",
                key.c_str(), digest.c_str(), recorded.c_str());
        return "";
    }
    // The benchmark's own bookkeeping is no durable write to measure.
    bool recording = recorder().enabled();
    recorder().setEnabled(false);
    rigor::atomicWriteFile(path, digest + "\n");
    recorder().setEnabled(recording);
    return "";
}

void
addLatencyMetrics(Outcome &out, const std::string &prefix,
                  const std::vector<double> &ms)
{
    out.extra[prefix + "_p50_ms"] = {median(ms), "ms"};
    double tail = 0.0, pct = 0.0;
    if (tailValue(ms, tail, pct))
        out.extra[prefix + "_tail_ms"] = {
            tail, "ms",
            rigor::strprintf("(p%.1f of %zu samples)", pct, ms.size())};
    else
        out.extra[prefix + "_tail_ms"] = {
            ms.empty() ? 0.0 : quantile(ms, 1.0), "ms",
            rigor::strprintf("(max of %zu samples; fewer than 21)",
                             ms.size())};
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "suite-serial", "suite-observed-parallel", "archive-query",
        "daemon-mixed"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(const Options &opts)
{
    if (opts.workload == "suite-serial")
        return makeSuiteWorkload(opts, false);
    if (opts.workload == "suite-observed-parallel")
        return makeSuiteWorkload(opts, true);
    if (opts.workload == "archive-query")
        return makeArchiveQueryWorkload(opts);
    if (opts.workload == "daemon-mixed")
        return makeDaemonWorkload(opts);
    return nullptr;
}

namespace {

using MetricMap = std::map<std::string, Metric>;

// --- environment stamp ------------------------------------------------

bool
sanitizedBuild()
{
#if defined(__SANITIZE_ADDRESS__)
    return true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
    return true;
#else
    return false;
#endif
#else
    return false;
#endif
}

rigor::Json
environmentStamp(const Options &opts)
{
    rigor::Json env = rigor::Json::object();
    env.set("build_type", SELFBENCH_BUILD_TYPE);
    env.set("compiler", SELFBENCH_COMPILER);
    env.set("cxx_flags", SELFBENCH_CXX_FLAGS);
    env.set("sanitizer", sanitizedBuild());
    env.set("nproc", static_cast<int64_t>(
                         std::thread::hardware_concurrency()));
    env.set("seed", static_cast<int64_t>(opts.seed));
    env.set("hygiene", rigor::harness::collectEnvironment().render());
    return env;
}

/** Loud stderr warning for builds whose numbers mean little. */
void
warnOnUnrepresentativeBuild()
{
    std::string bt = SELFBENCH_BUILD_TYPE;
    if (bt == "Debug" || bt.empty() || sanitizedBuild())
        std::fprintf(stderr,
                     "selfbench: WARNING: %s%s build; host timings are "
                     "not representative of a release build\n",
                     bt.empty() ? "unspecified" : bt.c_str(),
                     sanitizedBuild() ? " sanitizer" : "");
}

// --- per-layer metrics ----------------------------------------------

/** Prefix of everything the layer sweep of a traced run records. */
const std::string kSweep = "sweep.";

/**
 * Where a layer metric reads `name`: the measured workload's own
 * records when it reached the layer (prefix ""), else the first sweep
 * part that did, in a fixed order. Returns the prefix.
 */
std::string
from(const std::string &name)
{
    if (recorder().has(name))
        return "";
    std::vector<std::string> parts = workloadNames();
    parts.push_back("probe");
    for (const auto &part : parts) {
        std::string p = kSweep + part + ".";
        if (recorder().has(p + name))
            return p;
    }
    return "";
}

std::vector<double>
durations(const std::string &span)
{
    return recorder().durations(from(span) + span);
}

std::vector<double>
samples(const std::string &name)
{
    return recorder().samples(from(name) + name);
}

double
counter(const std::string &name)
{
    return recorder().counter(from(name) + name);
}

double
totalSeconds(const std::string &span)
{
    return recorder().totalSeconds(from(span) + span);
}

/**
 * Nanoseconds per unit: summed span time over a counter, both from
 * the source that recorded the span.
 */
double
nsPer(const std::string &span, const std::string &count)
{
    std::string p = from(span);
    double n = recorder().counter(p + count);
    return n > 0 ? recorder().totalSeconds(p + span) * 1e9 / n : 0.0;
}

double
p50ms(const std::string &span)
{
    return median(durations(span)) * 1e3;
}

double
tailOrMax(const std::vector<double> &xs)
{
    double v = 0.0, pct = 0.0;
    if (tailValue(xs, v, pct))
        return v;
    return xs.empty() ? 0.0 : *std::max_element(xs.begin(), xs.end());
}

MetricMap
layerMetrics(double traceOverhead)
{
    MetricMap m;
    // vm
    m["vm.compile_ms"] = {p50ms("vm.compile_suite"), "ms"};
    double bytecodes = 0.0, bareSeconds = 0.0;
    for (const char *tier : {"interp", "adaptive", "threaded"}) {
        std::string p = std::string("vm.") + tier;
        m[p + ".ns_per_bytecode"] = {nsPer(p + ".call", p + ".bytecodes"),
                                     "ns"};
        bytecodes += counter(p + ".bytecodes");
        bareSeconds += totalSeconds(p + ".call");
    }
    m["vm.bytecodes"] = {bytecodes, "count"};
    // uarch (replayed event streams)
    m["uarch.model.ns_per_bytecode"] = {
        nsPer("uarch.model.replay", "uarch.replay.bytecodes"), "ns"};
    m["uarch.cache.ns_per_access"] = {
        nsPer("uarch.cache.replay", "uarch.cache.accesses"), "ns"};
    m["uarch.cache.accesses"] = {counter("uarch.cache.accesses"), "count"};
    m["uarch.branch.ns_per_event"] = {
        nsPer("uarch.branch.replay", "uarch.branch.events"), "ns"};
    m["uarch.branch.events"] = {counter("uarch.branch.events"), "count"};
    m["uarch.mux.ns_per_bytecode"] = {
        nsPer("uarch.mux.replay", "uarch.replay.bytecodes"), "ns"};
    // The replay loop's own cost (into a do-nothing observer) is not
    // model work.
    double replayLoop =
        nsPer("uarch.null.replay", "uarch.replay.bytecodes");
    m["uarch.replay_loop.ns_per_bytecode"] = {replayLoop, "ns"};
    // What the VM alone and the model's net work leave unexplained of
    // suite-serial's runExperiment time per simulated bytecode (the
    // workload's own when it is suite-serial, else its sweep run): the
    // observer seam, the runner's per-invocation work, and their
    // interference.
    double bare = bytecodes > 0 ? bareSeconds * 1e9 / bytecodes : 0.0;
    double model = m["uarch.model.ns_per_bytecode"].value - replayLoop;
    std::string src = from("harness.serial_bytecodes");
    double serialBytecodes =
        recorder().counter(src + "harness.serial_bytecodes");
    double live = serialBytecodes > 0
        ? recorder().counter(src + "harness.serial_seconds") * 1e9 /
            serialBytecodes
        : 0.0;
    m["uarch.unattributed_share"] = {
        live > 0 ? 1.0 - (bare + model) / live : 0.0, "ratio"};
    // harness
    m["harness.run_experiment_s"] = {
        median(durations("harness.run_experiment")), "s"};
    m["harness.iter_wall_ms.p50"] = {
        median(samples("harness.iter_wall_ms")), "ms"};
    m["harness.analysis_ms"] = {p50ms("harness.analysis"), "ms"};
    double serial = totalSeconds("harness.jobs1");
    double parallel = totalSeconds("harness.jobs2");
    m["harness.jobs_speedup"] = {parallel > 0 ? serial / parallel : 0.0,
                                 "ratio"};
    // stats
    double boot = totalSeconds("stats.bootstrap");
    m["stats.bootstrap_resamples_per_s"] = {
        boot > 0 ? counter("stats.resamples") / boot : 0.0, "1/s"};
    // archive
    m["archive.scan_ms"] = {p50ms("archive.scan"), "ms"};
    m["archive.load_ms.p50"] = {p50ms("archive.load"), "ms"};
    m["archive.entry_bytes"] = {median(samples("archive.entry_bytes")),
                                "bytes"};
    m["archive.fsck_ms"] = {p50ms("archive.fsck"), "ms"};
    std::vector<double> appends;
    for (double s : durations("archive.append"))
        appends.push_back(s * 1e3);
    m["archive.append_ms.p50"] = {median(appends), "ms"};
    m["archive.append_ms.tail"] = {tailOrMax(appends), "ms"};
    // compare / explain
    m["compare.entries_ms.p50"] = {p50ms("compare.entries"), "ms"};
    m["explain.entries_ms.p50"] = {p50ms("explain.entries"), "ms"};
    // support
    auto fsyncs = samples("support.fsync_ms");
    m["support.fsync_ms.p50"] = {median(fsyncs), "ms"};
    m["support.fsync_ms.tail"] = {tailOrMax(fsyncs), "ms"};
    m["support.durable_writes"] = {counter("support.durable_writes"),
                                   "count"};
    m["support.durable_bytes"] = {counter("support.durable_bytes"),
                                  "bytes"};
    double nsPerByte = nsPer("support.json_parse", "support.json_parse_bytes");
    m["support.json_parse_mb_per_s"] = {nsPerByte > 0 ? 1e3 / nsPerByte : 0.0,
                                        "MB/s"};
    // serve (client-side)
    m["serve.submit_ack_ms.p50"] = {median(samples("serve.submit_ack_ms")),
                                    "ms"};
    m["serve.first_event_ms.p50"] = {
        median(samples("serve.first_event_ms")), "ms"};
    m["serve.rejects"] = {counter("serve.rejects"), "count"};
    // tails that are too noisy for an end-to-end bound
    m["query_tail_ms"] = {tailOrMax(samples("query_ms")), "ms"};
    m["job_tail_ms"] = {tailOrMax(samples("job_ms")), "ms"};
    m["trace_overhead_share"] = {traceOverhead, "ratio"};
    return m;
}

/**
 * Self time per layer (the span name's first part), for the measured
 * workload and for the layer sweep ("sweep.<part>." stripped).
 */
std::map<std::string, std::pair<double, double>>
selfTimeByLayer()
{
    std::map<std::string, std::pair<double, double>> out;
    for (const auto &[name, secs] : recorder().selfSecondsByName()) {
        bool sweep = name.rfind(kSweep, 0) == 0;
        std::string rest = sweep
            ? name.substr(name.find('.', kSweep.size()) + 1)
            : name;
        auto &slot = out[rest.substr(0, rest.find('.'))];
        (sweep ? slot.second : slot.first) += secs;
    }
    return out;
}

// --- output -----------------------------------------------------------

rigor::Json
metricsJson(const MetricMap &m)
{
    rigor::Json j = rigor::Json::object();
    for (const auto &[name, metric] : m) {
        rigor::Json v = rigor::Json::object();
        v.set("value", metric.value);
        v.set("unit", metric.unit);
        j.set(name, std::move(v));
    }
    return j;
}

void
printMetrics(const char *title, const MetricMap &m)
{
    std::printf("%s\n", title);
    for (const auto &[name, metric] : m)
        std::printf("  %-34s %14.6g %-12s%s\n", name.c_str(),
                    metric.value, metric.unit.c_str(),
                    metric.note.c_str());
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: selfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--smoke] [--state-dir DIR]\n"
                 "       selfbench --fold LABEL [--state-dir DIR]\n"
                 "       selfbench --compare BASE CAND [--gate PCT] "
                 "[--state-dir DIR]\n"
                 "workloads:");
    for (const auto &n : workloadNames())
        std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

// --- one measuring run -------------------------------------------------

/** Run `w` in rounds for `seconds`; returns each round's wall time. */
std::vector<double>
measureRounds(Workload &w, const Options &opts, bool alternateTrace,
              std::vector<double> *tracedWall)
{
    std::vector<double> wall;
    int minRounds = opts.smoke ? 1 : 3;
    const int maxRounds = 10000;
    double start = nowSeconds();
    int n = 0;
    while (n < maxRounds &&
           (n < minRounds * (alternateTrace ? 2 : 1) ||
            nowSeconds() - start < opts.seconds)) {
        bool traced = alternateTrace && n % 2 == 1;
        if (alternateTrace)
            recorder().setEnabled(traced);
        double t0 = nowSeconds();
        w.round();
        double dt = nowSeconds() - t0;
        w.between();
        (traced ? *tracedWall : wall).push_back(dt);
        ++n;
        if (opts.smoke && !alternateTrace)
            break;
    }
    if (alternateTrace)
        recorder().setEnabled(true);
    return wall;
}

/**
 * op_ms: the geometric mean, over the workload's distinct operations,
 * of each operation's fastest latency over the rounds. Unlike the
 * median of the pooled latencies it does not jump between operations
 * of different lengths, and every operation weighs the same.
 */
double
opGeomeanMs(const Outcome &out)
{
    double logSum = 0.0;
    int n = 0;
    for (const auto &[key, ms] : out.opByKey) {
        double m = quantile(ms, 0.0);
        if (m > 0) {
            logSum += std::log(m);
            ++n;
        }
    }
    return n > 0 ? std::exp(logSum / n) : 0.0;
}

/** Round latencies plus op latencies, for the dogfood archive. */
rigor::Json
samplesJson(const std::vector<double> &setup,
            const std::vector<double> &wall, const Outcome &out,
            double peakRss)
{
    auto arr = [](const std::vector<double> &xs) {
        rigor::Json a = rigor::Json::array();
        for (double x : xs)
            a.push(x);
        return a;
    };
    rigor::Json s = rigor::Json::object();
    s.set("setup_s", arr(setup));
    s.set("wall_s", arr(wall));
    s.set("op_ms", arr(out.opMs));
    s.set("peak_rss_mb", arr({peakRss}));
    return s;
}

int
runMeasurement(Options opts)
{
    warnOnUnrepresentativeBuild();
    rigor::setQuiet(true);
    fs::create_directories(opts.workDir);
    std::unique_ptr<TimingFsOps> fsTimer;
    if (opts.trace) {
        recorder().setEnabled(true);
        fsTimer = std::make_unique<TimingFsOps>();
    }

    auto w = makeWorkload(opts);
    std::vector<double> setupTimes, wall, tracedWall;
    std::vector<std::string> errors;
    Outcome out;
    double peakRss = 0.0;
    try {
        int setups = opts.smoke || opts.trace ? 1 : w->setupRepeats();
        for (int i = 0; i < setups; ++i) {
            if (i > 0)
                w->teardown();
            double t0 = nowSeconds();
            w->setup();
            setupTimes.push_back(nowSeconds() - t0);
        }
        w->prepare();
        wall = measureRounds(*w, opts, opts.trace, &tracedWall);
        w->finish(wall);
        peakRss = w->peakRssMb();
        w->teardown();
        out = w->out;
        if (opts.trace) {
            // The layer sweep: one round of every other workload, plus
            // the vm/uarch/harness probe, so every layer metric is
            // measured in every traced run. Each part records under
            // its own "sweep.<part>." prefix.
            for (const auto &name : workloadNames()) {
                if (name == opts.workload)
                    continue;
                recorder().setPrefix(kSweep + name + ".");
                Options o = opts;
                o.workload = name;
                o.workDir = opts.workDir + "/sweep-" + name;
                auto sw = makeWorkload(o);
                sw->setup();
                sw->prepare();
                sw->round();
                sw->between();
                sw->finish({1.0});
                sw->teardown();
                for (auto &e : sw->out.errors)
                    errors.push_back(name + " (sweep): " + e);
            }
            recorder().setPrefix(kSweep + "probe.");
            for (auto &e : runLayerProbe(opts))
                errors.push_back("layer probe: " + e);
        }
    } catch (const std::exception &e) {
        errors.push_back(std::string("exception: ") + e.what());
        w->teardown();
        out = w->out;
    }
    recorder().setPrefix("");
    for (auto &e : out.errors)
        errors.push_back(e);
    fsTimer.reset();

    MetricMap e2e, perLayer;
    double failedShare = out.attempted > 0
        ? static_cast<double>(out.failed) / out.attempted
        : 1.0;
    // Time spent by other tenants of a shared host only ever adds to a
    // set-up or a round, so the fastest one is the steadiest estimate of
    // the program's own cost; the medians are reported beside them.
    e2e["setup_s"] = {quantile(setupTimes, 0.0), "s"};
    e2e["wall_s"] = {quantile(wall, 0.0), "s"};
    e2e["op_ms"] = {opGeomeanMs(out), "ms"};
    e2e["peak_rss_mb"] = {peakRss, "MiB"};
    MetricMap extra = out.extra;
    extra["failed_share"] = {failedShare, "ratio"};
    extra["wall_p50_s"] = {median(wall), "s"};
    extra["setup_p50_s"] = {median(setupTimes), "s"};
    if (opts.trace) {
        double overhead = median(wall) > 0
            ? median(tracedWall) / median(wall) - 1.0
            : 0.0;
        perLayer = layerMetrics(overhead);
    }

    bool correct = errors.empty() && out.failed == 0 && out.attempted > 0;
    std::printf("selfbench %s seed=%llu seconds=%g trace=%d%s\n",
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.seconds,
                opts.trace ? 1 : 0, opts.smoke ? " smoke" : "");
    std::printf("build: %s, %s, nproc %u\n", SELFBENCH_BUILD_TYPE,
                SELFBENCH_COMPILER, std::thread::hardware_concurrency());
    std::printf("rounds: %zu untraced%s, setups: %zu\n", wall.size(),
                opts.trace ? rigor::strprintf(", %zu traced",
                                              tracedWall.size())
                                 .c_str()
                           : "",
                setupTimes.size());
    std::printf("digest: %s\n", out.digest.c_str());
    for (const auto &e : errors)
        std::printf("CHECK FAILED: %s\n", e.c_str());
    if (!opts.trace) {
        printMetrics("end-to-end metrics:", e2e);
        printMetrics("workload metrics:", extra);
    } else {
        printMetrics("per-layer metrics:", perLayer);
        std::printf("self time by layer (s):  %10s %10s\n", "workload",
                    "sweep");
        for (const auto &[layer, secs] : selfTimeByLayer())
            std::printf("  %-22s %10.4f %10.4f\n", layer.c_str(),
                        secs.first, secs.second);
    }

    rigor::Json doc = rigor::Json::object();
    doc.set("schema", "selfbench-result");
    doc.set("version", 1);
    doc.set("workload", opts.workload);
    doc.set("trace", opts.trace);
    doc.set("smoke", opts.smoke);
    doc.set("seconds", opts.seconds);
    doc.set("environment", environmentStamp(opts));
    doc.set("digest", out.digest);
    doc.set("correct", correct);
    doc.set("attempted", static_cast<int64_t>(out.attempted));
    doc.set("failed", static_cast<int64_t>(out.failed));
    rigor::Json errs = rigor::Json::array();
    for (const auto &e : errors)
        errs.push(e);
    doc.set("errors", std::move(errs));
    doc.set("metrics", metricsJson(opts.trace ? perLayer : e2e));
    doc.set("workload_metrics", metricsJson(extra));
    doc.set("samples", samplesJson(setupTimes, wall, out, peakRss));
    std::string resultDir = opts.stateDir + "/results";
    fs::create_directories(resultDir);
    std::string resultPath = rigor::strprintf(
        "%s/%s-trace%d-seed%llu-%d.json", resultDir.c_str(),
        opts.workload.c_str(), opts.trace ? 1 : 0,
        static_cast<unsigned long long>(opts.seed),
        static_cast<int>(getpid()));
    try {
        rigor::atomicWriteFile(resultPath, doc.dump(2) + "\n");
        std::printf("result file: %s\n", resultPath.c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "selfbench: %s\n", e.what());
    }

    std::error_code ec;
    fs::remove_all(opts.workDir, ec);

    rigor::Json line = rigor::Json::object();
    line.set("correct", correct);
    line.set("attempted", static_cast<int64_t>(out.attempted));
    line.set("failed", static_cast<int64_t>(out.failed));
    line.set("metrics", metricsJson(opts.trace ? perLayer : e2e));
    std::printf("%s\n", line.dump().c_str());
    std::fflush(stdout);
    // The result line carries the verdict; a printed result exits 0.
    return 0;
}

// --- dogfooding: the benchmark's own samples as an archive -------------

/**
 * Fold every untraced result file into one archive entry labelled
 * `label`: one RunResult per (workload, metric), invocations = the
 * benchmark processes, iterations = the repeats inside each process.
 * `rigorbench compare`/`gate` (or --compare here) then give intervals
 * on the tool's own speed with the repository's statistics.
 */
int
foldResults(const Options &opts, const std::string &label)
{
    std::string resultDir = opts.stateDir + "/results";
    std::map<std::string, rigor::harness::RunResult> runs;
    std::vector<fs::path> folded;
    if (fs::exists(resultDir)) {
        std::vector<fs::path> files;
        for (const auto &e : fs::directory_iterator(resultDir))
            if (e.is_regular_file() && e.path().extension() == ".json")
                files.push_back(e.path());
        std::sort(files.begin(), files.end());
        for (const auto &p : files) {
            std::string text;
            if (!rigor::readFile(p.string(), text))
                continue;
            rigor::Json doc = rigor::Json::parse(text);
            if (doc.at("trace").asBool() || doc.at("smoke").asBool())
                continue;
            folded.push_back(p);
            std::string wl = doc.at("workload").asString();
            const rigor::Json &s = doc.at("samples");
            for (const char *metric :
                 {"setup_s", "wall_s", "op_ms", "peak_rss_mb"}) {
                auto &run = runs[wl + ":" + metric];
                run.workload = wl + ":" + metric;
                run.tier = rigor::vm::Tier::Interp;
                rigor::harness::InvocationResult inv;
                inv.invocationSeed = static_cast<uint64_t>(
                    doc.at("environment").at("seed").asInt());
                const rigor::Json *xsp = s.get(metric);
                if (!xsp)
                    continue;
                const rigor::Json &xs = *xsp;
                for (size_t i = 0; i < xs.size(); ++i) {
                    rigor::harness::IterationSample it;
                    // Seconds are stored as ms; ms and MiB as is.
                    bool secs = std::string(metric).ends_with("_s");
                    it.timeMs = xs.at(i).asDouble() * (secs ? 1e3 : 1.0);
                    inv.samples.push_back(it);
                }
                if (!inv.samples.empty()) {
                    run.invocations.push_back(std::move(inv));
                    run.invocationsAttempted =
                        static_cast<int>(run.invocations.size());
                }
            }
        }
    }
    std::vector<rigor::harness::RunResult> list;
    for (auto &[key, run] : runs)
        if (!run.invocations.empty())
            list.push_back(std::move(run));
    if (list.empty()) {
        std::fprintf(stderr, "selfbench: no untraced results to fold in "
                             "%s\n",
                     resultDir.c_str());
        return 1;
    }
    rigor::Json config = rigor::Json::object();
    config.set("schema_version", rigor::kRunSchemaVersion);
    config.set("selfbench", true);
    rigor::archive::RunArchive ar(opts.stateDir + "/archive");
    int id = ar.append(config, label, "selfbench", list);
    std::string dest = resultDir + "/" + label;
    fs::create_directories(dest);
    for (const auto &p : folded)
        fs::rename(p, fs::path(dest) / p.filename());
    std::printf("folded %zu result file(s) into archive entry #%d "
                "(label %s) in %s/archive\n",
                folded.size(), id, label.c_str(), opts.stateDir.c_str());
    return 0;
}

int
compareLabels(const Options &opts, const std::string &base,
              const std::string &cand, double gatePct)
{
    rigor::serve::QuerySpec q;
    q.kind = gatePct > 0 ? "gate" : "compare";
    q.baseRef = base;
    q.candRef = cand;
    q.archiveDir = opts.stateDir + "/archive";
    q.gateThresholdPct = gatePct;
    auto res = rigor::serve::runQuery(q);
    std::printf("%s", res.text.c_str());
    return res.exitCode;
}

} // namespace
} // namespace selfbench

int
main(int argc, char **argv)
{
    using namespace selfbench;
    Options opts;
    opts.stateDir = ".bench_build/selfbench";
    std::string fold, cmpBase, cmpCand, daemonSocket, daemonState,
        daemonStats;
    bool daemonTimed = false;
    double gatePct = 0.0;
    bool haveWorkload = false, haveSeed = false, haveSeconds = false,
         haveTrace = false;
    try {
        for (int i = 1; i < argc; ++i) {
            std::string a = argv[i];
            auto next = [&]() -> std::string {
                if (i + 1 >= argc)
                    throw std::runtime_error(a + " needs a value");
                return argv[++i];
            };
            if (a == "--workload") {
                opts.workload = next();
                haveWorkload = true;
            } else if (a == "--seed") {
                opts.seed = std::stoull(next());
                haveSeed = true;
            } else if (a == "--seconds") {
                opts.seconds = std::stod(next());
                haveSeconds = opts.seconds > 0;
            } else if (a == "--trace") {
                std::string t = next();
                if (t != "0" && t != "1")
                    throw std::runtime_error("--trace takes 0 or 1");
                opts.trace = t == "1";
                haveTrace = true;
            } else if (a == "--smoke") {
                opts.smoke = true;
            } else if (a == "--state-dir") {
                opts.stateDir = next();
            } else if (a == "--fold") {
                fold = next();
            } else if (a == "--compare") {
                cmpBase = next();
                cmpCand = next();
            } else if (a == "--gate") {
                gatePct = std::stod(next());
            } else if (a == "--daemon") {
                daemonSocket = next();
                daemonState = next();
                daemonStats = next();
            } else if (a == "--daemon-timed") {
                daemonTimed = true;
            } else {
                throw std::runtime_error("unknown argument " + a);
            }
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "selfbench: %s\n", e.what());
        return usage();
    }
    try {
        if (!daemonSocket.empty())
            return runDaemonChild(daemonSocket, daemonState, daemonStats,
                                  daemonTimed);
        if (!fold.empty())
            return foldResults(opts, fold);
        if (!cmpBase.empty())
            return compareLabels(opts, cmpBase, cmpCand, gatePct);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "selfbench: %s\n", e.what());
        return 2;
    }
    if (!haveWorkload || !haveSeed || !haveSeconds || !haveTrace ||
        !makeWorkload(opts))
        return usage();
    char exe[4096];
    ssize_t n = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    opts.selfExe = n > 0 ? std::string(exe, static_cast<size_t>(n))
                         : std::string(argv[0]);
    opts.workDir = rigor::strprintf("%s/run-%d", opts.stateDir.c_str(),
                                    static_cast<int>(getpid()));
    return runMeasurement(opts);
}

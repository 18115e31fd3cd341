/**
 * @file
 * Parallel-execution tests: a --jobs N run must produce artifacts
 * (report JSON, metrics snapshot, trace document, log output) that
 * are byte-identical to a serial run, including under injected
 * faults, misspeculation redo and quarantine; plus thread-safety
 * stress tests for the shared MetricsRegistry.
 */

#include <atomic>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "harness/fault.hh"
#include "harness/report.hh"
#include "harness/runner.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/parallel.hh"
#include "support/trace.hh"

namespace rigor {
namespace harness {
namespace {

RunnerConfig
baseConfig(int jobs, MetricsRegistry *metrics, TraceEmitter *trace)
{
    RunnerConfig cfg;
    cfg.invocations = 6;
    cfg.iterations = 5;
    cfg.tier = vm::Tier::Interp;
    cfg.seed = 0xabc;
    cfg.jobs = jobs;
    cfg.size = workloads::findWorkload("sieve").testSize;
    cfg.metrics = metrics;
    cfg.trace = trace;
    return cfg;
}

/** Every artifact of one run, serialized for byte comparison. */
struct Artifacts
{
    std::string report;
    std::string metrics;
    std::string trace;
    std::string logs;
};

/**
 * Run the workload at the given job count and serialize everything.
 * Log output is captured through the process sink so the two runs'
 * message streams can be compared too.
 */
Artifacts
runWithJobs(const std::string &workload, int jobs,
            const FaultPlan *plan)
{
    MetricsRegistry reg;
    TraceEmitter tr;
    auto cfg = baseConfig(jobs, &reg, &tr);
    FaultInjector inj(plan ? *plan : FaultPlan(), cfg.seed);
    if (plan)
        cfg.faults = &inj;

    Artifacts a;
    LogSink prev = setLogSink(
        [&a](LogLevel level, const std::string &msg) {
            a.logs += logLevelName(level);
            a.logs += ": ";
            a.logs += msg;
            a.logs += "\n";
        });
    RunResult run = runExperiment(workload, cfg);
    setLogSink(std::move(prev));

    a.report = runToJson(run).dump(2);
    a.metrics = reg.toJson().dump(2);
    a.trace = tr.toJson().dump(1);
    return a;
}

void
expectIdentical(const Artifacts &serial, const Artifacts &parallel)
{
    EXPECT_EQ(serial.report, parallel.report);
    EXPECT_EQ(serial.metrics, parallel.metrics);
    EXPECT_EQ(serial.trace, parallel.trace);
    EXPECT_EQ(serial.logs, parallel.logs);
}

TEST(Parallel, CleanRunIsByteIdenticalToSerial)
{
    Artifacts serial = runWithJobs("sieve", 1, nullptr);
    Artifacts parallel = runWithJobs("sieve", 4, nullptr);
    expectIdentical(serial, parallel);
    // Sanity: the run measured something.
    EXPECT_NE(serial.report.find("invocations"), std::string::npos);
}

TEST(Parallel, MoreJobsThanInvocationsIsByteIdentical)
{
    Artifacts serial = runWithJobs("sieve", 1, nullptr);
    Artifacts parallel = runWithJobs("sieve", 16, nullptr);
    expectIdentical(serial, parallel);
}

TEST(Parallel, FaultyRunWithRetriesIsByteIdenticalToSerial)
{
    FaultPlan plan;
    plan.add("throw:inv=1:n=1");
    plan.add("stall:inv=3:n=1:mag=4");
    Artifacts serial = runWithJobs("sieve", 1, &plan);
    Artifacts parallel = runWithJobs("sieve", 4, &plan);
    expectIdentical(serial, parallel);
    EXPECT_NE(serial.logs.find("attempt 0 failed"),
              std::string::npos);
}

// A checksum-corrupting fault makes a speculatively-executed slot's
// locally-successful result fail the committer's cross-invocation
// check, forcing the in-line redo path. The redo must replay the
// slot exactly as a serial run would have handled it.
TEST(Parallel, MisspeculatedChecksumRedoIsByteIdenticalToSerial)
{
    FaultPlan plan;
    plan.add("checksum:inv=2:n=1");
    Artifacts serial = runWithJobs("sieve", 1, &plan);
    Artifacts parallel = runWithJobs("sieve", 4, &plan);
    expectIdentical(serial, parallel);
    EXPECT_NE(serial.logs.find("checksum differs across invocations"),
              std::string::npos);
}

TEST(Parallel, QuarantineIsByteIdenticalToSerial)
{
    // Every invocation of every attempt throws: the workload hits the
    // consecutive-failure quarantine threshold. The committer must
    // stop the ordered stream at the same invocation a serial run
    // does, and the discarded in-flight slots must leave no residue
    // in any artifact.
    FaultPlan plan;
    plan.add("throw:n=1000");
    Artifacts serial = runWithJobs("sieve", 1, &plan);
    Artifacts parallel = runWithJobs("sieve", 4, &plan);
    expectIdentical(serial, parallel);
    EXPECT_NE(serial.logs.find("quarantined"), std::string::npos);
}

TEST(Parallel, ExtendContinuesTheSerialSequence)
{
    // Growing a run in batches (the sequential-stopping pattern) must
    // land on the same invocations whatever the job count.
    auto grow = [](int jobs) {
        auto cfg = baseConfig(jobs, nullptr, nullptr);
        const auto &spec = workloads::findWorkload("sieve");
        RunResult run;
        run.workload = spec.name;
        run.tier = cfg.tier;
        extendExperiment(spec, cfg, run, 3);
        extendExperiment(spec, cfg, run, 4);
        return runToJson(run).dump(2);
    };
    EXPECT_EQ(grow(1), grow(4));
}

TEST(Parallel, SharedRegistryStressTotalsAreExact)
{
    MetricsRegistry reg;
    constexpr int kThreads = 8;
    constexpr int kIters = 5000;
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&reg, &go, t]() {
            while (!go.load())
                std::this_thread::yield();
            // Shared metrics plus a thread-private name, so lookups
            // race with creation as well as with updates.
            Counter &mine = reg.counter(
                "stress.private." + std::to_string(t));
            for (int i = 0; i < kIters; ++i) {
                reg.counter("stress.shared").inc();
                mine.inc();
                reg.gauge("stress.gauge")
                    .set(static_cast<double>(i));
                reg.histogram("stress.hist", {1.0, 8.0, 64.0})
                    .observe(static_cast<double>(i % 100));
            }
        });
    }
    go.store(true);
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(reg.counterValue("stress.shared"),
              static_cast<uint64_t>(kThreads) * kIters);
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(reg.counterValue("stress.private." +
                                   std::to_string(t)),
                  static_cast<uint64_t>(kIters));
    Histogram &h = reg.histogram("stress.hist", {1.0, 8.0, 64.0});
    EXPECT_EQ(h.count(), static_cast<uint64_t>(kThreads) * kIters);
    uint64_t bucketTotal = 0;
    for (uint64_t c : h.bucketCounts())
        bucketTotal += c;
    EXPECT_EQ(bucketTotal, h.count());
    double g = reg.gauge("stress.gauge").value();
    EXPECT_GE(g, 0.0);
    EXPECT_LT(g, static_cast<double>(kIters));
}

TEST(Parallel, RegistryMergeReplaysBufferedObservations)
{
    // The serial reference: observe everything into one histogram.
    MetricsRegistry serial;
    Histogram &hs = serial.histogram("h", {1.0, 10.0});
    for (double v : {0.1, 0.2, 0.3, 5.0, 50.0})
        hs.observe(v);

    // Two buffered worker registries merged in order must reproduce
    // the serial sum bit for bit (summation order is preserved by
    // the replay, so floating-point non-associativity cannot bite).
    MetricsRegistry main;
    MetricsRegistry w1(true), w2(true);
    Histogram &h1 = w1.histogram("h", {1.0, 10.0});
    h1.observe(0.1);
    h1.observe(0.2);
    h1.observe(0.3);
    w1.counter("c").inc(2);
    Histogram &h2 = w2.histogram("h", {1.0, 10.0});
    h2.observe(5.0);
    h2.observe(50.0);
    w2.counter("c").inc(3);
    w2.gauge("g").set(7.5);
    main.merge(w1);
    main.merge(w2);

    EXPECT_EQ(main.toJson().at("histograms").dump(2),
              serial.toJson().at("histograms").dump(2));
    EXPECT_EQ(main.counterValue("c"), 5u);
    EXPECT_DOUBLE_EQ(main.gauge("g").value(), 7.5);
}

TEST(Parallel, TraceAppendReplaysClockArithmetic)
{
    // Serial reference: advances and events interleaved directly.
    TraceEmitter serial;
    serial.advanceMs(0.1);
    serial.instant("a", "t");
    serial.advanceMs(0.2);
    serial.beginSpan("s", "t");
    serial.advanceMs(0.3);
    serial.endSpan();

    // Same operations recorded in a buffered emitter, then appended.
    TraceEmitter main;
    TraceEmitter sub(true);
    main.advanceMs(0.1);
    main.instant("a", "t");
    sub.advanceMs(0.2);
    sub.beginSpan("s", "t");
    sub.advanceMs(0.3);
    sub.endSpan();
    main.append(std::move(sub));

    EXPECT_EQ(main.toJson().dump(1), serial.toJson().dump(1));
    // Appending a non-buffered or still-open emitter is a bug.
    TraceEmitter plain;
    EXPECT_THROW(main.append(std::move(plain)), PanicError);
    TraceEmitter open(true);
    open.beginSpan("x", "t");
    EXPECT_THROW(main.append(std::move(open)), PanicError);
}

TEST(ParallelFor, RunsEveryItemOnce)
{
    for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{1000}}) {
        std::vector<std::atomic<int>> runs(n);
        parallelFor(n, [&](size_t i) { runs[i].fetch_add(1); });
        for (size_t i = 0; i < n; ++i)
            EXPECT_EQ(runs[i].load(), 1) << "item " << i << " of " << n;
        EXPECT_EQ(liveHelpers(), 0);
    }
}

// Every item still runs when some throw, and the caller sees the
// lowest failing item's exception, whichever thread ran it.
TEST(ParallelFor, RethrowsTheLowestFailingItem)
{
    for (int round = 0; round < 20; ++round) {
        std::vector<std::atomic<int>> runs(500);
        try {
            parallelFor(runs.size(), [&](size_t i) {
                runs[i].fetch_add(1);
                if (i == 499 || i == 137 || i == 300)
                    throw std::runtime_error(std::to_string(i));
            });
            ADD_FAILURE() << "nothing thrown";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "137") << "round " << round;
        }
        for (auto &r : runs)
            EXPECT_EQ(r.load(), 1);
        // The helpers went back to the budget on the throwing path.
        EXPECT_EQ(liveHelpers(), 0);
    }
    EXPECT_THROW(parallelFor(64, [](size_t) { throw 1; }), int);
    EXPECT_EQ(liveHelpers(), 0);
}

// Concurrent and nested callers share one budget: the live helper
// count never passes it, and every helper is returned at the end.
TEST(ParallelFor, HelpersStayWithinTheProcessWideBudget)
{
    std::atomic<int> most{0};
    std::atomic<int> items{0};
    auto note = [&] {
        int live = liveHelpers();
        int seen = most.load();
        while (live > seen && !most.compare_exchange_weak(seen, live)) {
        }
        items.fetch_add(1);
    };
    std::vector<std::thread> callers;
    for (int c = 0; c < 4; ++c)
        callers.emplace_back([&] {
            for (int round = 0; round < 10; ++round)
                parallelFor(8, [&](size_t) {
                    note();
                    parallelFor(8, [&](size_t) { note(); });
                });
        });
    for (auto &t : callers)
        t.join();
    EXPECT_EQ(items.load(), 4 * 10 * (8 + 8 * 8));
    EXPECT_LE(most.load(), helperBudget());
    EXPECT_EQ(liveHelpers(), 0);
}

} // namespace
} // namespace harness
} // namespace rigor

/**
 * @file
 * Byte-level pins for the JSON writer and the state envelope.
 *
 * Every CRC, fingerprint and archived artifact hashes the canonical
 * dump bytes, so a change to how a value is written is a change to
 * every artifact. These tests pin the exact bytes of a seeded
 * synthetic document (every type, objects built out of order with
 * overwrites and erasures, strings with every byte value, doubles
 * from subnormals to the largest finite value) and of a checkpoint
 * envelope, and check the writer's number formatting against
 * `printf("%.17g")` over a large seeded sample of bit patterns.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include <unistd.h>

#include "harness/measurement.hh"
#include "harness/report.hh"
#include "support/durable_io.hh"
#include "support/fingerprint.hh"
#include "support/json.hh"
#include "support/rng.hh"
#include "support/str.hh"

namespace rigor {
namespace {

std::string
hex64(uint64_t h)
{
    return strprintf("%016llx", static_cast<unsigned long long>(h));
}

double
fromBits(uint64_t bits)
{
    double d;
    std::memcpy(&d, &bits, sizeof(d));
    return d;
}

std::string
randomBytes(Rng &rng, size_t maxLen)
{
    std::string s(rng.nextBounded(maxLen + 1), '\0');
    for (char &c : s)
        c = static_cast<char>(rng.nextBounded(256));
    return s;
}

/** A seeded document exercising every value type and writer path. */
Json
syntheticDocument(uint64_t seed)
{
    Rng rng(seed);
    Json root = Json::object();

    root.set("null", Json());
    root.set("true", true);
    root.set("false", false);
    root.set("int_min", std::numeric_limits<int64_t>::min());
    root.set("int_max", std::numeric_limits<int64_t>::max());
    root.set("zero", 0);

    Json dbl = Json::array();
    const double inf = std::numeric_limits<double>::infinity();
    for (double d : {0.0, -0.0, 5e-324, 1e-310, 2.2250738585072009e-308,
                     2.2250738585072014e-308, 1e308,
                     std::numeric_limits<double>::max(), 1.0, -3.0, 0.1,
                     1.0 / 3.0, 1e15, 1e16, 1e17, 123456789012345678.0,
                     std::nan(""), inf, -inf})
        dbl.push(d);
    for (int i = 0; i < 200; ++i) {
        // Raw bit patterns: subnormals, huge exponents, NaN payloads
        // and infinities (the last two are written as null).
        dbl.push(fromBits(rng.nextU64()));
        dbl.push((rng.nextDouble() - 0.5) * 2e6);
        dbl.push(static_cast<double>(
            rng.nextRange(-1000000000, 1000000000)));
    }
    root.set("doubles", std::move(dbl));

    Json strs = Json::array();
    std::string every;
    for (int c = 0; c < 256; ++c)
        every += static_cast<char>(c);
    strs.push(every);
    strs.push("quote \" backslash \\ slash / tab \t nl \n cr \r del \x7f");
    for (int i = 0; i < 50; ++i)
        strs.push(randomBytes(rng, 40));
    root.set("strings", std::move(strs));

    // Keys arrive out of order, are set again (the last write wins)
    // and some are erased again.
    Json obj = Json::object();
    for (int i = 0; i < 300; ++i) {
        std::string key = strprintf(
            "k%llu", static_cast<unsigned long long>(rng.nextBounded(120)));
        if (rng.nextBounded(4) == 0)
            obj.erase(key);
        else
            obj.set(key, Json(static_cast<int64_t>(i)));
    }
    for (const char *key : {"\x7f", "\xff\xfe", "a\"b", "", "Z", "a",
                            "a\\", "\t", "\xc3\xa9t\xc3\xa9"})
        obj.set(key, std::string(key) + "!");
    for (int i = 0; i < 20; ++i)
        obj.set(randomBytes(rng, 6), rng.nextDouble());
    root.set("object", std::move(obj));

    Json nest = Json::array();
    nest.push(Json::array());
    nest.push(Json::object());
    Json deep = Json::array();
    for (int i = 0; i < 20; ++i) {
        Json level = Json::object();
        level.set("depth", i);
        level.set("inner", std::move(deep));
        deep = Json::array();
        deep.push(std::move(level));
    }
    nest.push(std::move(deep));
    root.set("nest", std::move(nest));

    root.set("zeta", "first");
    root.set("alpha", 1);
    root.set("zeta", "second");
    root.erase("zero");
    root.erase("absent");
    return root;
}

/** A seeded RunResult shaped like a real archived run. */
harness::RunResult
syntheticRun(uint64_t seed)
{
    Rng rng(seed);
    harness::RunResult run;
    run.workload = "nbody";
    run.tier = vm::Tier::Adaptive;
    run.size = 7;
    for (int i = 0; i < 4; ++i) {
        harness::InvocationResult inv;
        inv.invocationSeed = rng.nextU64();
        inv.checksum = rng.nextRange(-1000000, 1000000);
        for (int j = 0; j < 12; ++j) {
            harness::IterationSample s;
            s.timeMs = 2.0 + rng.nextDouble() / 3.0;
            s.simCycles = rng.nextBounded(uint64_t{1} << 40);
            inv.samples.push_back(s);
        }
        run.invocations.push_back(std::move(inv));
    }
    harness::InvocationFailure f;
    f.kind = harness::FailureKind::ChecksumMismatch;
    f.invocation = 2;
    f.seed = rng.nextU64();
    f.backoffMs = 10.0 * rng.nextDouble();
    f.message = "checksum 12 != 13 \"quoted\"";
    run.failures.push_back(f);
    run.invocationsAttempted = 5;
    return run;
}

TEST(JsonGolden, DumpBytesArePinned)
{
    Json doc = syntheticDocument(0x5eedULL);
    std::string compact = doc.dump();
    std::string pretty = doc.dump(2);
    EXPECT_EQ(compact.size(), 15302u);
    EXPECT_EQ(hex64(fnv1a64(compact)), "3026a82a3aeb0e75");
    EXPECT_EQ(pretty.size(), 23927u);
    EXPECT_EQ(hex64(fnv1a64(pretty)), "8a5c6ab1c9a575a7");
}

TEST(JsonGolden, StateEnvelopeBytesArePinned)
{
    char tmpl[] = "/tmp/rigor_golden_XXXXXX";
    const char *dir = ::mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);
    std::string path = std::string(dir) + "/state.json";
    Json payload = harness::runToJson(syntheticRun(0xe1e1ULL));
    writeStateFile(path, payload);
    std::string bytes;
    ASSERT_TRUE(readFile(path, bytes));
    EXPECT_EQ(bytes.size(), 3710u);
    EXPECT_EQ(hex64(fnv1a64(bytes)), "a101bbaf4fd1f36e");

    StateLoad load = loadStateFile(path);
    EXPECT_FALSE(load.usedBackup);
    EXPECT_EQ(load.payload.dump(), payload.dump());
    std::remove(path.c_str());
    ::rmdir(dir);
}

/**
 * The writer prints doubles exactly as C-locale `%.17g` does, over a
 * million seeded finite bit patterns (every exponent, subnormals
 * included) plus ordinary magnitudes.
 */
TEST(JsonGolden, DoublesMatchPrintfG17)
{
    Rng rng(0xd0b1eULL);
    char buf[64];
    int checked = 0;
    auto check = [&](double d) {
        std::snprintf(buf, sizeof(buf), "%.17g", d);
        ASSERT_EQ(Json(d).dump(), buf);
        ++checked;
    };
    while (checked < 1000000) {
        double d = fromBits(rng.nextU64());
        if (std::isfinite(d))
            check(d);
    }
    for (int i = 0; i < 200000; ++i)
        check((rng.nextDouble() - 0.5) *
              std::pow(10.0, static_cast<double>(rng.nextRange(-12, 12))));
    EXPECT_EQ(checked, 1200000);
}

} // namespace
} // namespace rigor

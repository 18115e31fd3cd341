/**
 * @file
 * Support-library tests: RNG determinism and distribution moments,
 * JSON round-trips, CSV quoting, string utilities, tables, logging.
 */

#include <clocale>
#include <cstdint>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "support/csv.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/str.hh"
#include "support/table.hh"

namespace rigor {
namespace {

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.nextU64() == b.nextU64())
            ++same;
    EXPECT_EQ(same, 0);
}

TEST(Rng, BoundedIsInRangeAndUnbiased)
{
    Rng rng(7);
    std::vector<int> counts(10, 0);
    for (int i = 0; i < 100000; ++i) {
        uint64_t v = rng.nextBounded(10);
        ASSERT_LT(v, 10u);
        ++counts[static_cast<size_t>(v)];
    }
    for (int c : counts)
        EXPECT_NEAR(c, 10000, 500);
    EXPECT_THROW(rng.nextBounded(0), PanicError);
}

// The bootstrap precomputes each bound's rejection threshold; the
// draws must be the ones nextBounded(bound) makes, rejections included
// (2^63 + 1 rejects almost half of all raw draws).
TEST(Rng, PrecomputedThresholdDrawsAreIdentical)
{
    std::vector<uint64_t> bounds = {1, 2, 3, 7, 10, 1000, 1u << 20,
                                    (uint64_t{1} << 32) + 1,
                                    (uint64_t{1} << 63) - 1,
                                    (uint64_t{1} << 63) + 1,
                                    ~uint64_t{0}};
    Rng pick(2024);
    for (int i = 0; i < 50; ++i)
        bounds.push_back(1 + pick.nextU64() % (uint64_t{1} << (i % 64)));
    for (uint64_t seed = 0; seed < 40; ++seed) {
        for (uint64_t bound : bounds) {
            Rng plain(seed), pre(seed);
            uint64_t threshold = Rng::boundedThreshold(bound);
            for (int draw = 0; draw < 64; ++draw)
                ASSERT_EQ(plain.nextBounded(bound),
                          pre.nextBounded(bound, threshold))
                    << "seed " << seed << " bound " << bound;
            // Both consumed the same raw draws.
            EXPECT_EQ(plain.nextU64(), pre.nextU64());
        }
    }
    EXPECT_EQ(Rng::boundedThreshold(1), 0u);
    EXPECT_EQ(Rng::boundedThreshold((uint64_t{1} << 63) + 1),
              (uint64_t{1} << 63) - 1);
    EXPECT_THROW(Rng::boundedThreshold(0), PanicError);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(11);
    double sum = 0.0, sumsq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        double x = rng.nextGaussian();
        sum += x;
        sumsq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.01);
    EXPECT_NEAR(sumsq / n, 1.0, 0.02);
}

TEST(Rng, ExponentialMean)
{
    Rng rng(13);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.nextExponential(2.0);
    EXPECT_NEAR(sum / n, 0.5, 0.01);
    EXPECT_THROW(rng.nextExponential(0.0), PanicError);
}

TEST(Rng, RangeAndBernoulli)
{
    Rng rng(17);
    for (int i = 0; i < 1000; ++i) {
        int64_t v = rng.nextRange(-5, 5);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 5);
    }
    int heads = 0;
    for (int i = 0; i < 10000; ++i)
        if (rng.nextBernoulli(0.25))
            ++heads;
    EXPECT_NEAR(heads, 2500, 200);
}

TEST(Rng, ShufflePermutes)
{
    Rng rng(23);
    std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
    auto orig = v;
    rng.shuffle(v);
    auto sorted = v;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(sorted, orig);
}

TEST(Json, ScalarsAndDump)
{
    EXPECT_EQ(Json().dump(), "null");
    EXPECT_EQ(Json(true).dump(), "true");
    EXPECT_EQ(Json(int64_t{42}).dump(), "42");
    EXPECT_EQ(Json("hi").dump(), "\"hi\"");
    EXPECT_EQ(Json(1.5).dump(), "1.5");
}

TEST(Json, ObjectOrderingDeterministic)
{
    Json o = Json::object();
    o.set("zebra", 1);
    o.set("apple", 2);
    EXPECT_EQ(o.dump(), "{\"apple\":2,\"zebra\":1}");
}

TEST(Json, RoundTrip)
{
    Json root = Json::object();
    root.set("name", "bench");
    root.set("count", 3);
    root.set("ratio", 0.25);
    root.set("flag", true);
    root.set("nothing", Json());
    Json arr = Json::array();
    arr.push(1);
    arr.push("two");
    arr.push(Json::array());
    root.set("items", std::move(arr));

    Json parsed = Json::parse(root.dump());
    EXPECT_EQ(parsed.at("name").asString(), "bench");
    EXPECT_EQ(parsed.at("count").asInt(), 3);
    EXPECT_DOUBLE_EQ(parsed.at("ratio").asDouble(), 0.25);
    EXPECT_TRUE(parsed.at("flag").asBool());
    EXPECT_TRUE(parsed.at("nothing").isNull());
    EXPECT_EQ(parsed.at("items").size(), 3u);
    EXPECT_EQ(parsed.at("items").at(1).asString(), "two");
}

TEST(Json, StringEscapes)
{
    Json s(std::string("a\"b\\c\nd\te"));
    Json parsed = Json::parse(s.dump());
    EXPECT_EQ(parsed.asString(), "a\"b\\c\nd\te");
}

TEST(Json, ParseErrors)
{
    EXPECT_THROW(Json::parse("{"), FatalError);
    EXPECT_THROW(Json::parse("[1,]2"), FatalError);
    EXPECT_THROW(Json::parse("tru"), FatalError);
    EXPECT_THROW(Json::parse("\"unterminated"), FatalError);
    EXPECT_THROW(Json::parse("{\"a\":1} extra"), FatalError);
}

// Regression: number parsing used std::stod, which honors LC_NUMERIC.
// Under a comma-decimal locale (de_DE, fr_FR, ...) "1.5" stopped at
// the '.' and silently parsed as 1.0. std::from_chars is
// locale-independent, so parsing (and, through std::to_chars,
// writing) must agree byte for byte with the "C" locale whatever the
// process locale is.
TEST(Json, NumberParsingIsLocaleIndependent)
{
    const char *candidates[] = {"de_DE.UTF-8", "de_DE.utf8", "de_DE",
                                "fr_FR.UTF-8", "fr_FR.utf8", "fr_FR"};
    const char *applied = nullptr;
    for (const char *name : candidates)
        if (std::setlocale(LC_ALL, name)) {
            applied = name;
            break;
        }
    if (!applied)
        GTEST_SKIP() << "no comma-decimal locale installed";
    // Paranoia: only proceed if the locale really uses ','.
    if (std::localeconv()->decimal_point[0] != ',') {
        std::setlocale(LC_ALL, "C");
        GTEST_SKIP() << applied << " does not use ',' decimals";
    }
    Json parsed = Json::parse("[1.5, -0.25, 6.02e23]");
    // Writing is locale-independent too: printf's %g would print
    // "1,5" here, which is not JSON.
    std::string written = Json(1.5).dump();
    std::string array = parsed.dump();
    std::setlocale(LC_ALL, "C");
    EXPECT_EQ(written, "1.5");
    EXPECT_EQ(array, "[1.5,-0.25,6.02e+23]");
    EXPECT_DOUBLE_EQ(parsed.at(0).asDouble(), 1.5);
    EXPECT_DOUBLE_EQ(parsed.at(1).asDouble(), -0.25);
    EXPECT_DOUBLE_EQ(parsed.at(2).asDouble(), 6.02e23);
}

// Regression: std::stod threw std::out_of_range on "1e999", which
// escaped the parser as an unrelated exception type. Range errors
// must surface as ordinary parse failures.
TEST(Json, OutOfRangeNumbersAreParseErrors)
{
    EXPECT_THROW(Json::parse("1e999"), FatalError);
    EXPECT_THROW(Json::parse("-1e999"), FatalError);
    EXPECT_THROW(Json::parse("{\"x\": [1, 2, 1e999]}"), FatalError);
    // Near-the-edge values still parse.
    EXPECT_DOUBLE_EQ(Json::parse("1e308").asDouble(), 1e308);
}

TEST(Json, HugeIntegerLiteralFallsBackToDouble)
{
    // Larger than int64: kept as a double, as before.
    Json v = Json::parse("99999999999999999999");
    EXPECT_EQ(v.type(), Json::Type::Double);
    EXPECT_DOUBLE_EQ(v.asDouble(), 1e20);
    Json n = Json::parse("-99999999999999999999");
    EXPECT_DOUBLE_EQ(n.asDouble(), -1e20);
    // Full int64 range stays integral.
    EXPECT_EQ(Json::parse("9223372036854775807").asInt(),
              INT64_MAX);
    EXPECT_EQ(Json::parse("-9223372036854775808").asInt(),
              INT64_MIN);
}

// Regression: the parser recursed once per '[' or '{' with no limit,
// so 100 000 of them overflowed the stack. Nesting past the fixed
// limit is now an ordinary parse error.
TEST(Json, DeepNestingIsAParseError)
{
    const size_t limit = Json::kMaxDepth;
    std::string atLimit =
        std::string(limit, '[') + std::string(limit, ']');
    EXPECT_EQ(Json::parse(atLimit).dump(), atLimit);
    EXPECT_THROW(Json::parse(std::string(limit + 1, '[') +
                             std::string(limit + 1, ']')),
                 FatalError);
    std::string objects;
    for (size_t i = 0; i <= limit; ++i)
        objects += "{\"a\":";
    objects += "1" + std::string(limit + 1, '}');
    EXPECT_THROW(Json::parse(objects), FatalError);
    try {
        Json::parse(std::string(100000, '['));
        ADD_FAILURE() << "100 000 nested arrays parsed";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("nesting"),
                  std::string::npos)
            << e.what();
    }
}

// "-0" is how a negative-zero double is written; it must read back
// as one, or a payload holding -0.0 fails its own CRC check.
TEST(Json, NegativeZeroRoundTrips)
{
    EXPECT_EQ(Json(-0.0).dump(), "-0");
    Json back = Json::parse("-0");
    EXPECT_EQ(back.type(), Json::Type::Double);
    EXPECT_EQ(back.dump(), "-0");
    EXPECT_EQ(Json::parse("0").type(), Json::Type::Int);
}

TEST(Json, TypeErrorsPanic)
{
    Json i(int64_t{1});
    EXPECT_THROW(i.asString(), PanicError);
    EXPECT_THROW(i.at("x"), PanicError);
    Json o = Json::object();
    EXPECT_THROW(o.at("missing"), PanicError);
    EXPECT_THROW(o.push(Json()), PanicError);
}

TEST(Json, PrettyPrintIndents)
{
    Json o = Json::object();
    o.set("a", 1);
    std::string pretty = o.dump(2);
    EXPECT_NE(pretty.find("\n  \"a\": 1"), std::string::npos);
}

TEST(Json, StripDropsWhitespaceOutsideStringsOnly)
{
    std::string text = "{\n\t\"a b\" :\v[ 1 ,\f-2.5e3 ],\r\n"
                       "  \"q\\\" \\\\\": \" x \\\" y \" }\n";
    std::string out;
    ASSERT_TRUE(Json::strip(text, out));
    EXPECT_EQ(out, "{\"a b\":[1,-2.5e3],\"q\\\" \\\\\":\" x \\\" y \"}");
    // The stripped text parses to the same value.
    EXPECT_EQ(Json::parse(out).dump(), Json::parse(text).dump());
}

TEST(Json, StripOutlinesMembersAndElements)
{
    std::string out;
    std::vector<Json::Span> spans;
    ASSERT_TRUE(Json::strip(
        "{ \"a\": [ 1, {\"b\": null} ], \"e\": [ ], \"c\": \"s\" }", out,
        &spans, 2));
    ASSERT_EQ(out, "{\"a\":[1,{\"b\":null}],\"e\":[],\"c\":\"s\"}");
    auto key = [&](const Json::Span &s) {
        return out.substr(s.keyBegin, s.keyEnd - s.keyBegin);
    };
    auto value = [&](const Json::Span &s) {
        return out.substr(s.begin, s.end - s.begin);
    };
    // Document order, depth 1 and 2 only: a, its two elements, e
    // (no elements), c.
    ASSERT_EQ(spans.size(), 5u);
    EXPECT_EQ(spans[0].depth, 1);
    EXPECT_EQ(key(spans[0]), "\"a\"");
    EXPECT_EQ(value(spans[0]), "[1,{\"b\":null}]");
    EXPECT_EQ(spans[1].depth, 2);
    EXPECT_EQ(key(spans[1]), "");
    EXPECT_EQ(value(spans[1]), "1");
    EXPECT_EQ(value(spans[2]), "{\"b\":null}");
    EXPECT_EQ(spans[3].depth, 1);
    EXPECT_EQ(key(spans[3]), "\"e\"");
    EXPECT_EQ(value(spans[3]), "[]");
    EXPECT_EQ(spans[4].depth, 1);
    EXPECT_EQ(key(spans[4]), "\"c\"");
    EXPECT_EQ(value(spans[4]), "\"s\"");
}

// Each input here fails to parse; stripping it must not turn it into
// one that parses (or take the parser's nesting limit past its own).
TEST(Json, StripRefusesWhatWouldChangeTheTokens)
{
    const size_t limit = Json::kMaxDepth;
    const std::string refused[] = {
        "[1 2]", "[tr\tue]", "[1]]", "[}", "{\"a\":\"open",
        "\"ends in \\", "{\"a\":[1}",
        std::string(limit + 1, '[') + std::string(limit + 1, ']')};
    for (const auto &text : refused) {
        std::string out;
        EXPECT_FALSE(Json::strip(text, out)) << text;
        EXPECT_THROW(Json::parse(text), FatalError) << text;
    }
    std::string out;
    std::string atLimit =
        std::string(limit, '[') + std::string(limit, ']');
    EXPECT_TRUE(Json::strip(atLimit, out));
    EXPECT_EQ(out, atLimit);
}

TEST(Csv, QuotingRules)
{
    EXPECT_EQ(CsvWriter::quote("plain"), "plain");
    EXPECT_EQ(CsvWriter::quote("a,b"), "\"a,b\"");
    EXPECT_EQ(CsvWriter::quote("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(CsvWriter::quote("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, RowsAndFields)
{
    std::ostringstream os;
    CsvWriter csv(os);
    csv.writeRow({"name", "x"});
    csv.field(std::string("a,b")).field(-3.0);
    csv.endRow();
    csv.field(3.5).field(uint64_t{7});
    csv.endRow();
    EXPECT_EQ(os.str(), "name,x\n\"a,b\",-3\n3.5,7\n");
}

TEST(Str, SplitJoinTrim)
{
    EXPECT_EQ(split("a,b,,c", ','),
              (std::vector<std::string>{"a", "b", "", "c"}));
    EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
    EXPECT_EQ(join({"x", "y", "z"}, "--"), "x--y--z");
    EXPECT_EQ(trim("  hi \t\n"), "hi");
    EXPECT_EQ(trim("   "), "");
}

TEST(Str, PredicatesAndCase)
{
    EXPECT_TRUE(startsWith("foobar", "foo"));
    EXPECT_FALSE(startsWith("fo", "foo"));
    EXPECT_TRUE(endsWith("foobar", "bar"));
}

TEST(Str, Formatting)
{
    EXPECT_EQ(padLeft("x", 3), "  x");
    EXPECT_EQ(padRight("x", 3), "x  ");
    EXPECT_EQ(padLeft("abcd", 2), "abcd");
    EXPECT_EQ(fmtDouble(3.14159, 2), "3.14");
    EXPECT_EQ(fmtCount(1234567), "1,234,567");
    EXPECT_EQ(fmtCount(12), "12");
    EXPECT_EQ(repeat('-', 3), "---");
}

TEST(Table, RendersAlignedColumns)
{
    Table t({"name", "value"});
    t.addRow({"alpha", "1.25"});
    t.addRow({"b", "100"});
    t.setCaption("Demo");
    std::string out = t.render();
    EXPECT_NE(out.find("Demo"), std::string::npos);
    EXPECT_NE(out.find("| alpha |"), std::string::npos);
    // Numeric column is right-aligned.
    EXPECT_NE(out.find("|  1.25 |"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
    EXPECT_THROW(t.addRow({"only-one"}), PanicError);
}

TEST(Logging, PanicAndFatalThrow)
{
    EXPECT_THROW(panic("boom %d", 7), PanicError);
    EXPECT_THROW(fatal("bad input %s", "x"), FatalError);
    try {
        panic("value=%d", 42);
    } catch (const PanicError &e) {
        EXPECT_NE(std::string(e.what()).find("value=42"),
                  std::string::npos);
    }
}

TEST(Logging, StrprintfFormats)
{
    EXPECT_EQ(strprintf("%s-%03d", "id", 5), "id-005");
    EXPECT_EQ(strprintf("plain"), "plain");
}

} // namespace
} // namespace rigor

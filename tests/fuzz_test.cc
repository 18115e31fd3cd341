/**
 * @file
 * Deterministic mutation fuzzing of the parsers that read untrusted
 * bytes: daemon request lines (Json::parse + the protocol header),
 * job and query specs (jobSpecFromJson / querySpecFromJson), state
 * envelopes (verifyStateText) and archive entries, where the
 * from-the-bytes verifier scan() and fsck use must agree with the
 * tree path on every input.
 *
 * Valid documents are mutated with byte flips, random bytes,
 * truncation, token insertion, splices and deep nesting, all drawn
 * from support/rng with fixed seeds, so every run tries the same
 * inputs and needs no fuzzing engine. The invariants:
 *   - only FatalError or PanicError escape a parser;
 *   - every accepted document round-trips:
 *     parse(dump(x)).dump() == dump(x), for the pretty form too.
 * The iteration counts keep the whole file to a few seconds, and the
 * sanitizer build runs it like every other test.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <typeinfo>
#include <vector>

#include <gtest/gtest.h>

#include <unistd.h>

#include "archive/archive.hh"
#include "serve/jobspec.hh"
#include "serve/protocol.hh"
#include "support/durable_io.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/str.hh"

namespace rigor {
namespace {

/** Printable form of a failing input for the test log. */
std::string
escaped(const std::string &s)
{
    std::string out = Json(s.substr(0, 400)).dump();
    if (s.size() > 400)
        out += strprintf("... (%zu bytes)", s.size());
    return out;
}

std::string
nested(Rng &rng, size_t depth)
{
    std::string open = rng.nextBounded(2) ? "[" : "{\"k\":";
    std::string out;
    for (size_t i = 0; i < depth; ++i)
        out += open;
    return out;
}

/** One to four seeded mutations of `s`. */
std::string
mutate(Rng &rng, std::string s)
{
    static const std::string_view tokens[] = {
        "[", "]", "{", "}", ",", ":", "\"", "\\", "\\u00", "\\u12",
        "-", "-0", "0", "1e999", "1e-400", "9223372036854775808",
        "2147483648", "-1", "0.5", "null", "true", "false", "tru",
        "\"\"", "  ", "\n", std::string_view("\0", 1), "\x7f",
        "\xff", "\xc3\xa9", "{}", "[]", "\"schema\"", "\"version\":2"};
    const size_t nTokens = sizeof(tokens) / sizeof(tokens[0]);
    int rounds = 1 + static_cast<int>(rng.nextBounded(4));
    for (int r = 0; r < rounds; ++r) {
        size_t at = rng.nextBounded(s.size() + 1);
        switch (rng.nextBounded(6)) {
          case 0:
            if (!s.empty())
                s[at % s.size()] ^=
                    static_cast<char>(1u << rng.nextBounded(8));
            break;
          case 1:
            if (!s.empty())
                s[at % s.size()] =
                    static_cast<char>(rng.nextBounded(256));
            break;
          case 2:
            s.resize(at);
            break;
          case 3:
            s.insert(at, tokens[rng.nextBounded(nTokens)]);
            break;
          case 4: {
            size_t from = rng.nextBounded(s.size() + 1);
            size_t len = rng.nextBounded(64);
            s.insert(at, s.substr(from, len));
            break;
          }
          default: {
            static const size_t depths[] = {
                Json::kMaxDepth - 1, Json::kMaxDepth,
                Json::kMaxDepth + 1, 20000};
            s.insert(at, nested(rng, depths[rng.nextBounded(4)]));
            break;
          }
        }
    }
    return s;
}

void
checkRoundTrip(const Json &x, const std::string &input)
{
    std::string compact = x.dump();
    ASSERT_EQ(Json::parse(compact).dump(), compact) << escaped(input);
    ASSERT_EQ(Json::parse(x.dump(2)).dump(), compact) << escaped(input);
}

/**
 * Run `consume` on `iterations` inputs per seed document: the
 * document itself, then mutations of it. `consume` fills in the
 * parsed document and returns true when the input was accepted;
 * anything but FatalError/PanicError escaping it fails the test.
 */
template <typename Consume>
int
fuzz(uint64_t seed, const std::vector<std::string> &corpus,
     int iterations, Consume consume)
{
    Rng rng(seed);
    int accepted = 0;
    for (const auto &doc : corpus) {
        for (int i = 0; i < iterations; ++i) {
            std::string input = i == 0 ? doc : mutate(rng, doc);
            try {
                Json parsed;
                if (consume(input, parsed)) {
                    ++accepted;
                    checkRoundTrip(parsed, input);
                }
            } catch (const FatalError &) {
            } catch (const PanicError &) {
            } catch (const std::exception &e) {
                ADD_FAILURE() << "unexpected " << typeid(e).name()
                              << " (" << e.what() << ") on "
                              << escaped(input);
            }
            if (::testing::Test::HasFatalFailure())
                return accepted;
        }
    }
    return accepted;
}

serve::JobSpec
runSpec()
{
    serve::JobSpec spec;
    spec.workload = "nbody";
    spec.tier = vm::Tier::Threaded;
    spec.invocations = 3;
    spec.iterations = 5;
    spec.injectSpecs = {"checksum:wl=sieve:inv=1:n=1"};
    spec.archiveDir = "archive";
    spec.label = "base\"line";
    return spec;
}

serve::JobSpec
suiteSpec()
{
    serve::JobSpec spec;
    spec.command = "suite";
    spec.resumePath = "state.json";
    spec.checkpointEvery = 2;
    spec.deadlineMs = 12.5;
    return spec;
}

serve::QuerySpec
querySpec()
{
    serve::QuerySpec q;
    q.kind = "gate";
    q.baseRef = "HEAD~1";
    q.candRef = "baseline";
    q.archiveDir = "archive";
    q.baseTier = "interp";
    q.candTier = "adaptive";
    q.explainGate = true;
    return q;
}

TEST(Fuzz, RequestLines)
{
    Json submit = serve::makeRequest("submit");
    submit.set("job", serve::jobSpecToJson(runSpec()));
    submit.set("priority", 3);
    Json query = serve::makeRequest("query");
    query.set("query", serve::querySpecToJson(querySpec()));
    Json status = serve::makeRequest("status");
    status.set("job_id", 7);
    std::vector<std::string> corpus = {
        serve::makeRequest("hello").dump(), submit.dump(), query.dump(),
        status.dump()};
    int accepted = fuzz(0xf00d01ULL, corpus, 3000,
                        [](const std::string &line, Json &out) {
                            out = Json::parse(line);
                            serve::checkProtocolHeader(out);
                            return true;
                        });
    EXPECT_GT(accepted, 100);
}

TEST(Fuzz, JobAndQuerySpecs)
{
    std::vector<std::string> jobs = {
        serve::jobSpecToJson(runSpec()).dump(),
        serve::jobSpecToJson(suiteSpec()).dump(2)};
    int acceptedJobs = fuzz(0xf00d02ULL, jobs, 4000,
                            [](const std::string &text, Json &out) {
                                out = Json::parse(text);
                                serve::jobSpecFromJson(out);
                                return true;
                            });
    EXPECT_GT(acceptedJobs, 100);

    std::vector<std::string> queries = {
        serve::querySpecToJson(querySpec()).dump(),
        serve::querySpecToJson(serve::QuerySpec{}).dump(2)};
    int acceptedQueries = fuzz(0xf00d03ULL, queries, 4000,
                               [](const std::string &text, Json &out) {
                                   out = Json::parse(text);
                                   serve::querySpecFromJson(out);
                                   return true;
                               });
    EXPECT_GT(acceptedQueries, 100);
}

TEST(Fuzz, StateEnvelopes)
{
    char tmpl[] = "/tmp/rigor_fuzz_XXXXXX";
    const char *dir = ::mkdtemp(tmpl);
    ASSERT_NE(dir, nullptr);
    std::string path = std::string(dir) + "/state.json";
    Json payload = Json::object();
    payload.set("job", serve::jobSpecToJson(suiteSpec()));
    Json samples = Json::array();
    for (double d : {1.25, -0.0, 5e-324, 1e300, 0.1})
        samples.push(d);
    payload.set("samples", std::move(samples));
    payload.set("note", "tab\there \"quoted\" \x01");
    writeStateFile(path, payload);
    std::string text;
    ASSERT_TRUE(readFile(path, text));
    std::remove(path.c_str());
    ::rmdir(dir);

    // verifyStateText never throws: every defect is a false return.
    int accepted = fuzz(0xf00d04ULL, {text}, 10000,
                        [](const std::string &t, Json &out) {
                            std::string why;
                            bool ok = verifyStateText(t, &out, &why);
                            EXPECT_EQ(ok, why.empty()) << why;
                            return ok;
                        });
    // Whitespace-only mutations keep the CRC valid.
    EXPECT_GT(accepted, 0);
}

/** Everything scan() and fsck learn from one entry's text. */
struct EntryVerdict
{
    bool verified = false;
    std::string why;
    archive::PayloadState state = archive::PayloadState::Bad;
    std::string summary;
};

/**
 * What `verify` and the payload check make of `text`. The summary is
 * flattened to one string so a mismatch prints every field.
 */
template <typename Verify>
EntryVerdict
entryVerdict(const std::string &text, Verify verify)
{
    EntryVerdict v;
    Json payload;
    v.verified = verify(text, &payload, &v.why);
    if (!v.verified)
        return v;
    v.state = archive::checkPayload(payload, &v.why);
    if (v.state != archive::PayloadState::Ok)
        return v;
    archive::EntrySummary s =
        archive::summaryFromPayload(payload, 1, "/nonexistent/entry");
    v.summary = strprintf("fp=%s label=%s command=%s runs=%d "
                          "profiles=%d tiers=%s",
                          s.fingerprint.c_str(), s.label.c_str(),
                          s.command.c_str(), s.runCount, s.profileCount,
                          join(s.tiers, ",").c_str());
    return v;
}

/**
 * Check the fast path against the tree path on `text` and return
 * whether the bytes were canonical (the fast path decided alone).
 */
bool
expectFastMatchesTree(const std::string &text)
{
    EntryVerdict fast = entryVerdict(text, archive::verifyEntryText);
    EntryVerdict tree = entryVerdict(text, verifyStateText);
    EXPECT_EQ(fast.verified, tree.verified) << escaped(text);
    EXPECT_EQ(fast.why, tree.why) << escaped(text);
    EXPECT_EQ(fast.state, tree.state) << escaped(text);
    EXPECT_EQ(fast.summary, tree.summary) << escaped(text);
    CanonicalState canon;
    return verifyCanonicalState(text, canon, 0);
}

harness::RunResult
entryRun(const std::string &workload, double ms)
{
    harness::RunResult run;
    run.workload = workload;
    run.tier = vm::Tier::Adaptive;
    run.size = 4;
    for (int inv = 0; inv < 2; ++inv) {
        harness::InvocationResult ir;
        ir.invocationSeed = 3 + inv;
        for (int it = 0; it < 3; ++it) {
            harness::IterationSample s;
            s.timeMs = ms + 0.25 * it;
            ir.samples.push_back(s);
        }
        run.invocations.push_back(ir);
    }
    run.invocationsAttempted = 2;
    return run;
}

/** The envelope writeStateFile writes around `payload`. */
std::string
envelopeText(const Json &payload)
{
    char tmpl[] = "/tmp/rigor_fuzz_XXXXXX";
    const char *dir = ::mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    std::string path = std::string(dir) + "/state.json";
    writeStateFile(path, payload);
    std::string text;
    EXPECT_TRUE(readFile(path, text));
    std::remove(path.c_str());
    ::rmdir(dir);
    return text;
}

/** A two-run v2 archive entry, as RunArchive::append writes it. */
std::string
archiveEntryText()
{
    char tmpl[] = "/tmp/rigor_fuzz_XXXXXX";
    const char *dir = ::mkdtemp(tmpl);
    EXPECT_NE(dir, nullptr);
    Json config = Json::object();
    config.set("scale", 1.5);
    config.set("tiers", Json::parse("[\"adaptive\"]"));
    Json profile = Json::object();
    profile.set("counters", Json::parse("{\"cycles\": 12}"));
    archive::RunArchive ar(dir);
    ar.append(config, "say \"hi\" \\ there", "suite",
              {entryRun("sieve", 1.0), entryRun("queens", 2.0)},
              {profile, Json()});
    std::string path = std::string(dir) + "/entry-000001.json";
    std::string text;
    EXPECT_TRUE(readFile(path, text));
    std::remove(path.c_str());
    std::remove((std::string(dir) + "/.lock").c_str());
    ::rmdir(dir);
    return text;
}

/** `text` with the first `from` replaced by `to`. */
std::string
replaced(std::string text, const std::string &from,
         const std::string &to)
{
    size_t at = text.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    if (at != std::string::npos)
        text.replace(at, from.size(), to);
    return text;
}

TEST(Fuzz, ArchiveEntryNamedCases)
{
    using archive::PayloadState;
    std::string text = archiveEntryText();
    Json envelope = Json::parse(text);
    Json payload = envelope.at("payload");
    std::string crc = envelope.at("crc32").asString();

    Json withExtra = envelope;
    withExtra.set("extra", true);
    Json runsObject = payload;
    runsObject.set("runs", Json::parse("{\"a\": {}}"));
    Json escapes = payload;
    escapes.set("label", "\"\\\"\\");
    Json noRuns = payload;
    noRuns.set("runs", Json::array());
    Json noProfiles = payload;
    noProfiles.set("profiles", Json::array());
    // The envelope and the payload are two levels: the nest takes
    // the document exactly to the parser's limit, or one past it.
    auto deep = [&](int levels) {
        Json nest = Json::array();
        for (int i = 1; i < levels; ++i) {
            Json outer = Json::array();
            outer.push(std::move(nest));
            nest = std::move(outer);
        }
        Json p = payload;
        p.set("deep", std::move(nest));
        return envelopeText(p);
    };

    struct Case
    {
        const char *name;
        std::string text;
        bool canonical;
        bool verified;
        PayloadState state;
    };
    const Case cases[] = {
        {"as written", text, true, true, PayloadState::Ok},
        {"re-indented", envelope.dump(4), true, true, PayloadState::Ok},
        {"one line", envelope.dump(), true, true, PayloadState::Ok},
        {"\\v and \\f whitespace",
         replaced(replaced(text, ",\n  ", ",\v\f"), "{\n", "{\f"), true,
         true, PayloadState::Ok},
        {"reordered envelope",
         strprintf("{\"version\": 1, \"payload\": %s, \"crc32\": \"%s\", "
                   "\"format\": \"rigorbench-state\"}",
                   payload.dump(2).c_str(), crc.c_str()),
         false, true, PayloadState::Ok},
        {"reordered payload",
         replaced(text,
                  "\"schema\": \"rigorbench-archive-entry\",\n"
                  "    \"version\": 2\n",
                  "\"version\": 2,\n"
                  "    \"schema\": \"rigorbench-archive-entry\"\n"),
         false, true, PayloadState::Ok},
        {"1.50", replaced(text, "\"scale\": 1.5", "\"scale\": 1.50"),
         false, true, PayloadState::Ok},
        {"escaped label", envelopeText(escapes), true, true,
         PayloadState::Ok},
        {"trailing byte", text + "x", false, false, PayloadState::Bad},
        {"trailing document", text + "{}", false, false,
         PayloadState::Bad},
        {"nesting at the limit", deep(Json::kMaxDepth - 2), true, true,
         PayloadState::Ok},
        {"nesting past the limit", deep(Json::kMaxDepth - 1), false,
         false, PayloadState::Bad},
        {"extra envelope member", withExtra.dump(2), false, true,
         PayloadState::Ok},
        {"runs as an object", envelopeText(runsObject), true, true,
         PayloadState::Bad},
        {"empty runs", envelopeText(noRuns), true, true,
         PayloadState::Bad},
        {"empty profiles", envelopeText(noProfiles), true, true,
         PayloadState::Ok},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.name);
        EXPECT_EQ(expectFastMatchesTree(c.text), c.canonical);
        EntryVerdict v = entryVerdict(c.text, archive::verifyEntryText);
        EXPECT_EQ(v.verified, c.verified) << v.why;
        EXPECT_EQ(v.state, c.state) << v.why;
    }
    EXPECT_NE(text.find("\"say \\\"hi\\\" \\\\ there\""),
              std::string::npos);
    EXPECT_NE(entryVerdict(text, archive::verifyEntryText)
                  .summary.find("label=say \"hi\" \\ there "),
              std::string::npos);
}

TEST(Fuzz, ArchiveEntriesFastPathMatchesTreePath)
{
    std::string text = archiveEntryText();
    std::vector<std::string> corpus = {text,
                                       Json::parse(text).dump(4)};
    Rng rng(0xf00d05ULL);
    int canonical = 0;
    for (const auto &doc : corpus) {
        for (int i = 0; i < 3000; ++i) {
            std::string input = i == 0 ? doc : mutate(rng, doc);
            try {
                if (expectFastMatchesTree(input))
                    ++canonical;
            } catch (const std::exception &e) {
                ADD_FAILURE() << "unexpected " << typeid(e).name()
                              << " (" << e.what() << ") on "
                              << escaped(input);
            }
            if (::testing::Test::HasFailure())
                return;
        }
    }
    // Whitespace-only mutations keep the bytes canonical.
    EXPECT_GT(canonical, 2);
}

} // namespace
} // namespace rigor

/**
 * @file
 * Deterministic mutation fuzzing of the parsers that read untrusted
 * bytes: daemon request lines (Json::parse + the protocol header),
 * job and query specs (jobSpecFromJson / querySpecFromJson) and
 * state envelopes (verifyStateText).
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

} // namespace
} // namespace rigor

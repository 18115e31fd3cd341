/**
 * @file
 * Tests for the durable I/O layer: CRC-32 against known vectors and
 * a bytewise reference, whole-file reads, atomic whole-file
 * replacement, the checksummed/versioned state envelope, backup
 * rotation, and corruption recovery (truncated,
 * checksum-mismatched and version-mismatched files must fall back to
 * the .bak copy, and fail loudly when no copy is usable).
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include "support/durable_io.hh"
#include "support/json.hh"
#include "support/logging.hh"
#include "support/rng.hh"
#include "support/str.hh"

namespace rigor {
namespace {

/** Fresh scratch directory, removed on destruction. */
class ScratchDir
{
  public:
    ScratchDir()
    {
        char tmpl[] = "/tmp/rigor_durable_XXXXXX";
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

    std::string path(const std::string &name) const
    {
        return dir_ + "/" + name;
    }

  private:
    std::string dir_;
};

Json
samplePayload(int marker)
{
    Json p = Json::object();
    p.set("kind", "test");
    p.set("marker", marker);
    Json arr = Json::array();
    arr.push(1.5);
    arr.push(0.1);
    p.set("values", std::move(arr));
    return p;
}

TEST(Crc32, KnownVectors)
{
    // The standard check value for CRC-32/IEEE.
    EXPECT_EQ(crc32(std::string("123456789")), 0xCBF43926u);
    EXPECT_EQ(crc32(std::string("")), 0x00000000u);
    EXPECT_EQ(crc32(std::string("a")), 0xE8B7BE43u);
}

/** The textbook byte-at-a-time loop, as the reference. */
uint32_t
crc32Bytewise(const unsigned char *p, size_t n)
{
    uint32_t c = 0xFFFFFFFFu;
    for (size_t i = 0; i < n; ++i) {
        c ^= p[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
}

// crc32() folds inputs of 64 bytes and more with carry-less multiply
// where the CPU has it; crc32SlicingBy8() is the table kernel alone.
// Both must equal the textbook loop at every length, alignment and
// tail, so neither can hide a bug behind the other.
TEST(Crc32, MatchesBytewiseAtEveryLengthAndAlignment)
{
    constexpr size_t kMaxLen = 4096;
    constexpr size_t kAligns = 16;
    std::vector<unsigned char> buf(kAligns + (size_t{64} << 10));
    Rng rng(0xc3c3ULL);
    for (auto &b : buf)
        b = static_cast<unsigned char>(rng.nextBounded(256));
    auto check = [&](size_t align, size_t len, uint32_t want) {
        const unsigned char *p = buf.data() + align;
        ASSERT_EQ(crc32(p, len), want)
            << "align " << align << " len " << len;
        ASSERT_EQ(crc32SlicingBy8(p, len), want)
            << "align " << align << " len " << len;
    };
    for (size_t align = 0; align < kAligns; ++align) {
        // The textbook loop, extended one byte per length.
        uint32_t state = 0xFFFFFFFFu;
        for (size_t len = 0; len <= kMaxLen; ++len) {
            check(align, len, state ^ 0xFFFFFFFFu);
            state ^= buf[align + len];
            for (int k = 0; k < 8; ++k)
                state = (state & 1) ? 0xEDB88320u ^ (state >> 1)
                                    : state >> 1;
        }
    }
    for (int i = 0; i < 200; ++i) {
        size_t align = rng.nextBounded(kAligns);
        size_t len = rng.nextBounded(buf.size() - kAligns + 1);
        check(align, len, crc32Bytewise(buf.data() + align, len));
    }
}

TEST(ReadFile, EmptyFile)
{
    ScratchDir dir;
    std::string p = dir.path("empty");
    atomicWriteFile(p, "");
    std::string got = "stale";
    ASSERT_TRUE(readFile(p, got));
    EXPECT_EQ(got, "");
}

TEST(ReadFile, LargeFileIsReadWhole)
{
    ScratchDir dir;
    std::string p = dir.path("large");
    Rng rng(0x1a1aULL);
    std::string content(200 * 1024 + 3, '\0');
    for (char &c : content)
        c = static_cast<char>(rng.nextBounded(256));
    atomicWriteFile(p, content);
    std::string got;
    ASSERT_TRUE(readFile(p, got));
    EXPECT_EQ(got.size(), content.size());
    EXPECT_TRUE(got == content);
}

TEST(ReadFile, MissingPathFails)
{
    std::string got;
    EXPECT_FALSE(readFile("/nonexistent-dir-xyz/f.txt", got));
}

// /proc files report st_size 0 but have content: the reader must not
// trust the size for anything but a first guess.
TEST(ReadFile, ProcFileWithZeroSizeIsReadWhole)
{
    const char *p = "/proc/self/status";
    struct stat st;
    if (::stat(p, &st) != 0 || st.st_size != 0)
        GTEST_SKIP() << p << " is unavailable or reports a size";
    std::string got;
    ASSERT_TRUE(readFile(p, got));
    EXPECT_NE(got.find("Name:"), std::string::npos);
    EXPECT_EQ(got.back(), '\n');
}

TEST(AtomicWrite, WritesAndReplaces)
{
    ScratchDir dir;
    std::string p = dir.path("f.txt");
    atomicWriteFile(p, "first\n");
    std::string got;
    ASSERT_TRUE(readFile(p, got));
    EXPECT_EQ(got, "first\n");

    atomicWriteFile(p, "second\n");
    ASSERT_TRUE(readFile(p, got));
    EXPECT_EQ(got, "second\n");

    // No .tmp residue is left behind.
    EXPECT_FALSE(readFile(p + ".tmp", got));
}

TEST(AtomicWrite, FailureIsLoud)
{
    EXPECT_THROW(
        atomicWriteFile("/nonexistent-dir-xyz/f.txt", "data"),
        FatalError);
}

TEST(StateFile, RoundTrip)
{
    ScratchDir dir;
    std::string p = dir.path("state.json");
    EXPECT_FALSE(stateFileExists(p));
    writeStateFile(p, samplePayload(1));
    EXPECT_TRUE(stateFileExists(p));

    StateLoad load = loadStateFile(p);
    EXPECT_FALSE(load.usedBackup);
    EXPECT_EQ(load.payload.dump(), samplePayload(1).dump());
}

TEST(StateFile, NegativeZeroPayloadVerifies)
{
    ScratchDir dir;
    std::string p = dir.path("state.json");
    Json payload = samplePayload(1);
    payload.set("neg_zero", -0.0);
    writeStateFile(p, payload);
    StateLoad load = loadStateFile(p);
    EXPECT_FALSE(load.usedBackup);
    EXPECT_EQ(load.payload.dump(), payload.dump());
}

TEST(StateFile, RotatesBackupOnRewrite)
{
    ScratchDir dir;
    std::string p = dir.path("state.json");
    writeStateFile(p, samplePayload(1));
    writeStateFile(p, samplePayload(2));

    // Main file holds the new payload; .bak holds the previous one.
    StateLoad load = loadStateFile(p);
    EXPECT_FALSE(load.usedBackup);
    EXPECT_EQ(load.payload.dump(), samplePayload(2).dump());

    std::string bak;
    ASSERT_TRUE(readFile(stateBackupPath(p), bak));
    StateLoad bload = loadStateFile(stateBackupPath(p));
    EXPECT_EQ(bload.payload.dump(), samplePayload(1).dump());
}

TEST(StateFile, TruncatedMainFallsBackToBackup)
{
    ScratchDir dir;
    std::string p = dir.path("state.json");
    writeStateFile(p, samplePayload(1));
    writeStateFile(p, samplePayload(2));

    // Simulate a torn write the atomic layer is supposed to prevent
    // (e.g. manual editing or filesystem damage): truncate main.
    std::string text;
    ASSERT_TRUE(readFile(p, text));
    atomicWriteFile(p, text.substr(0, text.size() / 2));

    StateLoad load = loadStateFile(p);
    EXPECT_TRUE(load.usedBackup);
    EXPECT_NE(load.warning.find("recovered"), std::string::npos);
    EXPECT_EQ(load.payload.dump(), samplePayload(1).dump());
}

TEST(StateFile, ChecksumMismatchDetected)
{
    ScratchDir dir;
    std::string p = dir.path("state.json");
    writeStateFile(p, samplePayload(1));
    writeStateFile(p, samplePayload(2));

    // Flip payload content without updating the stored CRC.
    std::string text;
    ASSERT_TRUE(readFile(p, text));
    size_t pos = text.find("\"marker\": 2");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 11, "\"marker\": 9");
    atomicWriteFile(p, text);

    StateLoad load = loadStateFile(p);
    EXPECT_TRUE(load.usedBackup);
    EXPECT_NE(load.warning.find("checksum mismatch"),
              std::string::npos);
    EXPECT_EQ(load.payload.dump(), samplePayload(1).dump());
}

TEST(StateFile, VersionMismatchDetected)
{
    ScratchDir dir;
    std::string p = dir.path("state.json");
    writeStateFile(p, samplePayload(1));
    writeStateFile(p, samplePayload(2));

    std::string text;
    ASSERT_TRUE(readFile(p, text));
    size_t pos = text.find("\"version\": 1");
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, 12, "\"version\": 99");
    atomicWriteFile(p, text);

    StateLoad load = loadStateFile(p);
    EXPECT_TRUE(load.usedBackup);
    EXPECT_NE(load.warning.find("version"), std::string::npos);
    EXPECT_EQ(load.payload.dump(), samplePayload(1).dump());
}

TEST(StateFile, BothUnusableIsFatal)
{
    ScratchDir dir;
    std::string p = dir.path("state.json");
    atomicWriteFile(p, "not json at all");
    atomicWriteFile(stateBackupPath(p), "{\"also\": \"bad\"}");
    EXPECT_THROW(loadStateFile(p), FatalError);
}

TEST(StateFile, MissingIsFatal)
{
    ScratchDir dir;
    EXPECT_THROW(loadStateFile(dir.path("absent.json")), FatalError);
}

TEST(StateFile, CorruptMainDoesNotClobberGoodBackup)
{
    ScratchDir dir;
    std::string p = dir.path("state.json");
    writeStateFile(p, samplePayload(1));
    writeStateFile(p, samplePayload(2));
    // Corrupt the main file, then write a new checkpoint: the
    // rotation must skip the corrupt main so .bak keeps payload 1
    // (the last good checkpoint), not the corrupt bytes.
    atomicWriteFile(p, "garbage");
    writeStateFile(p, samplePayload(3));

    StateLoad bload = loadStateFile(stateBackupPath(p));
    EXPECT_EQ(bload.payload.dump(), samplePayload(1).dump());
    StateLoad load = loadStateFile(p);
    EXPECT_FALSE(load.usedBackup);
    EXPECT_EQ(load.payload.dump(), samplePayload(3).dump());
}

TEST(StateFile, ExistsChecksBackupToo)
{
    ScratchDir dir;
    std::string p = dir.path("state.json");
    writeStateFile(p, samplePayload(1));
    writeStateFile(p, samplePayload(2));
    ASSERT_EQ(::unlink(p.c_str()), 0);
    EXPECT_TRUE(stateFileExists(p));
    StateLoad load = loadStateFile(p);
    EXPECT_TRUE(load.usedBackup);
    EXPECT_EQ(load.payload.dump(), samplePayload(1).dump());
}

TEST(StateFile, CanonicalBytesVerifyWithoutATree)
{
    ScratchDir dir;
    std::string p = dir.path("state.json");
    Json payload = samplePayload(1);
    payload.set("note", "a \"quoted\" \\ and\ta tab");
    writeStateFile(p, payload);
    std::string text;
    ASSERT_TRUE(readFile(p, text));

    CanonicalState canon;
    ASSERT_TRUE(verifyCanonicalState(text, canon, 0));
    EXPECT_EQ(canon.payload(), payload.dump());
    // Other whitespace strips to the same bytes: still canonical.
    std::string reindented = Json::parse(text).dump(4);
    EXPECT_TRUE(verifyCanonicalState(reindented, canon, 0));
    std::string vf = text;
    for (size_t at = vf.find(",\n"); at != std::string::npos;
         at = vf.find(",\n", at + 1))
        vf[at + 1] = at % 2 ? '\v' : '\f';
    EXPECT_TRUE(verifyCanonicalState(vf, canon, 0));
    EXPECT_TRUE(verifyStateText(vf, nullptr, nullptr));

    // Damage is never canonical, and the tree path agrees.
    std::string flipped = text;
    flipped[flipped.find("\"marker\": 1") + 10] = '7';
    EXPECT_FALSE(verifyCanonicalState(flipped, canon, 0));
    EXPECT_FALSE(verifyStateText(flipped, nullptr, nullptr));
}

TEST(StateFile, OtherLayoutsFallBackToTheTreePath)
{
    ScratchDir dir;
    Json payload = samplePayload(1);
    std::string crc = strprintf("%08x", crc32(payload.dump()));
    std::string body = payload.dump(2);
    std::string canonical = strprintf(
        "{\"crc32\": \"%s\", \"format\": \"%s\", \"payload\": %s, "
        "\"version\": %d}",
        crc.c_str(), kStateFormat, body.c_str(), kStateVersion);
    CanonicalState canon;
    ASSERT_TRUE(verifyCanonicalState(canonical, canon, 0));

    std::string spelled = canonical;
    spelled.replace(spelled.find("1.5"), 3, "1.50");
    const std::string variants[] = {
        strprintf("{\"version\": %d, \"payload\": %s, \"format\": "
                  "\"%s\", \"crc32\": \"%s\"}",
                  kStateVersion, body.c_str(), kStateFormat,
                  crc.c_str()),
        spelled,
        "{\"extra\": true, " + canonical.substr(1),
    };
    for (const auto &text : variants) {
        EXPECT_FALSE(verifyCanonicalState(text, canon, 0)) << text;
        std::string why;
        EXPECT_TRUE(verifyStateText(text, nullptr, &why)) << why;
        std::string p = dir.path("state.json");
        atomicWriteFile(p, text);
        StateLoad load = loadStateFile(p);
        EXPECT_FALSE(load.usedBackup) << load.warning;
        EXPECT_EQ(load.payload.dump(), payload.dump());
    }
}

} // namespace
} // namespace rigor

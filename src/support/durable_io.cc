#include "support/durable_io.hh"

#include <array>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

// crc32() folds with carry-less multiply on x86-64 CPUs that have it.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RIGOR_CRC_FOLD 1
#include <immintrin.h>
#endif

#include "support/logging.hh"
#include "support/str.hh"

namespace rigor {

namespace {

using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

/**
 * Slicing-by-8 tables for the reflected polynomial 0xEDB88320:
 * t[0] is the classic byte table, and t[k][i] is the CRC of byte i
 * followed by k zero bytes, so eight bytes fold in with eight
 * independent lookups.
 */
const CrcTables &
crcTables()
{
    static const CrcTables tables = [] {
        CrcTables t{};
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[0][i] = c;
        }
        for (size_t k = 1; k < 8; ++k)
            for (size_t i = 0; i < 256; ++i)
                t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
        return t;
    }();
    return tables;
}

/** Slicing-by-8 over `len` bytes, from and to the inverted state. */
uint32_t
crc32Sliced(uint32_t c, const unsigned char *p, size_t len)
{
    const auto &t = crcTables();
    for (; len >= 8; p += 8, len -= 8) {
        // Bytes are read one at a time, so this is endian-neutral.
        uint32_t lo = c ^ (uint32_t{p[0]} | uint32_t{p[1]} << 8 |
                           uint32_t{p[2]} << 16 | uint32_t{p[3]} << 24);
        c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
            t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
            t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    }
    for (; len > 0; ++p, --len)
        c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
    return c;
}

#ifdef RIGOR_CRC_FOLD

#define RIGOR_CLMUL __attribute__((target("pclmul,sse4.1")))

RIGOR_CLMUL __m128i
load16(const unsigned char *p)
{
    return _mm_loadu_si128(reinterpret_cast<const __m128i *>(p));
}

/** `a` times x^k (k's low and high halves) folded onto `next`. */
RIGOR_CLMUL __m128i
fold16(__m128i a, __m128i k, __m128i next)
{
    __m128i lo = _mm_clmulepi64_si128(a, k, 0x00);
    __m128i hi = _mm_clmulepi64_si128(a, k, 0x11);
    return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

/**
 * Carry-less-multiply folding (Gopal et al., "Fast CRC Computation
 * for Generic Polynomials Using PCLMULQDQ Instruction", Intel 2009)
 * over `len` bytes, a multiple of 16 and at least 64, from and to the
 * inverted state. Four 128-bit lanes fold 64 bytes a step, then fold
 * into one lane, which takes the remaining 16-byte blocks; a Barrett
 * reduction gives the 32-bit state. The constants are the paper's
 * bit-reflected ones for 0xEDB88320: x^(512+-64) and x^(128+-64) mod
 * P for the two folds, x^64 mod P, and floor(x^64 / P) with P itself.
 */
RIGOR_CLMUL uint32_t
crc32Folded(uint32_t c, const unsigned char *p, size_t len)
{
    const __m128i k1k2 = _mm_set_epi64x(0x01c6e41596, 0x0154442bd4);
    const __m128i k3k4 = _mm_set_epi64x(0x00ccaa009e, 0x01751997d0);
    const __m128i k5 = _mm_set_epi64x(0, 0x0163cd6124);
    const __m128i poly = _mm_set_epi64x(0x01f7011641, 0x01db710641);
    const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);

    __m128i x1 = _mm_xor_si128(load16(p),
                               _mm_cvtsi32_si128(static_cast<int>(c)));
    __m128i x2 = load16(p + 16);
    __m128i x3 = load16(p + 32);
    __m128i x4 = load16(p + 48);
    for (p += 64, len -= 64; len >= 64; p += 64, len -= 64) {
        x1 = fold16(x1, k1k2, load16(p));
        x2 = fold16(x2, k1k2, load16(p + 16));
        x3 = fold16(x3, k1k2, load16(p + 32));
        x4 = fold16(x4, k1k2, load16(p + 48));
    }
    x1 = fold16(x1, k3k4, x2);
    x1 = fold16(x1, k3k4, x3);
    x1 = fold16(x1, k3k4, x4);
    for (; len >= 16; p += 16, len -= 16)
        x1 = fold16(x1, k3k4, load16(p));

    // 128 bits to 64, then Barrett-reduce to 32.
    x1 = _mm_xor_si128(_mm_srli_si128(x1, 8),
                       _mm_clmulepi64_si128(x1, k3k4, 0x10));
    x1 = _mm_xor_si128(
        _mm_srli_si128(x1, 4),
        _mm_clmulepi64_si128(_mm_and_si128(x1, low32), k5, 0x00));
    __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x1, low32), poly,
                                     0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
    return static_cast<uint32_t>(
        _mm_extract_epi32(_mm_xor_si128(x1, t), 1));
}

#undef RIGOR_CLMUL

/** Whether this CPU has the instructions crc32Folded() uses. */
bool
canFold()
{
    static const bool yes = __builtin_cpu_supports("pclmul") &&
        __builtin_cpu_supports("sse4.1");
    return yes;
}

#endif // RIGOR_CRC_FOLD

} // namespace

uint32_t
crc32(const void *data, size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    uint32_t c = 0xFFFFFFFFu;
#ifdef RIGOR_CRC_FOLD
    if (len >= 64 && canFold()) {
        size_t folded = len & ~size_t{15};
        c = crc32Folded(c, p, folded);
        p += folded;
        len -= folded;
    }
#endif
    return crc32Sliced(c, p, len) ^ 0xFFFFFFFFu;
}

uint32_t
crc32SlicingBy8(const void *data, size_t len)
{
    return crc32Sliced(0xFFFFFFFFu,
                       static_cast<const unsigned char *>(data), len) ^
        0xFFFFFFFFu;
}

uint32_t
crc32(const std::string &s)
{
    return crc32(s.data(), s.size());
}

int
FsOps::open(const char *path, int flags, mode_t mode)
{
    return ::open(path, flags, mode);
}

ssize_t
FsOps::write(int fd, const void *buf, size_t n)
{
    return ::write(fd, buf, n);
}

int
FsOps::fsync(int fd)
{
    return ::fsync(fd);
}

int
FsOps::close(int fd)
{
    return ::close(fd);
}

int
FsOps::rename(const char *from, const char *to)
{
    return ::rename(from, to);
}

int
FsOps::unlink(const char *path)
{
    return ::unlink(path);
}

namespace {

FsOps &
defaultFsOps()
{
    static FsOps ops;
    return ops;
}

FsOps *activeFsOps = nullptr;

} // namespace

FsOps &
fsOps()
{
    return activeFsOps ? *activeFsOps : defaultFsOps();
}

FsOps *
setFsOps(FsOps *ops)
{
    FsOps *prev = activeFsOps;
    activeFsOps = ops;
    return prev;
}

namespace {

/** fsync the directory containing `path` so a rename is durable.
 *  Best-effort: some filesystems refuse directory fsync; the file
 *  data itself was already fsync'd, so failure here only widens the
 *  power-loss window, it cannot corrupt state. */
void
fsyncParentDir(const std::string &path)
{
    size_t slash = path.find_last_of('/');
    std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash + 1);
    FsOps &fs = fsOps();
    int fd = fs.open(dir.c_str(), O_RDONLY, 0);
    if (fd < 0)
        return;
    (void)fs.fsync(fd);
    (void)fs.close(fd);
}

[[noreturn]] void
writeFailed(const std::string &tmp, const char *step, int err,
            int fd)
{
    // Best-effort cleanup so a failed write does not leave a stale
    // .tmp behind; a *crash* between the write and the rename still
    // can, which is why archive append and fsck sweep for orphans.
    if (fd >= 0)
        (void)fsOps().close(fd);
    (void)fsOps().unlink(tmp.c_str());
    fatal("atomic write failed: path=%s step=%s error=%s",
          tmp.c_str(), step, std::strerror(err));
}

} // namespace

void
atomicWriteFile(const std::string &path, const std::string &content)
{
    FsOps &fs = fsOps();
    // O_TRUNC doubles as the cleanup of a stale .tmp a crashed
    // previous writer may have left at this path.
    std::string tmp = path + ".tmp";
    int fd = fs.open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0)
        fatal("atomic write failed: path=%s step=open error=%s",
              tmp.c_str(), std::strerror(errno));
    size_t off = 0;
    while (off < content.size()) {
        ssize_t n =
            fs.write(fd, content.data() + off, content.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            writeFailed(tmp, "write", errno, fd);
        }
        off += static_cast<size_t>(n);
    }
    if (fs.fsync(fd) != 0)
        writeFailed(tmp, "fsync", errno, fd);
    if (fs.close(fd) != 0)
        writeFailed(tmp, "close", errno, -1);
    if (fs.rename(tmp.c_str(), path.c_str()) != 0)
        writeFailed(tmp, "rename", errno, -1);
    fsyncParentDir(path);
}

bool
readFile(const std::string &path, std::string &out)
{
    int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return false;
    struct stat st;
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        return false;
    }
    // The size is only a first guess: /proc files report 0, and a
    // file may grow while it is read. One spare byte lets a file
    // that kept its size end on a zero-length read without growing
    // the buffer.
    size_t guess =
        st.st_size > 0 ? static_cast<size_t>(st.st_size) + 1 : 4096;
    std::string buf(guess, '\0');
    size_t len = 0;
    for (;;) {
        if (len == buf.size())
            buf.resize(buf.size() * 2);
        ssize_t n = ::read(fd, buf.data() + len, buf.size() - len);
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0) {
            ::close(fd);
            return false;
        }
        if (n == 0)
            break;
        len += static_cast<size_t>(n);
    }
    ::close(fd);
    buf.resize(len);
    out = std::move(buf);
    return true;
}

std::string
stateBackupPath(const std::string &path)
{
    return path + ".bak";
}

namespace {

/**
 * Parse and verify one envelope file's text. On success fills
 * `payload` (when non-null) and returns true; on any defect returns
 * false with a one-line diagnosis in `why`.
 */
bool
verifyEnvelope(const std::string &text, Json *payload,
               std::string *why)
{
    Json doc;
    try {
        doc = Json::parse(text);
    } catch (const std::exception &e) {
        *why = strprintf("unparseable (%s)", e.what());
        return false;
    }
    const Json *format = doc.get("format");
    if (!format || format->type() != Json::Type::String ||
        format->asString() != kStateFormat) {
        *why = "not a rigorbench state envelope";
        return false;
    }
    const Json *version = doc.get("version");
    if (!version || version->type() != Json::Type::Int) {
        *why = "missing schema version";
        return false;
    }
    if (version->asInt() != kStateVersion) {
        *why = strprintf("unsupported schema version %lld "
                         "(this build reads version %d)",
                         static_cast<long long>(version->asInt()),
                         kStateVersion);
        return false;
    }
    const Json *crc = doc.get("crc32");
    if (!crc || crc->type() != Json::Type::String) {
        *why = "missing crc32";
        return false;
    }
    Json *body = doc.get("payload");
    if (!body) {
        *why = "missing payload";
        return false;
    }
    char *end = nullptr;
    errno = 0;
    unsigned long stored =
        std::strtoul(crc->asString().c_str(), &end, 16);
    if (end == crc->asString().c_str() || *end != '\0' ||
        errno == ERANGE) {
        *why = strprintf("malformed crc32 '%s'",
                         crc->asString().c_str());
        return false;
    }
    uint32_t computed = crc32(body->dump());
    if (computed != static_cast<uint32_t>(stored)) {
        *why = strprintf("checksum mismatch (stored 0x%08lx, "
                         "computed 0x%08x)",
                         stored, computed);
        return false;
    }
    if (payload)
        *payload = std::move(*body);
    return true;
}

} // namespace

bool
verifyStateText(const std::string &text, Json *payload,
                std::string *why)
{
    std::string scratch;
    return verifyEnvelope(text, payload, why ? why : &scratch);
}

bool
verifyCanonicalState(const std::string &text, CanonicalState &out,
                     int outlineDepth)
{
    static const std::string head = "{\"crc32\":\"";
    static const std::string mid =
        strprintf("\",\"format\":\"%s\",\"payload\":", kStateFormat);
    static const std::string tail =
        strprintf(",\"version\":%d}", kStateVersion);
    constexpr size_t kCrcDigits = 8;

    out.outline.clear();
    if (!Json::strip(text, out.text, &out.outline, outlineDepth))
        return false;
    const std::string &s = out.text;
    size_t crcAt = head.size();
    size_t payloadAt = crcAt + kCrcDigits + mid.size();
    // A payload of at least one byte: the CRC of nothing is 0.
    if (s.size() <= payloadAt + tail.size() ||
        s.compare(0, head.size(), head) != 0 ||
        s.compare(crcAt + kCrcDigits, mid.size(), mid) != 0 ||
        s.compare(s.size() - tail.size(), tail.size(), tail) != 0)
        return false;
    uint32_t stored = 0;
    const char *digits = s.data() + crcAt;
    auto [ptr, ec] =
        std::from_chars(digits, digits + kCrcDigits, stored, 16);
    if (ec != std::errc() || ptr != digits + kCrcDigits)
        return false;
    out.payloadBegin = payloadAt;
    out.payloadEnd = s.size() - tail.size();
    return crc32(s.data() + payloadAt, out.payloadEnd - payloadAt) ==
        stored;
}

void
writeStateFile(const std::string &path, const Json &payload)
{
    Json envelope = Json::object();
    envelope.set("format", kStateFormat);
    envelope.set("version", kStateVersion);
    envelope.set("crc32", strprintf("%08x", crc32(payload.dump())));
    envelope.set("payload", payload);

    // Rotate the previous checkpoint to .bak, but only if it still
    // verifies: a corrupt main file must not clobber a good backup.
    std::string prev, why;
    if (readFile(path, prev) && verifyEnvelope(prev, nullptr, &why)) {
        std::string bak = stateBackupPath(path);
        if (fsOps().rename(path.c_str(), bak.c_str()) != 0)
            fatal("cannot rotate %s to %s: %s", path.c_str(),
                  bak.c_str(), std::strerror(errno));
    }
    atomicWriteFile(path, envelope.dump(2) + "\n");
}

StateLoad
loadStateFile(const std::string &path)
{
    StateLoad out;
    std::string text;
    std::string mainWhy;
    if (!readFile(path, text))
        mainWhy = "cannot read file";
    else if (verifyEnvelope(text, &out.payload, &mainWhy))
        return out;

    std::string bak = stateBackupPath(path);
    std::string bakText, bakWhy;
    if (!readFile(bak, bakText))
        bakWhy = "cannot read file";
    else if (verifyEnvelope(bakText, &out.payload, &bakWhy)) {
        out.usedBackup = true;
        out.warning = strprintf(
            "state file %s is unusable (%s); recovered the last "
            "good checkpoint from %s",
            path.c_str(), mainWhy.c_str(), bak.c_str());
        return out;
    }
    fatal("cannot load state: %s (%s); %s (%s)", path.c_str(),
          mainWhy.c_str(), bak.c_str(), bakWhy.c_str());
}

bool
stateFileExists(const std::string &path)
{
    return ::access(path.c_str(), F_OK) == 0 ||
        ::access(stateBackupPath(path).c_str(), F_OK) == 0;
}

} // namespace rigor

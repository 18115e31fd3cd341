/**
 * @file
 * Durable file I/O: atomic whole-file replacement (write to a
 * temporary, flush, fsync, rename) with explicit error propagation,
 * and a checksummed, versioned envelope for resume/checkpoint state.
 *
 * The harness' artifacts used to be written with an unchecked
 * std::ofstream at the end of a run: a full disk silently produced
 * truncated or empty files, and a crash mid-write destroyed the
 * previous good state. Every artifact and checkpoint now goes through
 * this layer, so on-disk state is always either the old complete file
 * or the new complete file, never a torn mixture, and every write
 * failure surfaces as a FatalError naming the path and the failing
 * operation.
 */

#ifndef RIGOR_SUPPORT_DURABLE_IO_HH
#define RIGOR_SUPPORT_DURABLE_IO_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <sys/types.h>

#include "support/json.hh"

namespace rigor {

/**
 * CRC-32 (IEEE 802.3 polynomial, as used by zip/png) of a buffer.
 * Where the CPU has carry-less multiply (x86-64 PCLMULQDQ with
 * SSE4.1, decided once), inputs of 64 bytes and more are folded 64
 * bytes a step and crc32SlicingBy8() finishes the last 15 or fewer;
 * elsewhere crc32SlicingBy8() does it all. Both give the same value.
 */
uint32_t crc32(const void *data, size_t len);

/**
 * The table kernel of crc32() alone (slicing-by-8): the whole of it
 * on CPUs without carry-less multiply. Equal to crc32() on every
 * input; tests drive it directly so each kernel is checked on the
 * same host.
 */
uint32_t crc32SlicingBy8(const void *data, size_t len);

/** CRC-32 of a string's bytes. */
uint32_t crc32(const std::string &s);

// --- filesystem-operation seam --------------------------------------

/**
 * The mutating filesystem operations every durable write goes
 * through. The default implementation forwards to the real syscalls;
 * tests and the `--inject io:*` fault framework install a wrapper
 * that makes writes fail short, report ENOSPC, tear renames, or kill
 * the process at an exact call index — so every crash-consistency
 * guarantee this layer makes can be checked at every call site
 * instead of trusted.
 *
 * Reads are deliberately outside the seam: all fault kinds model
 * write-side failures, and keeping loads direct means a recovery path
 * can never be starved by the very injector that created the damage.
 */
class FsOps
{
  public:
    virtual ~FsOps() = default;

    virtual int open(const char *path, int flags, mode_t mode);
    virtual ssize_t write(int fd, const void *buf, size_t n);
    virtual int fsync(int fd);
    virtual int close(int fd);
    virtual int rename(const char *from, const char *to);
    virtual int unlink(const char *path);
};

/** The active seam (the process-wide default unless replaced). */
FsOps &fsOps();

/**
 * Replace the process-wide FsOps (nullptr restores the default).
 * @return the previously installed override (nullptr if default).
 * Not thread-safe against concurrent durable writes; install before
 * work starts, as the CLI does.
 */
FsOps *setFsOps(FsOps *ops);

/**
 * Atomically replace `path` with `content`: the bytes are written to
 * `path.tmp`, flushed and fsync'd, then renamed over `path`. A reader
 * (or a crash) can never observe a partially-written file. The
 * containing directory is fsync'd best-effort after the rename so the
 * replacement itself survives power loss on POSIX filesystems.
 * @throws FatalError naming the path and failing step (open, write,
 * fsync, close or rename) — a full disk is a loud error, not an empty
 * file.
 */
void atomicWriteFile(const std::string &path,
                     const std::string &content);

/**
 * Read a whole file into `out`.
 * @return false if the file cannot be opened or read (out is then
 * unspecified); never throws.
 */
bool readFile(const std::string &path, std::string &out);

// --- checksummed state envelope -------------------------------------

/** Envelope format tag; rejects files that are not rigorbench state. */
inline constexpr const char *kStateFormat = "rigorbench-state";

/** Current envelope schema version. */
inline constexpr int kStateVersion = 1;

/** The backup a checkpoint write rotates the previous file to. */
std::string stateBackupPath(const std::string &path);

/**
 * Wrap `payload` in a `{format, version, crc32, payload}` envelope and
 * atomically write it to `path`. If `path` already holds a *valid*
 * envelope it is first rotated to `path.bak`, so the last good
 * checkpoint survives even a crash between the rotation and the
 * rename (the loader falls back to the backup). An invalid existing
 * file is never rotated — corruption must not clobber a good backup.
 * The CRC covers the compact dump of the payload, which is canonical
 * (object keys are sorted, doubles print round-trip exact).
 * @throws FatalError on any I/O failure.
 */
void writeStateFile(const std::string &path, const Json &payload);

/** Result of loading a checksummed state file. */
struct StateLoad
{
    /** The verified payload. */
    Json payload;
    /** True when `path` was unusable and `path.bak` was used. */
    bool usedBackup = false;
    /** Human-readable recovery note (non-empty iff usedBackup). */
    std::string warning;
};

/**
 * Load and verify a state envelope. A main file that is missing,
 * unparseable, truncated, checksum-mismatched or version-mismatched
 * triggers a fallback to `path.bak` (verified the same way).
 * @throws FatalError describing both failures when neither file is
 * usable.
 */
StateLoad loadStateFile(const std::string &path);

/**
 * Non-throwing verification of one envelope's raw text, for callers
 * (fsck, tests) that need to classify damage instead of recovering
 * from it. This is the tree path: parse the whole text, check the
 * envelope members, re-dump the payload and CRC the dump, so it
 * accepts any layout and key order. On success fills `payload` (when
 * non-null) and returns true; on any defect returns false with a
 * one-line diagnosis in `why`.
 */
bool verifyStateText(const std::string &text, Json *payload,
                     std::string *why);

/** An envelope verified from its bytes (verifyCanonicalState). */
struct CanonicalState
{
    /** The file's text without the whitespace outside strings. */
    std::string text;
    /** Json::strip's outline of `text`. */
    std::vector<Json::Span> outline;
    /** Where the payload sits in `text`. */
    size_t payloadBegin = 0, payloadEnd = 0;

    std::string_view
    payload() const
    {
        return std::string_view(text).substr(payloadBegin,
                                             payloadEnd - payloadBegin);
    }
};

/**
 * Verify an envelope from its bytes, building no tree. True when
 * `text`, stripped of whitespace outside strings, is exactly
 * `{"crc32":"<8 hex digits>","format":"rigorbench-state",
 * "payload":P,"version":1}` and CRC-32 of P equals the stored value:
 * P is then the canonical dump writeStateFile hashed, and parses to
 * the same payload as the whole text does. False only means "not
 * proven" (another layout, key order or number spelling, or damage):
 * the tree path, verifyStateText(), decides and words the verdict.
 * The two differ only on a CRC-32 collision, which the tree path
 * accepts too. `outlineDepth` is passed to Json::strip.
 */
bool verifyCanonicalState(const std::string &text, CanonicalState &out,
                          int outlineDepth);

/** True when `path` or its `.bak` exists (resume should be tried). */
bool stateFileExists(const std::string &path);

} // namespace rigor

#endif // RIGOR_SUPPORT_DURABLE_IO_HH

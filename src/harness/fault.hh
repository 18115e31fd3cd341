/**
 * @file
 * Deterministic fault injection with known ground truth.
 *
 * The same property that makes the noise model useful — parameters are
 * *injected*, so tests can assert that the methodology recovers them —
 * applies to failures. A FaultPlan describes which invocation attempts
 * of which workloads misbehave and how; the FaultInjector arms those
 * faults deterministically (optionally with a seeded per-attempt
 * probability), so tests can prove the harness detects, retries and
 * quarantines exactly as designed.
 *
 * Fault kinds mirror the pathologies a real benchmarking campaign
 * meets: a crash mid-run (Throw), silently wrong results
 * (CorruptChecksum), a hang (Stall, caught by the modelled-time
 * deadline), and a pathological noise regime (NoiseRamp, a
 * thermal-throttle-style linear slowdown the steady-state detector
 * must flag).
 *
 * A second family targets the durability stack instead of the
 * measurement: `io:*` faults arm on FsOps calls (support/durable_io)
 * rather than invocation attempts, making short writes, ENOSPC,
 * fsync failures, torn renames and process death at an exact call
 * index injectable from the same --inject flag — deterministic, so a
 * crash-point torture harness can enumerate every call site.
 */

#ifndef RIGOR_HARNESS_FAULT_HH
#define RIGOR_HARNESS_FAULT_HH

#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "support/durable_io.hh"

namespace rigor {
namespace harness {

/** What a fault does to the invocation attempt it arms. */
enum class FaultKind
{
    Throw,           ///< throw a VmError at invocation start
    CorruptChecksum, ///< flip bits in the recorded workload checksum
    Stall,           ///< scale modelled time (trips the deadline)
    NoiseRamp,       ///< linear per-iteration slowdown ramp
};

/** Short name of a fault kind ("throw", "checksum", ...). */
const char *faultKindName(FaultKind k);

/** One injection rule. */
struct FaultSpec
{
    FaultKind kind = FaultKind::Throw;
    /** Workload to target; empty matches every workload. */
    std::string workload;
    /** Invocation index to target; -1 matches every invocation. */
    int invocation = -1;
    /**
     * Number of attempts of a matching invocation that fire (attempts
     * 0..maxTriggers-1). 1 means "fail once, succeed on retry"; a
     * large value makes the invocation fail permanently.
     */
    int maxTriggers = 1;
    /** Per-attempt arming probability (seeded, deterministic). */
    double probability = 1.0;
    /**
     * Kind-specific magnitude; 0 selects the default:
     * Stall -> 1000 (x1000 modelled time), NoiseRamp -> 0.05
     * (each iteration 5% slower than the last). Unused by Throw and
     * CorruptChecksum.
     */
    double magnitude = 0.0;

    /** Magnitude with the kind default applied. */
    double effectiveMagnitude() const;
};

/** What an I/O fault does to the FsOps call it arms on. */
enum class IoFaultKind
{
    ShortWrite, ///< write() transfers at most `magnitude` bytes
    Enospc,     ///< the call fails with ENOSPC (disk full)
    TornRename, ///< rename() leaves a truncated destination
    FsyncFail,  ///< fsync() fails with EIO
    CrashAt,    ///< _exit() instead of performing call number `at`
};

/** Exit code of a process killed by an `io:crash-at=N` fault. */
inline constexpr int kExitCrashInjected = 6;

/** One I/O injection rule, armed on FsOps calls. */
struct IoFaultSpec
{
    IoFaultKind kind = IoFaultKind::Enospc;
    /**
     * 1-based index among *matching* calls to fire at (required for
     * crash-at; -1 for the other kinds means "the first maxTriggers
     * matching calls").
     */
    int at = -1;
    /** Matching calls that fire when `at` is unset. */
    int maxTriggers = 1;
    /** Per-call arming probability (seeded, deterministic). */
    double probability = 1.0;
    /**
     * Operation filter: open|write|fsync|close|rename|unlink. Empty
     * selects the kind's natural target (short-write/enospc -> write,
     * fsync-fail -> fsync, torn-rename -> rename, crash-at -> every
     * operation).
     */
    std::string op;
    /** Substring the operation's path must contain ("" = any). */
    std::string pathSubstr;
    /** ShortWrite: max bytes per write() (0 selects the default 1). */
    double magnitude = 0.0;
};

/** An ordered list of injection rules. */
struct FaultPlan
{
    std::vector<FaultSpec> faults;
    /** I/O rules (`io:*` specs), armed on FsOps calls instead. */
    std::vector<IoFaultSpec> ioFaults;

    bool empty() const { return faults.empty() && ioFaults.empty(); }

    /**
     * Parse one CLI fault spec of the form
     *
     *   kind[:key=value]...
     *
     * where kind is throw|checksum|stall|ramp and keys are
     * wl=NAME, inv=N, n=COUNT (maxTriggers), p=PROB, mag=X.
     * Examples: "throw:wl=sieve:inv=0", "checksum:inv=1",
     * "stall:mag=500", "ramp:p=0.5".
     * @throws FatalError on malformed specs.
     */
    static FaultSpec parseSpec(const std::string &text);

    /**
     * Parse one `io:` spec of the form
     *
     *   io:subkind[:key=value]...
     *
     * where subkind is short-write|enospc|torn-rename|fsync-fail|
     * crash-at=N and keys are at=N (1-based matching-call index),
     * n=COUNT, p=PROB, op=NAME, path=SUBSTR, mag=X.
     * Examples: "io:crash-at=7", "io:enospc:at=3",
     * "io:short-write:n=1000:mag=1", "io:torn-rename:path=entry-".
     * @throws FatalError on malformed specs.
     */
    static IoFaultSpec parseIoSpec(const std::string &text);

    /** Parse and append one spec (either family). */
    void add(const std::string &text);
};

/**
 * Decides, statelessly and deterministically, whether a fault arms for
 * a given (workload, invocation, attempt). Stateless queries mean the
 * injector can be shared by concurrent runs and replayed exactly.
 */
class FaultInjector
{
  public:
    FaultInjector(FaultPlan plan, uint64_t seed);

    /**
     * First spec armed for this attempt, or nullptr. Probability draws
     * are a pure function of (seed, workload, invocation, attempt).
     */
    const FaultSpec *query(const std::string &workload, int invocation,
                           int attempt) const;

    /**
     * Multiplicative modelled-time factor a Stall/NoiseRamp fault
     * applies to iteration `iteration` (1.0 for other kinds).
     */
    static double timeFactor(const FaultSpec &fault, int iteration);

    const FaultPlan &plan() const { return plan_; }
    uint64_t seed() const { return seed_; }

  private:
    FaultPlan plan_;
    uint64_t seed_;
};

/**
 * An FsOps wrapper that injects the `io:*` fault kinds. Every call is
 * counted in program order; a spec fires when its operation and path
 * filters match, its `at` index (1-based among matching calls) or
 * trigger budget allows, and its seeded probability draw passes — a
 * pure function of (seed, spec, matching-call index), so the same
 * command line fails the same call every run.
 *
 * CrashAt calls _exit(kExitCrashInjected) *instead of* performing the
 * matching call, which models power loss at that exact point: nothing
 * later in the process runs, no buffers flush, no destructors fire.
 * Install with setFsOps() before durable work starts.
 */
class FaultyFsOps : public FsOps
{
  public:
    explicit FaultyFsOps(std::vector<IoFaultSpec> faults,
                         uint64_t seed = 0);

    int open(const char *path, int flags, mode_t mode) override;
    ssize_t write(int fd, const void *buf, size_t n) override;
    int fsync(int fd) override;
    int close(int fd) override;
    int rename(const char *from, const char *to) override;
    int unlink(const char *path) override;

  private:
    /** First spec armed for this call, after counting it. */
    const IoFaultSpec *arm(const char *op, const std::string &path);

    std::vector<IoFaultSpec> faults_;
    uint64_t seed_;
    std::mutex mu_;
    /** Per-spec count of matching calls seen / faults fired. */
    std::vector<int> matched_;
    std::vector<int> fired_;
    /** fd -> path, so path filters apply to fd-based operations. */
    std::map<int, std::string> fdPaths_;
};

} // namespace harness
} // namespace rigor

#endif // RIGOR_HARNESS_FAULT_HH

#include "harness/fault.hh"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "support/logging.hh"
#include "support/rng.hh"
#include "support/str.hh"

namespace rigor {
namespace harness {

namespace {

/** FNV-1a, so probability draws depend on the workload name. */
uint64_t
hashString(const std::string &s)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

double
parseNumber(const std::string &key, const std::string &value)
{
    char *end = nullptr;
    double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0')
        fatal("fault spec: %s expects a number, got '%s'", key.c_str(),
              value.c_str());
    return v;
}

} // namespace

const char *
faultKindName(FaultKind k)
{
    switch (k) {
      case FaultKind::Throw: return "throw";
      case FaultKind::CorruptChecksum: return "checksum";
      case FaultKind::Stall: return "stall";
      case FaultKind::NoiseRamp: return "ramp";
    }
    return "?";
}

double
FaultSpec::effectiveMagnitude() const
{
    if (magnitude > 0.0)
        return magnitude;
    switch (kind) {
      case FaultKind::Stall: return 1000.0;
      case FaultKind::NoiseRamp: return 0.05;
      default: return 0.0;
    }
}

FaultSpec
FaultPlan::parseSpec(const std::string &text)
{
    auto parts = split(text, ':');
    if (parts.empty() || parts[0].empty())
        fatal("fault spec: empty specification");

    FaultSpec spec;
    const std::string &kind = parts[0];
    if (kind == "throw")
        spec.kind = FaultKind::Throw;
    else if (kind == "checksum")
        spec.kind = FaultKind::CorruptChecksum;
    else if (kind == "stall")
        spec.kind = FaultKind::Stall;
    else if (kind == "ramp")
        spec.kind = FaultKind::NoiseRamp;
    else
        fatal("fault spec: unknown kind '%s' (expected throw, "
              "checksum, stall or ramp)",
              kind.c_str());

    for (size_t i = 1; i < parts.size(); ++i) {
        auto eq = parts[i].find('=');
        if (eq == std::string::npos)
            fatal("fault spec: expected key=value, got '%s'",
                  parts[i].c_str());
        std::string key = parts[i].substr(0, eq);
        std::string value = parts[i].substr(eq + 1);
        if (key == "wl") {
            spec.workload = value;
        } else if (key == "inv") {
            spec.invocation =
                static_cast<int>(parseNumber(key, value));
            if (spec.invocation < 0)
                fatal("fault spec: inv must be >= 0");
        } else if (key == "n") {
            spec.maxTriggers =
                static_cast<int>(parseNumber(key, value));
            if (spec.maxTriggers < 1)
                fatal("fault spec: n must be >= 1");
        } else if (key == "p") {
            spec.probability = parseNumber(key, value);
            if (spec.probability < 0.0 || spec.probability > 1.0)
                fatal("fault spec: p must be in [0, 1]");
        } else if (key == "mag") {
            spec.magnitude = parseNumber(key, value);
            if (spec.magnitude <= 0.0)
                fatal("fault spec: mag must be positive");
        } else {
            fatal("fault spec: unknown key '%s' (expected wl, inv, "
                  "n, p or mag)",
                  key.c_str());
        }
    }
    return spec;
}

namespace {

/** Operations an op= filter may name. */
bool
validOpName(const std::string &op)
{
    return op == "open" || op == "write" || op == "fsync" ||
        op == "close" || op == "rename" || op == "unlink";
}

/** The operation a kind arms on when no op= filter is given. */
const char *
defaultOpFor(IoFaultKind kind)
{
    switch (kind) {
      case IoFaultKind::ShortWrite: return "write";
      case IoFaultKind::Enospc: return "write";
      case IoFaultKind::FsyncFail: return "fsync";
      case IoFaultKind::TornRename: return "rename";
      case IoFaultKind::CrashAt: return ""; // every operation
    }
    return "";
}

} // namespace

IoFaultSpec
FaultPlan::parseIoSpec(const std::string &text)
{
    auto parts = split(text, ':');
    if (parts.size() < 2 || parts[0] != "io" || parts[1].empty())
        fatal("fault spec: io faults look like io:subkind[:key=val]"
              ", got '%s'",
              text.c_str());

    IoFaultSpec spec;
    const std::string &sub = parts[1];
    if (sub == "short-write") {
        spec.kind = IoFaultKind::ShortWrite;
    } else if (sub == "enospc") {
        spec.kind = IoFaultKind::Enospc;
    } else if (sub == "torn-rename") {
        spec.kind = IoFaultKind::TornRename;
    } else if (sub == "fsync-fail") {
        spec.kind = IoFaultKind::FsyncFail;
    } else if (startsWith(sub, "crash-at=")) {
        spec.kind = IoFaultKind::CrashAt;
        spec.at = static_cast<int>(
            parseNumber("crash-at", sub.substr(9)));
        if (spec.at < 1)
            fatal("fault spec: crash-at expects a 1-based call "
                  "index, got %d",
                  spec.at);
    } else {
        fatal("fault spec: unknown io fault '%s' (expected "
              "short-write, enospc, torn-rename, fsync-fail or "
              "crash-at=N)",
              sub.c_str());
    }

    for (size_t i = 2; i < parts.size(); ++i) {
        auto eq = parts[i].find('=');
        if (eq == std::string::npos)
            fatal("fault spec: expected key=value, got '%s'",
                  parts[i].c_str());
        std::string key = parts[i].substr(0, eq);
        std::string value = parts[i].substr(eq + 1);
        if (key == "at") {
            spec.at = static_cast<int>(parseNumber(key, value));
            if (spec.at < 1)
                fatal("fault spec: at must be >= 1");
        } else if (key == "n") {
            spec.maxTriggers =
                static_cast<int>(parseNumber(key, value));
            if (spec.maxTriggers < 1)
                fatal("fault spec: n must be >= 1");
        } else if (key == "p") {
            spec.probability = parseNumber(key, value);
            if (spec.probability < 0.0 || spec.probability > 1.0)
                fatal("fault spec: p must be in [0, 1]");
        } else if (key == "op") {
            if (!validOpName(value))
                fatal("fault spec: op must be one of open, write, "
                      "fsync, close, rename or unlink, got '%s'",
                      value.c_str());
            spec.op = value;
        } else if (key == "path") {
            spec.pathSubstr = value;
        } else if (key == "mag") {
            spec.magnitude = parseNumber(key, value);
            if (spec.magnitude <= 0.0)
                fatal("fault spec: mag must be positive");
        } else {
            fatal("fault spec: unknown io key '%s' (expected at, n, "
                  "p, op, path or mag)",
                  key.c_str());
        }
    }
    // A torn rename must tear renames and a short write must shorten
    // writes; redirecting them elsewhere would silently do nothing.
    if (spec.kind == IoFaultKind::TornRename && !spec.op.empty() &&
        spec.op != "rename")
        fatal("fault spec: torn-rename only applies to op=rename");
    if (spec.kind == IoFaultKind::ShortWrite && !spec.op.empty() &&
        spec.op != "write")
        fatal("fault spec: short-write only applies to op=write");
    if (spec.kind == IoFaultKind::FsyncFail && !spec.op.empty() &&
        spec.op != "fsync")
        fatal("fault spec: fsync-fail only applies to op=fsync");
    return spec;
}

void
FaultPlan::add(const std::string &text)
{
    if (startsWith(text, "io:"))
        ioFaults.push_back(parseIoSpec(text));
    else
        faults.push_back(parseSpec(text));
}

FaultInjector::FaultInjector(FaultPlan plan, uint64_t seed)
    : plan_(std::move(plan)), seed_(seed)
{}

const FaultSpec *
FaultInjector::query(const std::string &workload, int invocation,
                     int attempt) const
{
    for (const auto &spec : plan_.faults) {
        if (!spec.workload.empty() && spec.workload != workload)
            continue;
        if (spec.invocation >= 0 && spec.invocation != invocation)
            continue;
        if (attempt >= spec.maxTriggers)
            continue;
        if (spec.probability < 1.0) {
            // Stateless seeded draw: the same (seed, workload,
            // invocation, attempt) always decides the same way.
            SplitMix64 sm(seed_ ^ hashString(workload) ^
                          (static_cast<uint64_t>(invocation) *
                           0x9e3779b97f4a7c15ULL) ^
                          (static_cast<uint64_t>(attempt) + 1));
            double draw = static_cast<double>(sm.next() >> 11) *
                0x1.0p-53;
            if (draw >= spec.probability)
                continue;
        }
        return &spec;
    }
    return nullptr;
}

double
FaultInjector::timeFactor(const FaultSpec &fault, int iteration)
{
    switch (fault.kind) {
      case FaultKind::Stall:
        return fault.effectiveMagnitude();
      case FaultKind::NoiseRamp:
        return 1.0 + fault.effectiveMagnitude() * iteration;
      default:
        return 1.0;
    }
}

// --- FaultyFsOps -----------------------------------------------------

FaultyFsOps::FaultyFsOps(std::vector<IoFaultSpec> faults,
                         uint64_t seed)
    : faults_(std::move(faults)), seed_(seed),
      matched_(faults_.size(), 0), fired_(faults_.size(), 0)
{}

const IoFaultSpec *
FaultyFsOps::arm(const char *op, const std::string &path)
{
    std::lock_guard<std::mutex> guard(mu_);
    for (size_t i = 0; i < faults_.size(); ++i) {
        IoFaultSpec &spec = faults_[i];
        const std::string &want =
            spec.op.empty() ? defaultOpFor(spec.kind) : spec.op;
        if (!want.empty() && want != op)
            continue;
        if (!spec.pathSubstr.empty() &&
            path.find(spec.pathSubstr) == std::string::npos)
            continue;
        int index = ++matched_[i];
        if (spec.kind == IoFaultKind::CrashAt) {
            if (index != spec.at)
                continue;
            // Power loss at this exact call: no flushes, no
            // destructors, no later writes. The distinctive exit
            // code lets a torture driver tell "crashed as told"
            // from every other way a process can die.
            ::_exit(kExitCrashInjected);
        }
        if (spec.at >= 0 && index != spec.at)
            continue;
        if (spec.at < 0 && fired_[i] >= spec.maxTriggers)
            continue;
        if (spec.probability < 1.0) {
            // Stateless seeded draw, as for workload faults: the
            // same (seed, spec, matching-call index) always decides
            // the same way.
            SplitMix64 sm(seed_ ^ (i * 0x9e3779b97f4a7c15ULL) ^
                          (static_cast<uint64_t>(index) + 1));
            double draw = static_cast<double>(sm.next() >> 11) *
                0x1.0p-53;
            if (draw >= spec.probability)
                continue;
        }
        ++fired_[i];
        return &spec;
    }
    return nullptr;
}

int
FaultyFsOps::open(const char *path, int flags, mode_t mode)
{
    const IoFaultSpec *spec = arm("open", path);
    if (spec && spec->kind == IoFaultKind::Enospc) {
        errno = ENOSPC;
        return -1;
    }
    int fd = FsOps::open(path, flags, mode);
    if (fd >= 0) {
        std::lock_guard<std::mutex> guard(mu_);
        fdPaths_[fd] = path;
    }
    return fd;
}

ssize_t
FaultyFsOps::write(int fd, const void *buf, size_t n)
{
    std::string path;
    {
        std::lock_guard<std::mutex> guard(mu_);
        auto it = fdPaths_.find(fd);
        if (it != fdPaths_.end())
            path = it->second;
    }
    const IoFaultSpec *spec = arm("write", path);
    if (spec) {
        if (spec->kind == IoFaultKind::Enospc) {
            errno = ENOSPC;
            return -1;
        }
        if (spec->kind == IoFaultKind::ShortWrite) {
            size_t cap = static_cast<size_t>(std::max(
                1.0, spec->magnitude > 0.0 ? spec->magnitude : 1.0));
            return FsOps::write(fd, buf, std::min(n, cap));
        }
    }
    return FsOps::write(fd, buf, n);
}

int
FaultyFsOps::fsync(int fd)
{
    std::string path;
    {
        std::lock_guard<std::mutex> guard(mu_);
        auto it = fdPaths_.find(fd);
        if (it != fdPaths_.end())
            path = it->second;
    }
    const IoFaultSpec *spec = arm("fsync", path);
    if (spec) {
        if (spec->kind == IoFaultKind::FsyncFail) {
            errno = EIO;
            return -1;
        }
        if (spec->kind == IoFaultKind::Enospc) {
            errno = ENOSPC;
            return -1;
        }
    }
    return FsOps::fsync(fd);
}

int
FaultyFsOps::close(int fd)
{
    std::string path;
    {
        std::lock_guard<std::mutex> guard(mu_);
        auto it = fdPaths_.find(fd);
        if (it != fdPaths_.end()) {
            path = it->second;
            fdPaths_.erase(it);
        }
    }
    const IoFaultSpec *spec = arm("close", path);
    if (spec && spec->kind == IoFaultKind::Enospc) {
        // A deferred-allocation filesystem can surface ENOSPC at
        // close; the fd is still closed underneath, as the kernel
        // would.
        (void)FsOps::close(fd);
        errno = ENOSPC;
        return -1;
    }
    return FsOps::close(fd);
}

int
FaultyFsOps::rename(const char *from, const char *to)
{
    const IoFaultSpec *spec = arm("rename", from);
    if (spec && spec->kind == IoFaultKind::TornRename) {
        // Model a non-atomic replacement torn by a crash: the
        // destination ends up holding a truncated copy of the
        // source and the source is gone, yet the caller sees
        // success. Recovery must come from the .bak / fsck path.
        std::string content;
        std::ifstream in(from, std::ios::binary);
        if (in) {
            std::ostringstream buf;
            buf << in.rdbuf();
            content = buf.str();
        }
        content.resize(content.size() / 2);
        int fd = FsOps::open(to, O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd >= 0) {
            (void)FsOps::write(fd, content.data(), content.size());
            (void)FsOps::close(fd);
        }
        (void)FsOps::unlink(from);
        return 0;
    }
    return FsOps::rename(from, to);
}

int
FaultyFsOps::unlink(const char *path)
{
    (void)arm("unlink", path);
    return FsOps::unlink(path);
}

} // namespace harness
} // namespace rigor

/**
 * @file
 * Minimal Unix-domain stream sockets for the serve daemon and its
 * clients: bind/listen with stale-socket recovery, connect, and a
 * buffered newline-delimited channel (the NDJSON protocol's framing).
 *
 * Deliberately tiny: no readiness abstraction, no timeouts beyond
 * what callers poll() themselves — the daemon owns its event loop and
 * clients are strictly request/response.
 */

#ifndef RIGOR_SUPPORT_UNIX_SOCKET_HH
#define RIGOR_SUPPORT_UNIX_SOCKET_HH

#include <cstdint>
#include <string>

namespace rigor {

/**
 * Bind and listen on a Unix-domain stream socket at `path`. A stale
 * socket file (left by a crashed daemon — nothing accepts on it) is
 * detected by a probe connect and replaced; a *live* one is a loud
 * error, not a takeover.
 * @return the listening fd.
 * @throws FatalError naming the path and failing step.
 */
int listenUnixSocket(const std::string &path);

/**
 * Connect to the daemon at `path`.
 * @return the connected fd, or -1 with errno set (callers map this
 * to the "daemon unavailable" exit code instead of aborting).
 */
int connectUnixSocket(const std::string &path);

/**
 * A buffered line channel over a connected socket. Owns the fd.
 * Writes never raise SIGPIPE (a vanished peer is a false return, not
 * a dead process).
 */
class LineChannel
{
  public:
    /**
     * @param max_line longest line readLine accepts, newline
     * excluded; the buffer never grows much beyond it.
     */
    explicit LineChannel(int fd, size_t max_line = SIZE_MAX)
        : fd_(fd), maxLine_(max_line)
    {}
    ~LineChannel();

    LineChannel(const LineChannel &) = delete;
    LineChannel &operator=(const LineChannel &) = delete;

    /**
     * Read the next newline-terminated line (newline stripped).
     * @return false on EOF or error, or once a line exceeds the
     * maximum length (lineTooLong()); either way the connection is
     * done.
     */
    bool readLine(std::string &line);

    /** True once readLine met a line longer than the maximum. */
    bool lineTooLong() const { return tooLong_; }

    /** Write `line` plus a newline. @return false when the peer is gone. */
    bool writeLine(const std::string &line);

    int fd() const { return fd_; }

    /** Close early (idempotent; the destructor also closes). */
    void close();

  private:
    int fd_;
    size_t maxLine_;
    bool tooLong_ = false;
    std::string buf_;
};

} // namespace rigor

#endif // RIGOR_SUPPORT_UNIX_SOCKET_HH

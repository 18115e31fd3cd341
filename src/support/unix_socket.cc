#include "support/unix_socket.hh"

#include <cerrno>
#include <cstring>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "support/logging.hh"

namespace rigor {

namespace {

/** Fill a sockaddr_un, rejecting paths that do not fit. */
sockaddr_un
unixAddr(const std::string &path)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.empty())
        fatal("socket path must not be empty");
    if (path.size() >= sizeof(addr.sun_path))
        fatal("socket path too long (%zu bytes; the OS limit is "
              "%zu): %s",
              path.size(), sizeof(addr.sun_path) - 1, path.c_str());
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    return addr;
}

int
newSocket()
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        fatal("socket(AF_UNIX): %s", std::strerror(errno));
    return fd;
}

} // namespace

int
listenUnixSocket(const std::string &path)
{
    sockaddr_un addr = unixAddr(path);
    int fd = newSocket();
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        int bindErrno = errno;
        ::close(fd);
        if (bindErrno != EADDRINUSE)
            fatal("bind(%s): %s", path.c_str(),
                  std::strerror(bindErrno));
        // The file exists. A live daemon accepts the probe connect;
        // a stale socket (crashed daemon) refuses it and is safe to
        // replace.
        int probe = connectUnixSocket(path);
        if (probe >= 0) {
            ::close(probe);
            fatal("another daemon is already serving on %s",
                  path.c_str());
        }
        if (::unlink(path.c_str()) != 0)
            fatal("cannot remove stale socket %s: %s", path.c_str(),
                  std::strerror(errno));
        fd = newSocket();
        if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            int e = errno;
            ::close(fd);
            fatal("bind(%s): %s", path.c_str(), std::strerror(e));
        }
    }
    if (::listen(fd, 64) != 0) {
        int e = errno;
        ::close(fd);
        ::unlink(path.c_str());
        fatal("listen(%s): %s", path.c_str(), std::strerror(e));
    }
    return fd;
}

int
connectUnixSocket(const std::string &path)
{
    sockaddr_un addr = unixAddr(path);
    int fd = newSocket();
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        int e = errno;
        ::close(fd);
        errno = e;
        return -1;
    }
    return fd;
}

LineChannel::~LineChannel() { close(); }

void
LineChannel::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
LineChannel::readLine(std::string &line)
{
    for (;;) {
        size_t nl = buf_.find('\n');
        size_t len = nl == std::string::npos ? buf_.size() : nl;
        if (len > maxLine_) {
            // Stop reading: the rest of the line is never buffered.
            tooLong_ = true;
            buf_.clear();
            return false;
        }
        if (nl != std::string::npos) {
            line.assign(buf_, 0, nl);
            buf_.erase(0, nl + 1);
            return true;
        }
        if (tooLong_ || fd_ < 0)
            return false;
        char chunk[4096];
        ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (n == 0)
            return false;  // EOF; a partial trailing line is dropped
        buf_.append(chunk, static_cast<size_t>(n));
    }
}

bool
LineChannel::writeLine(const std::string &line)
{
    if (fd_ < 0)
        return false;
    std::string out = line;
    out.push_back('\n');
    size_t off = 0;
    while (off < out.size()) {
        ssize_t n = ::send(fd_, out.data() + off, out.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<size_t>(n);
    }
    return true;
}

} // namespace rigor

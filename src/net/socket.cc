#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>

namespace scube {
namespace net {

namespace {

std::string Errno(const std::string& what) {
  return what + ": " + std::strerror(errno);
}

}  // namespace

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Result<size_t> Socket::Read(char* buf, size_t n) {
  if (!valid()) return Status::IoError("read on closed socket");
  while (true) {
    ssize_t got = ::recv(fd_, buf, n, 0);
    if (got >= 0) return static_cast<size_t>(got);
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // The SO_RCVTIMEO expiry, distinguishable from hard I/O errors.
      return Status::DeadlineExceeded("receive timed out");
    }
    return Status::IoError(Errno("recv"));
  }
}

Status Socket::WriteAll(std::string_view data) {
  if (!valid()) return Status::IoError("write on closed socket");
  size_t sent = 0;
  while (sent < data.size()) {
    // MSG_NOSIGNAL: a peer that closed mid-response yields EPIPE, not a
    // process-killing SIGPIPE.
    ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(Errno("send"));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

IoResult Socket::ReadNonBlocking(char* buf, size_t n) {
  IoResult result;
  if (!valid()) {
    result.status = Status::IoError("read on closed socket");
    return result;
  }
  while (true) {
    ssize_t got = ::recv(fd_, buf, n, 0);
    if (got > 0) {
      result.outcome = IoOutcome::kReady;
      result.bytes = static_cast<size_t>(got);
      return result;
    }
    if (got == 0) {
      result.outcome = IoOutcome::kEof;
      return result;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      result.outcome = IoOutcome::kWouldBlock;
      return result;
    }
    result.status = Status::IoError(Errno("recv"));
    return result;
  }
}

IoResult Socket::WriteNonBlocking(std::string_view data) {
  IoResult result;
  if (!valid()) {
    result.status = Status::IoError("write on closed socket");
    return result;
  }
  while (true) {
    ssize_t n = ::send(fd_, data.data(), data.size(), MSG_NOSIGNAL);
    if (n >= 0) {
      result.outcome = IoOutcome::kReady;
      result.bytes = static_cast<size_t>(n);
      return result;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      result.outcome = IoOutcome::kWouldBlock;
      return result;
    }
    result.status = Status::IoError(Errno("send"));
    return result;
  }
}

namespace {

Status SetFdNonBlocking(int fd, bool enabled, const char* what) {
  if (fd < 0) {
    return Status::IoError(std::string(what) + " on closed socket");
  }
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return Status::IoError(Errno("fcntl(F_GETFL)"));
  int want = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (want != flags && ::fcntl(fd, F_SETFL, want) < 0) {
    return Status::IoError(Errno("fcntl(F_SETFL)"));
  }
  return Status::OK();
}

}  // namespace

Status Socket::SetNonBlocking(bool enabled) {
  return SetFdNonBlocking(fd_, enabled, "nonblocking");
}

Status Socket::SetRecvTimeout(double seconds) {
  if (!valid()) return Status::IoError("timeout on closed socket");
  struct timeval tv;
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>(
      std::lround((seconds - static_cast<double>(tv.tv_sec)) * 1e6));
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return Status::IoError(Errno("setsockopt(SO_RCVTIMEO)"));
  }
  return Status::OK();
}

Status Socket::SetNoDelay() {
  if (!valid()) return Status::IoError("nodelay on closed socket");
  int one = 1;
  if (::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one)) != 0) {
    return Status::IoError(Errno("setsockopt(TCP_NODELAY)"));
  }
  return Status::OK();
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

ListenSocket::ListenSocket(ListenSocket&& other) noexcept
    : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
  other.port_ = 0;
}

ListenSocket& ListenSocket::operator=(ListenSocket&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
    other.port_ = 0;
  }
  return *this;
}

Result<ListenSocket> ListenSocket::Bind(uint16_t port, bool loopback_only,
                                        int backlog) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError(Errno("socket"));

  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  struct sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(loopback_only ? INADDR_LOOPBACK : INADDR_ANY);
  if (::bind(fd, reinterpret_cast<struct sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status status = Status::IoError(
        Errno("bind to port " + std::to_string(port)));
    ::close(fd);
    return status;
  }
  if (::listen(fd, backlog) != 0) {
    Status status = Status::IoError(Errno("listen"));
    ::close(fd);
    return status;
  }

  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<struct sockaddr*>(&addr), &len) !=
      0) {
    Status status = Status::IoError(Errno("getsockname"));
    ::close(fd);
    return status;
  }

  ListenSocket out;
  out.fd_ = fd;
  out.port_ = ntohs(addr.sin_port);
  return out;
}

IoOutcome ListenSocket::TryAccept(Socket* out, Status* error) {
  if (!valid()) {
    *error = Status::IoError("accept on closed listener");
    return IoOutcome::kError;
  }
  while (true) {
    int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) {
      *out = Socket(fd);
      return IoOutcome::kReady;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK ||
        errno == ECONNABORTED) {
      // ECONNABORTED: the peer gave up while queued — nothing to hand
      // out now; a level-triggered poll re-reports any remaining backlog.
      return IoOutcome::kWouldBlock;
    }
    *error = Status::IoError(Errno("accept"));
    return IoOutcome::kError;
  }
}

Status ListenSocket::SetNonBlocking(bool enabled) {
  return SetFdNonBlocking(fd_, enabled, "nonblocking");
}

void ListenSocket::Close() {
  if (fd_ >= 0) {
    ::shutdown(fd_, SHUT_RDWR);
    ::close(fd_);
    fd_ = -1;
  }
}

Result<Socket> Connect(const std::string& host, uint16_t port) {
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* res = nullptr;
  int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                         &res);
  if (rc != 0) {
    return Status::IoError("getaddrinfo(" + host + "): " + gai_strerror(rc));
  }

  Status last = Status::IoError("no addresses for " + host);
  for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      last = Status::IoError(Errno("socket"));
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      ::freeaddrinfo(res);
      return Socket(fd);
    }
    last = Status::IoError(Errno("connect to " + host + ":" +
                                 std::to_string(port)));
    ::close(fd);
  }
  ::freeaddrinfo(res);
  return last;
}

namespace {

/// One non-blocking connect attempt to a resolved address, polled up to
/// `timeout_ms`. Returns the connected fd, or -1 with `*error` set.
int ConnectOneWithTimeout(struct addrinfo* ai, int timeout_ms,
                          Status* error) {
  int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
  if (fd < 0) {
    *error = Status::IoError(Errno("socket"));
    return -1;
  }
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    *error = Status::IoError(Errno("fcntl"));
    ::close(fd);
    return -1;
  }
  int rc = ::connect(fd, ai->ai_addr, ai->ai_addrlen);
  if (rc != 0 && errno != EINPROGRESS) {
    *error = Status::IoError(Errno("connect"));
    ::close(fd);
    return -1;
  }
  if (rc != 0) {
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLOUT;
    pfd.revents = 0;
    do {
      rc = ::poll(&pfd, 1, timeout_ms);
    } while (rc < 0 && errno == EINTR);
    if (rc == 0) {
      *error = Status::DeadlineExceeded("connect timed out");
      ::close(fd);
      return -1;
    }
    if (rc < 0) {
      *error = Status::IoError(Errno("poll"));
      ::close(fd);
      return -1;
    }
    int soerr = 0;
    socklen_t len = sizeof(soerr);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &soerr, &len) < 0 ||
        soerr != 0) {
      errno = soerr != 0 ? soerr : errno;
      *error = Status::IoError(Errno("connect"));
      ::close(fd);
      return -1;
    }
  }
  // Back to blocking: Read/WriteAll expect it (read timeouts come from
  // SetRecvTimeout, not O_NONBLOCK).
  if (::fcntl(fd, F_SETFL, flags) < 0) {
    *error = Status::IoError(Errno("fcntl"));
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

Result<Socket> ConnectWithTimeout(const std::string& host, uint16_t port,
                                  double timeout_s) {
  if (timeout_s <= 0) return Connect(host, port);
  struct addrinfo hints;
  std::memset(&hints, 0, sizeof(hints));
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  struct addrinfo* res = nullptr;
  int rc = ::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints,
                         &res);
  if (rc != 0) {
    return Status::IoError("getaddrinfo(" + host + "): " + gai_strerror(rc));
  }
  const int timeout_ms =
      static_cast<int>(std::lround(std::max(1.0, timeout_s * 1000.0)));
  Status last = Status::IoError("no addresses for " + host);
  for (struct addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    int fd = ConnectOneWithTimeout(ai, timeout_ms, &last);
    if (fd >= 0) {
      ::freeaddrinfo(res);
      return Socket(fd);
    }
  }
  ::freeaddrinfo(res);
  if (!last.ok() && last.code() != StatusCode::kDeadlineExceeded) {
    last = Status::IoError("connect to " + host + ":" +
                           std::to_string(port) + ": " + last.message());
  }
  return last;
}

}  // namespace net
}  // namespace scube

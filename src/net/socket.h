// Portable TCP sockets for the scubed serving front-end.
//
// Thin RAII wrappers over POSIX sockets: a connected Socket (read/write),
// a ListenSocket (bind/listen/accept, port 0 = kernel-assigned), and a
// loopback Connect() for clients, benches and tests. The client calls
// are blocking, with optional receive timeouts so a stuck peer cannot
// pin a caller forever. The server side (the reactor) switches fds into
// non-blocking mode (SetNonBlocking) and drives them through the
// single-attempt ReadNonBlocking / WriteNonBlocking / TryAccept calls,
// whose IoResult distinguishes would-block from EOF and hard errors.

#ifndef SCUBE_NET_SOCKET_H_
#define SCUBE_NET_SOCKET_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace scube {
namespace net {

/// Outcome of one non-blocking I/O attempt.
enum class IoOutcome {
  kReady,       ///< progress made: IoResult::bytes transferred
  kWouldBlock,  ///< no progress now — wait for readiness and retry
  kEof,         ///< orderly peer shutdown (reads only)
  kError,       ///< hard failure: IoResult::status carries the errno
};

/// \brief Result of one ReadNonBlocking / WriteNonBlocking attempt.
/// Partial writes are normal (kReady with bytes < requested).
struct IoResult {
  IoOutcome outcome = IoOutcome::kError;
  size_t bytes = 0;
  Status status;  ///< non-OK only when outcome == kError
};

/// \brief A connected TCP socket (RAII over the fd). Move-only.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Reads up to `n` bytes; 0 = orderly peer shutdown. Retries EINTR.
  /// DeadlineExceeded on a receive timeout (SetRecvTimeout), IoError on
  /// any other failure.
  Result<size_t> Read(char* buf, size_t n);

  /// Writes all of `data`, retrying partial writes and EINTR.
  Status WriteAll(std::string_view data);

  /// One read attempt that never blocks once the fd is in non-blocking
  /// mode: kReady (bytes > 0), kWouldBlock, kEof, or kError.
  IoResult ReadNonBlocking(char* buf, size_t n);

  /// One write attempt; kReady reports how many bytes the kernel took
  /// (possibly fewer than data.size()), kWouldBlock a full send buffer.
  IoResult WriteNonBlocking(std::string_view data);

  /// Switches the fd between blocking and non-blocking mode.
  Status SetNonBlocking(bool enabled);

  /// Bounds every subsequent Read to `seconds` (0 = no timeout).
  Status SetRecvTimeout(double seconds);

  /// Disables Nagle's algorithm (small request/response round trips).
  Status SetNoDelay();

  /// Closes the fd (idempotent).
  void Close();

 private:
  int fd_ = -1;
};

/// \brief A listening TCP socket bound to 127.0.0.1 or all interfaces.
class ListenSocket {
 public:
  ListenSocket() = default;
  ~ListenSocket() { Close(); }

  ListenSocket(ListenSocket&& other) noexcept;
  ListenSocket& operator=(ListenSocket&& other) noexcept;
  ListenSocket(const ListenSocket&) = delete;
  ListenSocket& operator=(const ListenSocket&) = delete;

  /// Binds and listens. `port` 0 asks the kernel for an ephemeral port
  /// (read it back via port()). `loopback_only` binds 127.0.0.1.
  static Result<ListenSocket> Bind(uint16_t port, bool loopback_only = false,
                                   int backlog = 128);

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// The bound port (the kernel-assigned one when Bind got 0).
  uint16_t port() const { return port_; }

  /// One accept attempt. kReady moves the connection into `*out`;
  /// kError fills `*error`. On a non-blocking listener (the event loop's)
  /// kWouldBlock means nothing is pending; a blocking one waits.
  IoOutcome TryAccept(Socket* out, Status* error);

  /// Switches the listening fd between blocking and non-blocking mode.
  Status SetNonBlocking(bool enabled);

  /// Closes the fd. Idempotent (also runs on destruction).
  void Close();

 private:
  int fd_ = -1;
  uint16_t port_ = 0;
};

/// Connects to `host:port` (numeric IPv4 or a resolvable name).
Result<Socket> Connect(const std::string& host, uint16_t port);

/// Connect bounded by a wall-clock timeout: non-blocking connect + poll,
/// the socket handed back in blocking mode. DeadlineExceeded when the
/// timeout passes before the connection establishes; `timeout_s <= 0`
/// degrades to the blocking Connect. The shard client pool uses this so
/// one dead backend cannot stall a whole scatter fan-out for the kernel's
/// multi-minute SYN retry budget.
Result<Socket> ConnectWithTimeout(const std::string& host, uint16_t port,
                                  double timeout_s);

}  // namespace net
}  // namespace scube

#endif  // SCUBE_NET_SOCKET_H_

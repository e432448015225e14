// ScubedServer: the network front-end over a QueryBackend (a local
// QueryService, or a cluster::ScatterExecutor in router mode).
//
// Connections are driven by the epoll reactor (reactor.h): one event loop
// owns every socket, and a fixed dispatch pool runs the router handlers
// (router.h). The loop sniffs each connection's first line to pick a
// dialect:
//
//   HTTP/1.1       keep-alive request loop (router.h routes)
//   line protocol  one SCubeQL statement per line in, one JSON object
//                  per line out — for scripted clients and netcat
//
// Open connections are capped by max_connections (connection-level
// admission control); query-level admission lives in QueryService.
// Stop() is graceful: the listener closes, idle keep-alive connections
// drop, in-flight responses drain, and the underlying QueryService is
// left usable (it is not owned).

#ifndef SCUBE_SERVER_SERVER_H_
#define SCUBE_SERVER_SERVER_H_

#include <cstdint>
#include <cstdio>
#include <memory>

#include "common/status.h"
#include "query/backend.h"
#include "query/cube_store.h"
#include "query/service.h"
#include "server/metrics.h"
#include "server/slow_query_log.h"

namespace scube {
namespace server {

class Reactor;

/// The connection front-end. The reactor is the only one; the enum stays
/// so callers that name it explicitly (the perfbench harness) keep
/// compiling.
enum class Frontend {
  kReactor,  ///< one epoll event loop + dispatch pool (reactor.h)
};

/// \brief Connection-level tuning.
struct ServerOptions {
  /// TCP port; 0 = kernel-assigned (read back via port()).
  uint16_t port = 8080;

  /// Bind 127.0.0.1 only (benches, tests, local demos).
  bool loopback_only = false;

  /// Dispatch pool size: threads running router handlers for parsed
  /// requests. Query execution runs on these threads too — the backend
  /// owns no workers — so this is scubed's one execution pool.
  size_t num_connection_threads = 8;

  /// With max_idle_polls, derives the default keep-alive idle timeout
  /// (idle_poll_seconds * max_idle_polls) when idle_timeout_seconds is 0.
  double idle_poll_seconds = 0.5;
  size_t max_idle_polls = 120;

  /// Header-read deadline: seconds from the first byte of a request to
  /// parse complete. The slow-loris bound — a peer trickling a byte at a
  /// time cannot extend it; on expiry the connection gets a 408 and
  /// closes.
  double request_read_seconds = 10.0;

  /// Slow-query threshold in milliseconds (--slow-query-ms); requests
  /// slower than this emit one JSON line with their span tree. 0 = off.
  double slow_query_ms = 0;

  /// Where slow-query lines go (not owned; tests pass a tmpfile()).
  /// Null falls back to stderr.
  std::FILE* slow_query_sink = nullptr;

  /// Trace every request even without ?debug=trace (--trace flag).
  bool trace_all = false;

  /// Connection front-end (only the reactor exists).
  Frontend frontend = Frontend::kReactor;

  /// Keep-alive idle timeout in seconds (--idle-timeout-ms). 0 derives
  /// it as idle_poll_seconds * max_idle_polls.
  double idle_timeout_seconds = 0;

  /// Open-connection cap beyond which accepts shed with an immediate 503.
  size_t max_connections = 60000;

  /// Seconds Stop() grants in-flight responses to drain before
  /// force-closing.
  double drain_timeout_seconds = 5.0;
};

/// \brief The scubed serving front-end. Start() spawns the reactor's
/// threads; Stop() (or the destructor) shuts down gracefully.
class ScubedServer {
 public:
  ScubedServer(query::QueryBackend* backend, ServerOptions options = {});
  ~ScubedServer();

  ScubedServer(const ScubedServer&) = delete;
  ScubedServer& operator=(const ScubedServer&) = delete;

  /// Binds and starts accepting. IoError when the port is taken.
  Status Start();

  /// Graceful shutdown: stop accepting, finish in-flight requests, join
  /// all threads. Idempotent.
  void Stop();

  /// The bound port (valid after Start()).
  uint16_t port() const;

  bool running() const { return running_; }

  const ServerMetrics& metrics() const { return metrics_; }

 private:
  query::QueryBackend* backend_;
  ServerOptions options_;
  ServerMetrics metrics_;
  SlowQueryLog slow_log_;  ///< initialised from options_: declare after it

  /// Owns the event loop + dispatch pool; kept after Stop() so port()
  /// stays readable.
  std::unique_ptr<Reactor> reactor_;
  bool running_ = false;
};

}  // namespace server
}  // namespace scube

#endif  // SCUBE_SERVER_SERVER_H_

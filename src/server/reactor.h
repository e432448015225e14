// Reactor front-end: one epoll event loop driving every connection over
// non-blocking sockets, so the open-connection ceiling is the fd limit —
// not the thread count. It is scubed's only connection path: ScubedServer
// owns one and hands it the ServerOptions.
//
// Division of labour:
//
//   loop thread      accept, read, incremental parse (HttpRequestParser),
//                    non-blocking writes, keep-alive/header timers —
//                    never blocks on a socket or a query
//   dispatch pool    runs the router handlers (router.h) for parsed
//                    requests, and with them the queries: the backend
//                    executes on the calling thread. Streamed responses
//                    write through a per-connection outbox: the worker
//                    blocks on the outbox watermark (backpressure), the
//                    loop drains it to the socket and yields on EAGAIN
//
// Per-connection state machine:
//
//   READ_HEAD → READ_BODY → DISPATCH → WRITE → (keep-alive reset) → …
//
// with a min-heap of lazy-deleted timers enforcing the header-read
// deadline (first request byte → parse complete; an HTTP connection gets
// a 408 before the close) and the keep-alive idle timeout between
// requests. Stop() is graceful: the listener closes, idle
// connections drop immediately, in-flight responses drain (bounded by
// drain_timeout_seconds), then the loop and pool join.

#ifndef SCUBE_SERVER_REACTOR_H_
#define SCUBE_SERVER_REACTOR_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "net/http.h"
#include "net/socket.h"
#include "server/metrics.h"
#include "server/router.h"
#include "server/server.h"

namespace scube {
namespace server {

/// \brief The epoll front-end. Construct, Start(listener), Stop().
class Reactor {
 public:
  /// Reads num_connection_threads (dispatch pool size), the idle and
  /// header-read timeouts, max_connections and drain_timeout_seconds.
  Reactor(RouterContext router, ServerMetrics* metrics,
          const ServerOptions& options);
  ~Reactor();

  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Takes ownership of a bound listener and spawns the loop + dispatch
  /// threads. IoError when epoll/eventfd setup fails.
  Status Start(net::ListenSocket listener);

  /// Graceful shutdown (see file comment). Idempotent.
  void Stop();

  /// The bound port (valid after Start, also after Stop).
  uint16_t port() const { return port_; }

 private:
  struct Conn;
  struct TimerEntry {
    std::chrono::steady_clock::time_point when;
    uint64_t id = 0;
    uint64_t gen = 0;
  };
  struct TimerLater {
    bool operator()(const TimerEntry& a, const TimerEntry& b) const {
      return a.when > b.when;
    }
  };
  enum class FlushResult { kDrained, kBlocked, kFailed };

  // Loop thread.
  void LoopThread();
  int PollTimeoutMs();
  void AcceptReady();
  void OnConnEvent(const std::shared_ptr<Conn>& conn, uint32_t events);
  void OnReadable(const std::shared_ptr<Conn>& conn);
  void ParseAvailable(const std::shared_ptr<Conn>& conn);
  void DispatchHttp(const std::shared_ptr<Conn>& conn);
  void DispatchLine(const std::shared_ptr<Conn>& conn, std::string line);
  void BeginDispatch(const std::shared_ptr<Conn>& conn);
  void RespondParseError(const std::shared_ptr<Conn>& conn);
  FlushResult FlushOutbox(const std::shared_ptr<Conn>& conn);
  void HandleWrite(const std::shared_ptr<Conn>& conn);
  void CompleteResponse(const std::shared_ptr<Conn>& conn, bool close);
  void CloseConn(const std::shared_ptr<Conn>& conn);
  void SetInterest(const std::shared_ptr<Conn>& conn, bool read, bool write);
  void ArmTimer(const std::shared_ptr<Conn>& conn, double seconds);
  void DisarmTimer(const std::shared_ptr<Conn>& conn);
  void ProcessTimers();
  void ProcessReady();
  void BeginStopInLoop();

  // Dispatch pool.
  void WorkerLoop();
  void RunHttpTask(const std::shared_ptr<Conn>& conn);
  void RunLineTask(const std::shared_ptr<Conn>& conn);
  void FinishResponse(const std::shared_ptr<Conn>& conn, bool close);

  /// Worker-side response write: appends to the connection outbox, wakes
  /// the loop, and blocks while the outbox exceeds the watermark (the
  /// worker yields; the loop never blocks). IoError once the connection
  /// closed under the writer.
  Status EnqueueOutput(const std::shared_ptr<Conn>& conn,
                       std::string_view data);

  /// Queues a loop wake-up for `id` (eventfd).
  void NotifyReady(uint64_t id);

  RouterContext router_;
  ServerMetrics* metrics_;
  ServerOptions options_;

  net::ListenSocket listener_;
  uint16_t port_ = 0;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;

  std::atomic<bool> stopping_{false};
  bool started_ = false;
  bool stop_begun_ = false;  ///< loop-thread: shutdown sequence entered
  std::chrono::steady_clock::time_point stop_deadline_{};

  uint64_t next_conn_id_ = 2;  ///< 0 = listener, 1 = wake eventfd
  std::unordered_map<uint64_t, std::shared_ptr<Conn>> conns_;
  std::priority_queue<TimerEntry, std::vector<TimerEntry>, TimerLater>
      timers_;

  sync::Mutex ready_mu_;
  std::vector<uint64_t> ready_ GUARDED_BY(ready_mu_);

  sync::Mutex task_mu_;
  sync::CondVar task_cv_;
  std::deque<std::shared_ptr<Conn>> tasks_ GUARDED_BY(task_mu_);
  bool workers_stop_ GUARDED_BY(task_mu_) = false;

  std::thread loop_;
  std::vector<std::thread> workers_;
};

}  // namespace server
}  // namespace scube

#endif  // SCUBE_SERVER_REACTOR_H_

#include "server/reactor.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/string_util.h"
#include "common/timer.h"

namespace scube {
namespace server {

namespace {

using Clock = std::chrono::steady_clock;

// epoll data.u64 tags for the two non-connection fds.
constexpr uint64_t kListenerTag = 0;
constexpr uint64_t kWakeTag = 1;

/// Outbox watermark: a streaming handler blocks once this many unwritten
/// response bytes queue up, keeping per-connection memory O(watermark)
/// for arbitrarily large streamed answers.
constexpr size_t kMaxOutboxBytes = 256 * 1024;

/// Bound on the inbox while hunting for the first complete line of a
/// request (dialect sniff / request line / line-protocol line) — the same
/// 64 KiB the blocking BufferedReader::ReadLine enforces.
constexpr size_t kMaxPendingLineBytes = 64 * 1024 + 2;

Status Errno(const char* what) {
  return Status::IoError(std::string(what) + ": " + std::strerror(errno));
}

Clock::time_point After(double seconds) {
  return Clock::now() +
         std::chrono::duration_cast<Clock::duration>(
             std::chrono::duration<double>(seconds));
}

}  // namespace

/// One connection. Most fields belong to the loop thread; the mu-guarded
/// block at the bottom is the loop↔worker response channel, and the
/// pending_* handoff fields are synchronised by the task-queue mutex.
struct Reactor::Conn {
  enum class Dialect { kUnknown, kHttp, kLine };

  uint64_t id = 0;
  net::Socket socket;
  Dialect dialect = Dialect::kUnknown;

  // Loop-thread state machine.
  std::string inbox;             ///< bytes read, not yet parsed
  net::HttpRequestParser parser;
  bool parser_started = false;   ///< current HTTP message fed the parser
  bool reading_request = false;  ///< first byte seen, message incomplete
  bool in_dispatch = false;      ///< a worker owns the response
  bool peer_eof = false;         ///< orderly shutdown seen on read
  bool dead = false;             ///< CloseConn ran (loop-side guard)
  bool want_read = true;         ///< EPOLLIN armed
  bool want_write = false;       ///< EPOLLOUT armed
  uint64_t timer_gen = 0;        ///< lazy-deletes stale heap entries
  Clock::time_point read_start{};

  // Loop → worker handoff (happens-before via the task queue mutex).
  net::HttpRequest pending_request;
  std::string pending_line;

  // Loop ↔ worker response channel.
  sync::Mutex mu;
  sync::CondVar drain_cv;
  std::string outbox GUARDED_BY(mu);
  size_t outbox_pos GUARDED_BY(mu) = 0;
  bool response_done GUARDED_BY(mu) = false;
  bool close_after_response GUARDED_BY(mu) = false;
  std::atomic<bool> closed{false};
};

Reactor::Reactor(RouterContext router, ServerMetrics* metrics,
                 const ServerOptions& options)
    : router_(router), metrics_(metrics), options_(options) {
  options_.num_connection_threads =
      std::max<size_t>(1, options_.num_connection_threads);
  if (options_.idle_timeout_seconds <= 0) {
    options_.idle_timeout_seconds =
        options_.idle_poll_seconds *
        static_cast<double>(options_.max_idle_polls);
  }
}

Reactor::~Reactor() { Stop(); }

Status Reactor::Start(net::ListenSocket listener) {
  if (started_) return Status::FailedPrecondition("reactor already started");
  listener_ = std::move(listener);
  port_ = listener_.port();
  Status nb = listener_.SetNonBlocking(true);
  if (!nb.ok()) return nb;

  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Errno("epoll_create1");
  wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (wake_fd_ < 0) {
    close(epoll_fd_);
    epoll_fd_ = -1;
    return Errno("eventfd");
  }

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeTag;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
    Status s = Errno("epoll_ctl(wakeup)");
    close(epoll_fd_);
    close(wake_fd_);
    epoll_fd_ = wake_fd_ = -1;
    return s;
  }
  ev.events = EPOLLIN;
  ev.data.u64 = kListenerTag;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listener_.fd(), &ev) != 0) {
    Status s = Errno("epoll_ctl(listener)");
    close(epoll_fd_);
    close(wake_fd_);
    epoll_fd_ = wake_fd_ = -1;
    return s;
  }

  started_ = true;
  stopping_.store(false, std::memory_order_release);
  stop_begun_ = false;
  workers_stop_ = false;
  workers_.reserve(options_.num_connection_threads);
  for (size_t i = 0; i < options_.num_connection_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  loop_ = std::thread([this] { LoopThread(); });
  return Status::OK();
}

void Reactor::Stop() {
  if (!started_) return;
  started_ = false;
  stopping_.store(true, std::memory_order_release);
  NotifyReady(kWakeTag);  // wake the loop so it notices `stopping_`
  if (loop_.joinable()) loop_.join();
  {
    sync::MutexLock lock(&task_mu_);
    workers_stop_ = true;
  }
  task_cv_.SignalAll();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  {
    sync::MutexLock lock(&task_mu_);
    tasks_.clear();
  }
  if (epoll_fd_ >= 0) {
    close(epoll_fd_);
    epoll_fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    close(wake_fd_);
    wake_fd_ = -1;
  }
}

// ---------------------------------------------------------------------------
// Loop thread.

void Reactor::LoopThread() {
  std::vector<epoll_event> events(256);
  while (true) {
    if (stopping_.load(std::memory_order_acquire) && !stop_begun_) {
      BeginStopInLoop();
    }
    if (stop_begun_) {
      if (conns_.empty()) break;
      if (Clock::now() >= stop_deadline_) {
        // Drain budget exhausted: force-close the stragglers.
        std::vector<std::shared_ptr<Conn>> remaining;
        remaining.reserve(conns_.size());
        for (auto& kv : conns_) remaining.push_back(kv.second);
        for (auto& conn : remaining) CloseConn(conn);
        break;
      }
    }

    int n = epoll_wait(epoll_fd_, events.data(),
                       static_cast<int>(events.size()), PollTimeoutMs());
    metrics_->Inc(metrics_->reactor_loops);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll itself failed; nothing sane left to do
    }
    for (int i = 0; i < n; ++i) {
      const uint64_t tag = events[i].data.u64;
      if (tag == kListenerTag) {
        AcceptReady();
        continue;
      }
      if (tag == kWakeTag) {
        uint64_t drained;
        while (read(wake_fd_, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      auto it = conns_.find(tag);
      if (it == conns_.end()) continue;  // closed earlier this batch
      std::shared_ptr<Conn> conn = it->second;
      OnConnEvent(conn, events[i].events);
    }
    ProcessReady();
    ProcessTimers();
  }
}

int Reactor::PollTimeoutMs() {
  // Lazy deletion: pop heap tops whose connection vanished or re-armed.
  while (!timers_.empty()) {
    const TimerEntry& top = timers_.top();
    auto it = conns_.find(top.id);
    if (it == conns_.end() || it->second->timer_gen != top.gen) {
      timers_.pop();
      continue;
    }
    break;
  }
  bool have = false;
  Clock::time_point next = Clock::time_point::max();
  if (!timers_.empty()) {
    next = timers_.top().when;
    have = true;
  }
  if (stop_begun_ && stop_deadline_ < next) {
    next = stop_deadline_;
    have = true;
  }
  if (!have) return -1;
  const Clock::time_point now = Clock::now();
  if (next <= now) return 0;
  const long long ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(next - now)
          .count() +
      1;
  return static_cast<int>(std::min<long long>(ms, 60'000));
}

void Reactor::AcceptReady() {
  while (true) {
    net::Socket socket;
    Status error;
    const net::IoOutcome outcome = listener_.TryAccept(&socket, &error);
    if (outcome == net::IoOutcome::kWouldBlock) return;
    if (outcome == net::IoOutcome::kError) {
      // Transient (EMFILE under an fd flood, and friends). Level-
      // triggered epoll re-reports pending connections next iteration,
      // so returning here cannot lose accepts or spin.
      return;
    }
    if (stopping_.load(std::memory_order_acquire)) continue;  // RAII close
    metrics_->ConnOpened();
    if (conns_.size() >= options_.max_connections) {
      // Connection-level load shedding: answer 503 without parsing.
      metrics_->Inc(metrics_->connections_shed);
      net::HttpResponse resp(503,
                             "{\"error\":\"connection limit reached\"}\n");
      resp.SetHeader("Retry-After", "1");
      socket.SetNonBlocking(true);
      socket.WriteNonBlocking(
          net::SerializeResponse(resp, /*keep_alive=*/false));
      metrics_->ConnClosed();
      continue;
    }
    socket.SetNoDelay();
    if (!socket.SetNonBlocking(true).ok()) {
      metrics_->ConnClosed();
      continue;
    }
    auto conn = std::make_shared<Conn>();
    conn->id = next_conn_id_++;
    conn->socket = std::move(socket);
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = conn->id;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->socket.fd(), &ev) != 0) {
      metrics_->ConnClosed();
      continue;
    }
    conns_.emplace(conn->id, conn);
    ArmTimer(conn, options_.idle_timeout_seconds);
  }
}

void Reactor::OnConnEvent(const std::shared_ptr<Conn>& conn,
                          uint32_t events) {
  if (conn->dead) return;
  if (events & (EPOLLHUP | EPOLLERR)) {
    CloseConn(conn);
    return;
  }
  if (events & EPOLLIN) OnReadable(conn);
  if (conn->dead) return;
  if (events & EPOLLOUT) HandleWrite(conn);
}

void Reactor::OnReadable(const std::shared_ptr<Conn>& conn) {
  char buf[16 * 1024];
  while (!conn->dead) {
    const net::IoResult r = conn->socket.ReadNonBlocking(buf, sizeof(buf));
    if (r.outcome == net::IoOutcome::kReady) {
      if (!conn->in_dispatch && !conn->reading_request) {
        // First byte of a new request: start the header-read clock. A
        // byte-at-a-time slow loris keeps resetting nothing — the timer
        // runs from here to parse-complete.
        conn->reading_request = true;
        conn->read_start = Clock::now();
        ArmTimer(conn, options_.request_read_seconds);
      }
      conn->inbox.append(buf, r.bytes);
      if (r.bytes < sizeof(buf)) break;  // kernel buffer drained
      continue;
    }
    if (r.outcome == net::IoOutcome::kWouldBlock) break;
    if (r.outcome == net::IoOutcome::kEof) {
      conn->peer_eof = true;
      break;
    }
    CloseConn(conn);
    return;
  }
  if (conn->dead) return;
  ParseAvailable(conn);
  if (!conn->dead && conn->peer_eof && !conn->in_dispatch) {
    // Nothing more will arrive, so a partial request can never complete.
    CloseConn(conn);
  }
}

void Reactor::ParseAvailable(const std::shared_ptr<Conn>& conn) {
  while (!conn->dead && !conn->in_dispatch) {
    if (conn->dialect != Conn::Dialect::kHttp || !conn->parser_started) {
      // Line-oriented stage: the dialect sniff, a line-protocol line, or
      // the request line that re-arms the HTTP parser all need one
      // complete line first.
      const size_t nl = conn->inbox.find('\n');
      if (nl == std::string::npos) {
        if (conn->inbox.size() > kMaxPendingLineBytes) CloseConn(conn);
        return;  // need more bytes
      }
      std::string line = conn->inbox.substr(0, nl);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (conn->dialect == Conn::Dialect::kUnknown) {
        conn->dialect = net::SniffsAsHttp(line) ? Conn::Dialect::kHttp
                                                : Conn::Dialect::kLine;
      }
      if (conn->dialect == Conn::Dialect::kLine) {
        conn->inbox.erase(0, nl + 1);
        std::string trimmed(Trim(line));
        if (trimmed == "QUIT" || trimmed == ".quit") {
          CloseConn(conn);
          return;
        }
        if (trimmed.empty()) continue;
        DispatchLine(conn, std::move(trimmed));
        return;
      }
      // HTTP: a blank line between keep-alive requests closes the
      // connection.
      if (line.empty()) {
        CloseConn(conn);
        return;
      }
      conn->parser_started = true;
      // Fall through: the parser consumes the line (still in the inbox)
      // itself.
    }
    const size_t used = conn->parser.Feed(conn->inbox);
    conn->inbox.erase(0, used);
    if (conn->parser.failed()) {
      RespondParseError(conn);
      return;
    }
    if (conn->parser.done()) {
      DispatchHttp(conn);
      return;
    }
    return;  // mid-message: wait for more bytes
  }
}

void Reactor::DispatchHttp(const std::shared_ptr<Conn>& conn) {
  conn->pending_request = std::move(conn->parser.request());
  conn->pending_request.read_start = conn->read_start;
  conn->pending_request.read_end = Clock::now();
  conn->parser.Reset();
  conn->parser_started = false;
  conn->reading_request = false;
  DisarmTimer(conn);
  BeginDispatch(conn);
}

void Reactor::DispatchLine(const std::shared_ptr<Conn>& conn,
                           std::string line) {
  conn->pending_line = std::move(line);
  conn->reading_request = false;
  DisarmTimer(conn);
  BeginDispatch(conn);
}

void Reactor::BeginDispatch(const std::shared_ptr<Conn>& conn) {
  conn->in_dispatch = true;
  // Stop reading while a worker owns the response: pipelined bytes wait
  // in the kernel buffer, which bounds the inbox.
  SetInterest(conn, /*read=*/false, conn->want_write);
  {
    sync::MutexLock lock(&task_mu_);
    tasks_.push_back(conn);
  }
  task_cv_.Signal();
}

void Reactor::RespondParseError(const std::shared_ptr<Conn>& conn) {
  // 400 with the parser's message, counted as a request + error under
  // route="other", then close.
  metrics_->Inc(metrics_->http_requests);
  metrics_->Inc(metrics_->http_errors);
  WallTimer route_timer;
  net::HttpResponse response(
      400,
      "{\"error\":" + JsonQuote(conn->parser.status().message()) + "}\n");
  std::string wire = net::SerializeResponse(response, /*keep_alive=*/false);
  DisarmTimer(conn);
  conn->reading_request = false;
  conn->in_dispatch = true;  // response in flight; no further parsing
  {
    sync::MutexLock lock(&conn->mu);
    conn->outbox.append(wire);
    conn->response_done = true;
    conn->close_after_response = true;
  }
  metrics_->ObserveRoute(Route::kOther, route_timer.Millis());
  HandleWrite(conn);
}

Reactor::FlushResult Reactor::FlushOutbox(const std::shared_ptr<Conn>& conn) {
  sync::ReleasableMutexLock lock(&conn->mu);
  while (conn->outbox_pos < conn->outbox.size()) {
    const std::string_view rest =
        std::string_view(conn->outbox).substr(conn->outbox_pos);
    const net::IoResult r = conn->socket.WriteNonBlocking(rest);
    if (r.outcome == net::IoOutcome::kReady) {
      conn->outbox_pos += r.bytes;
      continue;
    }
    if (r.outcome == net::IoOutcome::kWouldBlock) break;
    lock.Release();
    return FlushResult::kFailed;
  }
  if (conn->outbox_pos >= conn->outbox.size()) {
    conn->outbox.clear();
    conn->outbox_pos = 0;
  } else if (conn->outbox_pos > (1u << 20)) {
    conn->outbox.erase(0, conn->outbox_pos);
    conn->outbox_pos = 0;
  }
  const bool drained = conn->outbox.empty();
  const bool below_watermark =
      conn->outbox.size() - conn->outbox_pos <= kMaxOutboxBytes;
  // Notify off-lock: the blocked worker re-acquires mu in its wait loop.
  lock.Release();
  if (below_watermark) conn->drain_cv.SignalAll();
  return drained ? FlushResult::kDrained : FlushResult::kBlocked;
}

void Reactor::HandleWrite(const std::shared_ptr<Conn>& conn) {
  if (conn->dead) return;
  const FlushResult r = FlushOutbox(conn);
  if (r == FlushResult::kFailed) {
    CloseConn(conn);
    return;
  }
  if (r == FlushResult::kBlocked) {
    // EAGAIN: yield to the loop, resume on EPOLLOUT.
    if (!conn->want_write) SetInterest(conn, conn->want_read, true);
    return;
  }
  if (conn->want_write) SetInterest(conn, conn->want_read, false);
  bool done = false;
  bool close = false;
  {
    sync::MutexLock lock(&conn->mu);
    done = conn->response_done;
    close = conn->close_after_response;
  }
  if (conn->in_dispatch && done) CompleteResponse(conn, close);
}

void Reactor::CompleteResponse(const std::shared_ptr<Conn>& conn,
                               bool close) {
  if (close || stopping_.load(std::memory_order_acquire)) {
    CloseConn(conn);
    return;
  }
  // Keep-alive reset: back to READ_HEAD.
  conn->in_dispatch = false;
  {
    sync::MutexLock lock(&conn->mu);
    conn->response_done = false;
    conn->close_after_response = false;
  }
  SetInterest(conn, /*read=*/true, conn->want_write);
  ArmTimer(conn, options_.idle_timeout_seconds);
  // Pipelined requests may already be buffered — serve them now instead
  // of waiting for more bytes.
  ParseAvailable(conn);
  if (!conn->dead && !conn->in_dispatch && conn->peer_eof) CloseConn(conn);
}

void Reactor::CloseConn(const std::shared_ptr<Conn>& conn) {
  if (conn->dead) return;
  conn->dead = true;
  {
    sync::MutexLock lock(&conn->mu);
    conn->closed.store(true, std::memory_order_release);
  }
  conn->drain_cv.SignalAll();  // unblock a worker stuck in EnqueueOutput
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, conn->socket.fd(), nullptr);
  conn->socket.Close();
  DisarmTimer(conn);
  metrics_->ConnClosed();
  conns_.erase(conn->id);
}

void Reactor::SetInterest(const std::shared_ptr<Conn>& conn, bool read,
                          bool write) {
  if (conn->dead) return;
  if (conn->want_read == read && conn->want_write == write) return;
  conn->want_read = read;
  conn->want_write = write;
  epoll_event ev{};
  ev.events = (read ? EPOLLIN : 0u) | (write ? EPOLLOUT : 0u);
  ev.data.u64 = conn->id;
  epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->socket.fd(), &ev);
}

void Reactor::ArmTimer(const std::shared_ptr<Conn>& conn, double seconds) {
  ++conn->timer_gen;  // invalidates the previous entry (lazy deletion)
  timers_.push(TimerEntry{After(seconds), conn->id, conn->timer_gen});
}

void Reactor::DisarmTimer(const std::shared_ptr<Conn>& conn) {
  ++conn->timer_gen;
}

void Reactor::ProcessTimers() {
  const Clock::time_point now = Clock::now();
  while (!timers_.empty() && timers_.top().when <= now) {
    const TimerEntry fired = timers_.top();
    timers_.pop();
    auto it = conns_.find(fired.id);
    if (it == conns_.end() || it->second->timer_gen != fired.gen) continue;
    std::shared_ptr<Conn> conn = it->second;
    if (conn->reading_request) {
      metrics_->Inc(metrics_->header_deadline_closes);
      if (conn->dialect == Conn::Dialect::kHttp) {
        // One write attempt, never a wait: the response is tiny and the
        // connection closes either way.
        const net::HttpResponse timed_out(
            408, "{\"error\":\"request read timed out\"}\n");
        conn->socket.WriteNonBlocking(
            net::SerializeResponse(timed_out, /*keep_alive=*/false));
      }
    } else {
      metrics_->Inc(metrics_->idle_timeout_closes);
    }
    CloseConn(conn);
  }
}

void Reactor::ProcessReady() {
  std::vector<uint64_t> ready;
  {
    sync::MutexLock lock(&ready_mu_);
    ready.swap(ready_);
  }
  for (const uint64_t id : ready) {
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    std::shared_ptr<Conn> conn = it->second;
    if (!conn->dead) HandleWrite(conn);
  }
}

void Reactor::BeginStopInLoop() {
  stop_begun_ = true;
  stop_deadline_ = After(options_.drain_timeout_seconds);
  listener_.Close();  // closing deregisters it from the epoll set
  // Idle connections (no response in flight — their outbox is empty by
  // construction) drop immediately; dispatched ones get the drain budget.
  std::vector<std::shared_ptr<Conn>> idle;
  for (auto& kv : conns_) {
    if (!kv.second->in_dispatch) idle.push_back(kv.second);
  }
  for (auto& conn : idle) CloseConn(conn);
}

// ---------------------------------------------------------------------------
// Dispatch pool.

void Reactor::WorkerLoop() {
  while (true) {
    std::shared_ptr<Conn> conn;
    {
      sync::MutexLock lock(&task_mu_);
      while (!workers_stop_ && tasks_.empty()) task_cv_.Wait(&task_mu_);
      if (tasks_.empty()) return;  // stopping and drained
      conn = std::move(tasks_.front());
      tasks_.pop_front();
    }
    if (conn->dialect == Conn::Dialect::kHttp) {
      RunHttpTask(conn);
    } else {
      RunLineTask(conn);
    }
  }
}

void Reactor::RunHttpTask(const std::shared_ptr<Conn>& conn) {
  net::HttpRequest request = std::move(conn->pending_request);
  const bool keep_alive =
      request.keep_alive && !stopping_.load(std::memory_order_acquire);
  const bool head = request.method == "HEAD";
  const bool streamed = IsStreamingQuery(request);
  metrics_->Inc(metrics_->http_requests);
  WallTimer route_timer;
  const Route route = ClassifyRoute(request);
  bool close = !keep_alive;
  if (streamed) {
    // Streamed answers write through the outbox: the handler blocks on
    // the watermark (EnqueueOutput) while the loop drains to the socket —
    // the reactor's version of "yield to the loop on EAGAIN".
    auto self = conn;
    const bool alive = HandleQueryStream(
        router_, request, keep_alive, [this, self](std::string_view data) {
          return EnqueueOutput(self, data);
        });
    metrics_->ObserveRoute(route, route_timer.Millis());
    if (!alive) close = true;
  } else {
    net::HttpResponse response = HandleHttpRequest(router_, request);
    if (response.status >= 400) metrics_->Inc(metrics_->http_errors);
    metrics_->RaiseMax(metrics_->buffered_body_peak, response.body.size());
    std::string wire = net::SerializeResponse(response, keep_alive);
    // HEAD: same headers as GET (including the true Content-Length),
    // no body bytes.
    if (head) wire.resize(wire.size() - response.body.size());
    if (!EnqueueOutput(conn, wire).ok()) close = true;
    metrics_->ObserveRoute(route, route_timer.Millis());
  }
  FinishResponse(conn, close);
}

void Reactor::RunLineTask(const std::shared_ptr<Conn>& conn) {
  const std::string line = std::move(conn->pending_line);
  metrics_->Inc(metrics_->line_requests);
  WallTimer route_timer;
  std::string answer = HandleProtocolLine(router_, line);
  bool close = false;
  if (!answer.empty()) {
    answer += '\n';
    if (!EnqueueOutput(conn, answer).ok()) close = true;
  }
  metrics_->ObserveRoute(Route::kLine, route_timer.Millis());
  FinishResponse(conn, close);
}

void Reactor::FinishResponse(const std::shared_ptr<Conn>& conn, bool close) {
  {
    sync::MutexLock lock(&conn->mu);
    conn->response_done = true;
    if (close) conn->close_after_response = true;
  }
  NotifyReady(conn->id);
}

Status Reactor::EnqueueOutput(const std::shared_ptr<Conn>& conn,
                              std::string_view data) {
  {
    sync::MutexLock lock(&conn->mu);
    if (conn->closed.load(std::memory_order_acquire)) {
      return Status::IoError("connection closed");
    }
    conn->outbox.append(data);
  }
  NotifyReady(conn->id);
  sync::MutexLock lock(&conn->mu);
  while (!conn->closed.load(std::memory_order_acquire) &&
         conn->outbox.size() - conn->outbox_pos > kMaxOutboxBytes) {
    conn->drain_cv.Wait(&conn->mu);
  }
  if (conn->closed.load(std::memory_order_acquire)) {
    return Status::IoError("connection closed");
  }
  return Status::OK();
}

void Reactor::NotifyReady(uint64_t id) {
  if (id != kWakeTag) {
    sync::MutexLock lock(&ready_mu_);
    ready_.push_back(id);
  }
  const uint64_t one = 1;
  const ssize_t ignored = write(wake_fd_, &one, sizeof(one));
  (void)ignored;
}

}  // namespace server
}  // namespace scube

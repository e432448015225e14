// Minimal HTTP/1.1 for scubed. Server side: an incremental request parser
// (HttpRequestParser) that the reactor feeds from non-blocking sockets,
// keep-alive handling, target (path + query-parameter) decoding, and
// chunked transfer encoding on the response side (ChunkedWriter for
// streamed answers). Client side: blocking response reading over a
// buffered socket reader (benches, tests, the shard client), which also
// decodes chunked bodies. Deliberately small: no chunked request bodies
// (411 when a request body has no Content-Length), no TLS, no multipart —
// scubed speaks plain HTTP to load balancers, curl and the bench/test
// clients in this repo.
//
// SniffsAsHttp() looks at a connection's first line to pick between HTTP
// and the newline-delimited line protocol.

#ifndef SCUBE_NET_HTTP_H_
#define SCUBE_NET_HTTP_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/trace.h"
#include "net/socket.h"

namespace scube {
namespace net {

/// \brief Buffered line/byte reader over a blocking socket (the client
/// side: response reading in benches, tests and the shard client).
class BufferedReader {
 public:
  explicit BufferedReader(Socket* socket) : socket_(socket) {}

  /// Reads one line up to and including '\n', stripping "\r\n" / "\n".
  /// IoError on EOF before any byte, on a line longer than `max_len`, or
  /// on socket error/timeout.
  Result<std::string> ReadLine(size_t max_len = 64 * 1024);

  /// Reads exactly `n` bytes into `out` (replacing its contents).
  Status ReadExact(size_t n, std::string* out);

  /// Reads exactly `n` bytes, appending to `out` — lets chunked bodies
  /// accumulate without an intermediate per-chunk copy.
  Status ReadExactAppend(size_t n, std::string* out);

  /// True once the peer closed and the buffer is drained (peeks one byte).
  bool AtEof();

 private:
  Status Fill();  ///< one recv into the buffer

  Socket* socket_;
  std::string buf_;
  size_t pos_ = 0;
  bool eof_ = false;
};

/// \brief One parsed HTTP/1.1 request.
struct HttpRequest {
  std::string method;  ///< upper-case, e.g. "GET"
  std::string target;  ///< raw request target, e.g. "/query?format=csv"
  std::string path;    ///< decoded path component, e.g. "/query"
  std::map<std::string, std::string> params;   ///< decoded query parameters
  std::map<std::string, std::string> headers;  ///< keys lower-cased
  std::string body;
  bool keep_alive = true;  ///< HTTP/1.1 default unless "Connection: close"

  /// Wall-clock bounds of reading this request off the socket (first
  /// byte to parse complete), stamped by the reactor so handlers can
  /// record a retroactive "conn.read" trace span. Both stay at the epoch
  /// for requests built outside the reactor (tests, benches).
  std::chrono::steady_clock::time_point read_start{};
  std::chrono::steady_clock::time_point read_end{};

  /// Case-insensitive header lookup; "" when absent.
  const std::string& Header(const std::string& lower_name) const;

  /// Query parameter lookup with default.
  std::string Param(const std::string& name,
                    const std::string& fallback = "") const;
};

/// \brief One HTTP response under construction.
struct HttpResponse {
  int status = 200;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
  std::string content_type = "application/json";

  HttpResponse() = default;
  HttpResponse(int status_code, std::string body_text)
      : status(status_code), body(std::move(body_text)) {}

  void SetHeader(const std::string& name, const std::string& value) {
    headers.emplace_back(name, value);
  }
};

/// The standard reason phrase for a status code ("OK", "Not Found", ...).
const char* StatusReason(int status);

/// True when `first_line` looks like an HTTP request line (METHOD SP ...
/// SP HTTP/1.x) — the dialect sniff between HTTP and the line protocol.
bool SniffsAsHttp(std::string_view first_line);

/// \brief Incremental HTTP/1.1 request parser: feed it bytes as they
/// arrive off a non-blocking socket (partial lines, split headers, body
/// fragments) and it consumes exactly one message, stopping at the
/// boundary so pipelined follow-up bytes stay with the caller. Limits:
/// `max_body` bytes of body, 128 header lines.
class HttpRequestParser {
 public:
  explicit HttpRequestParser(size_t max_body = 4 * 1024 * 1024);

  /// Consumes bytes from `data`, returning how many were used. Everything
  /// is consumed except bytes past the end of a completed (or failed)
  /// message.
  size_t Feed(std::string_view data);

  bool done() const { return state_ == State::kDone; }
  bool failed() const { return state_ == State::kError; }
  const Status& status() const { return status_; }

  /// The parsed request; valid once done().
  HttpRequest& request() { return request_; }

  /// Resets for the next message on a keep-alive connection.
  void Reset();

 private:
  enum class State { kRequestLine, kHeaders, kBody, kDone, kError };

  void ConsumeLine(const std::string& line);
  void Fail(Status status);
  void FinishHeaders();

  size_t max_body_;
  State state_ = State::kRequestLine;
  Status status_;
  HttpRequest request_;
  std::string line_;  ///< partial line accumulated across Feed calls
  size_t header_count_ = 0;
  size_t body_expected_ = 0;
};

/// Serialises a response with Content-Length and Connection headers.
std::string SerializeResponse(const HttpResponse& response, bool keep_alive);

/// Serialises only the status line + headers (no body bytes). With
/// `chunked` the framing header is `Transfer-Encoding: chunked` and
/// Content-Length is never emitted — mixing the two desyncs keep-alive
/// connections; without it, Content-Length is taken from response.body.
std::string SerializeResponseHead(const HttpResponse& response,
                                  bool keep_alive, bool chunked);

/// \brief Incremental HTTP/1.1 chunked-transfer response writer: the wire
/// side of a streamed answer. Bytes go out through a raw write callback
/// (the socket, or a string in tests); payload is coalesced into chunks of
/// up to `flush_bytes`, so the response buffer stays O(flush_bytes) no
/// matter how large the body is — that bound is the whole point of the
/// streaming read path.
///
/// Usage: WriteHead once, Write any number of times, Finish once. After
/// Finish the connection is exactly at a message boundary and keep-alive
/// continues normally.
class ChunkedWriter {
 public:
  /// Raw byte sink. A non-OK return aborts the stream: subsequent calls
  /// become no-ops and Finish reports the failure.
  using WriteFn = std::function<Status(std::string_view)>;

  static constexpr size_t kDefaultFlushBytes = 16 * 1024;

  explicit ChunkedWriter(WriteFn write,
                         size_t flush_bytes = kDefaultFlushBytes);

  /// Attaches a trace (null = off): WriteHead records a "wire.head" span
  /// and every non-empty Flush a "wire.flush" span, so a trace shows how
  /// much of a streamed request went to socket writes.
  void set_trace(trace::TraceContext* trace) { trace_ = trace; }

  /// Writes the status line + headers with Transfer-Encoding: chunked.
  /// The head is flushed immediately so the client's first byte does not
  /// wait for the first body chunk (time-to-first-byte).
  Status WriteHead(const HttpResponse& head, bool keep_alive);

  /// Buffers payload, emitting a chunk whenever `flush_bytes` accumulate.
  Status Write(std::string_view data);

  /// Emits any buffered payload as a chunk now.
  Status Flush();

  /// Flushes, then writes the terminal 0-length chunk. Idempotent.
  Status Finish();

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  /// Largest number of payload bytes ever buffered — the peak response
  /// buffer, reported by /metrics and the serving bench to demonstrate
  /// O(1) buffering.
  size_t peak_buffer_bytes() const { return peak_buffer_; }

  /// Wire bytes written so far (head + chunk framing + payload).
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  Status Emit(std::string_view raw);  ///< raw wire write, latching failure

  WriteFn write_;
  size_t flush_bytes_;
  trace::TraceContext* trace_ = nullptr;
  std::string buffer_;
  size_t peak_buffer_ = 0;
  uint64_t bytes_written_ = 0;
  bool head_written_ = false;
  bool finished_ = false;
  Status status_;
};

/// Splits a request target into decoded path + query parameters.
void ParseTarget(std::string_view target, std::string* path,
                 std::map<std::string, std::string>* params);

/// Percent-decoding ('+' becomes a space, bad escapes pass through).
std::string UrlDecode(std::string_view s);

/// \brief Parsed HTTP response (the client side, for benches and tests).
struct HttpClientResponse {
  int status = 0;
  std::map<std::string, std::string> headers;  ///< keys lower-cased
  std::string body;
};

/// Reads one full response from `reader` (status line, headers, body by
/// Content-Length, chunked bodies decoded — trailer headers folded into
/// `headers`; bodies with neither framing read to EOF).
Result<HttpClientResponse> ReadHttpResponse(BufferedReader* reader);

/// Same, when the status line was already consumed (clients measuring
/// time-to-first-byte read the status line themselves first).
Result<HttpClientResponse> ReadHttpResponseAfterStatusLine(
    BufferedReader* reader, const std::string& status_line);

/// One-shot client helper: sends `method target` with `body` over an open
/// connection and reads the response. Sets Content-Length; keeps the
/// connection reusable (keep-alive).
Result<HttpClientResponse> RoundTrip(Socket* socket, BufferedReader* reader,
                                     const std::string& method,
                                     const std::string& target,
                                     const std::string& body = "",
                                     const std::string& content_type =
                                         "text/plain");

/// \brief Client-side timeouts and retry policy (shard client pool).
struct ClientOptions {
  /// Bound on establishing a TCP connection (ConnectWithTimeout).
  double connect_timeout_s = 5.0;

  /// Receive timeout applied to the connection (SetRecvTimeout); bounds
  /// every read of the response. 0 = unbounded.
  double read_timeout_s = 10.0;

  /// Total tries per round trip (1 = no retry). Retries reconnect: a
  /// request that failed mid-transport leaves the connection desynced.
  int max_attempts = 3;

  /// Exponential backoff between retries, doubling from `initial` and
  /// capped at `max`.
  int backoff_initial_ms = 50;
  int backoff_max_ms = 1000;
};

/// \brief A pooled keep-alive client connection: the socket plus its
/// buffered reader (they must live and die together — the reader may hold
/// read-ahead bytes and points at the socket, so the struct must stay at
/// a fixed address while connected; pools hold it by unique_ptr). Invalid
/// when not yet connected or torn down after a transport error.
struct ClientConnection {
  Socket socket;
  std::unique_ptr<BufferedReader> reader;

  ClientConnection() = default;
  ClientConnection(const ClientConnection&) = delete;
  ClientConnection& operator=(const ClientConnection&) = delete;

  bool valid() const { return socket.valid() && reader != nullptr; }
  void Reset() {
    reader.reset();
    socket.Close();
  }
};

/// Connects `conn` in place per `options` (connect timeout, read timeout,
/// TCP_NODELAY) and wires up its reader. Any previous connection is torn
/// down first.
Status OpenClientConnection(const std::string& host, uint16_t port,
                            const ClientOptions& options,
                            ClientConnection* conn);

/// RoundTrip with connection management, timeouts and bounded
/// retry-with-backoff. Reuses `*conn` when connected (keep-alive),
/// (re)establishing it as needed; on transport failure the connection is
/// torn down and the attempt repeated on a fresh one after backoff, up to
/// options.max_attempts. A stale keep-alive connection (peer closed it
/// between requests) reconnects immediately without consuming an attempt.
/// Safe for scubed's read-only /query, /cubes and /metrics round trips —
/// re-sending them cannot double-apply anything.
Result<HttpClientResponse> RoundTripWithRetry(
    ClientConnection* conn, const std::string& host, uint16_t port,
    const std::string& method, const std::string& target,
    const std::string& body, const std::string& content_type,
    const ClientOptions& options);

/// \brief Everything before a response body: status, headers, framing.
struct HttpResponseHead {
  int status = 0;
  std::map<std::string, std::string> headers;  ///< keys lower-cased
  bool chunked = false;      ///< Transfer-Encoding: chunked
  bool have_length = false;  ///< Content-Length present
  size_t length = 0;
};

/// Reads status line + headers, leaving the reader positioned at the
/// first body byte. The streaming scatter client reads the head, then
/// pulls body bytes incrementally through ChunkedBodyReader.
Result<HttpResponseHead> ReadHttpResponseHead(BufferedReader* reader);

/// \brief Incremental chunked-body decoder: one chunk per ReadSome call,
/// so a client can consume an arbitrarily long streamed response in O(1)
/// memory (the batch ReadHttpResponse materialises the whole body).
class ChunkedBodyReader {
 public:
  explicit ChunkedBodyReader(BufferedReader* reader) : reader_(reader) {}

  /// Appends the next chunk's payload to `out`. Returns false once the
  /// terminal chunk (and trailer section) has been consumed — the
  /// connection then sits exactly at the message boundary, reusable for
  /// keep-alive. Trailer headers are folded into trailers().
  Result<bool> ReadSome(std::string* out);

  bool done() const { return done_; }
  const std::map<std::string, std::string>& trailers() const {
    return trailers_;
  }

 private:
  BufferedReader* reader_;
  std::map<std::string, std::string> trailers_;
  bool done_ = false;
};

}  // namespace net
}  // namespace scube

#endif  // SCUBE_NET_HTTP_H_

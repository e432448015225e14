#include "server/router.h"

#include <cstdio>
#include <memory>
#include <optional>

#include "common/string_util.h"
#include "common/timer.h"
#include "common/trace.h"
#include "query/wire_format.h"

namespace scube {
namespace server {

namespace {

/// Whether this request gets a TraceContext: explicitly requested
/// (?debug=trace), globally forced (--trace), or implied by the
/// slow-query log (an offending line must carry its span tree, which
/// only exists if the request was traced from the start).
bool ShouldTrace(const RouterContext& ctx, const net::HttpRequest& request) {
  return request.Param("debug") == "trace" || ctx.trace_all ||
         (ctx.slow_log != nullptr && ctx.slow_log->enabled());
}

/// Records per-verb execution latency for every parsed statement of a
/// buffered answer (parse errors have no verb and are skipped).
void ObserveVerbs(const RouterContext& ctx,
                  const std::vector<query::QueryResponse>& responses) {
  if (ctx.metrics == nullptr) return;
  for (const query::QueryResponse& r : responses) {
    if (!r.verb.empty()) ctx.metrics->ObserveVerb(r.verb, r.exec_ms);
  }
}

/// Retroactive "conn.read" span: the request's socket-read window
/// (first request byte to parse complete), stamped by the reactor.
/// Unstamped requests (both time points at the epoch) record nothing.
void MaybeRecordConnRead(trace::TraceContext* tc,
                         const net::HttpRequest& request) {
  if (tc != nullptr && request.read_end > request.read_start) {
    tc->Record("conn.read", request.read_start, request.read_end);
  }
}

net::HttpResponse JsonError(int status, const std::string& message) {
  net::HttpResponse resp(status, "{\"error\":" + JsonQuote(message) + "}\n");
  return resp;
}

std::string FormatMillis(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

/// Splits a /query body into statements: one per line, blank lines and
/// `#` comments skipped.
std::vector<std::string> SplitStatements(const std::string& body) {
  std::vector<std::string> out;
  for (const std::string& raw : Split(body, '\n')) {
    std::string_view line = Trim(raw);
    if (line.empty() || line.front() == '#') continue;
    out.emplace_back(line);
  }
  return out;
}

bool AllUnavailable(const std::vector<query::QueryResponse>& responses) {
  if (responses.empty()) return false;
  for (const auto& r : responses) {
    if (r.status.code() != StatusCode::kUnavailable) return false;
  }
  return true;
}

/// Validates the parameters shared by the buffered and streamed /query
/// routes (?format=, ?deadline_ms=). Returns "" on success, else the
/// error message for a 400. "wire" is the shard protocol and only valid
/// on the streamed route — the buffered handler rejects it.
std::string ParseQueryParams(const net::HttpRequest& request,
                             std::string* format,
                             query::QueryContext* qctx) {
  *format = request.Param("format", "json");
  if (*format != "json" && *format != "csv" && *format != "wire") {
    return "unknown format '" + *format + "' (expected json, csv or wire)";
  }
  const std::string deadline = request.Param("deadline_ms");
  if (!deadline.empty()) {
    auto ms = ParseDouble(deadline);
    if (!ms.ok() || *ms <= 0) {
      return "bad deadline_ms '" + deadline +
             "' (must be a positive number of milliseconds)";
    }
    *qctx = query::QueryContext::WithTimeout(*ms);
  }
  return "";
}

net::HttpResponse HandleQuery(const RouterContext& ctx,
                              const net::HttpRequest& request) {
  WallTimer timer;
  std::string format;
  query::QueryContext qctx;
  std::string validation = ParseQueryParams(request, &format, &qctx);
  if (validation.empty() && format == "wire") {
    validation = "format=wire requires stream=1 (the shard wire protocol "
                 "is streamed only)";
  }
  if (!validation.empty()) return JsonError(400, validation);

  // The trace must attach AFTER ParseQueryParams: ?deadline_ms= replaces
  // the whole context, which would silently drop an earlier pointer.
  std::optional<trace::TraceContext> tc;
  if (ShouldTrace(ctx, request)) tc.emplace();
  qctx.trace = tc ? &*tc : nullptr;
  qctx.allow_partial = request.Param("allow_partial") == "1";
  MaybeRecordConnRead(qctx.trace, request);

  std::vector<std::string> statements = SplitStatements(request.body);
  if (statements.empty()) {
    return JsonError(400,
                     "empty query body (one SCubeQL statement per line)");
  }

  std::vector<query::QueryResponse> responses;
  responses.reserve(statements.size());
  for (const std::string& statement : statements) {
    responses.push_back(ctx.backend->ExecuteOne(statement, qctx));
  }
  ObserveVerbs(ctx, responses);

  auto maybe_slow_log = [&](const char* code, uint64_t rows) {
    if (ctx.slow_log == nullptr) return;
    SlowQueryRecord record;
    record.route = RouteLabel(Route::kQuery);
    record.query = statements.size() == 1
                       ? statements[0]
                       : statements[0] + " (+" +
                             std::to_string(statements.size() - 1) +
                             " more statements)";
    record.code = code;
    record.total_ms = timer.Millis();
    record.rows = rows;
    record.trace = tc ? &*tc : nullptr;
    if (ctx.slow_log->MaybeLog(record) && ctx.metrics != nullptr) {
      ctx.metrics->Inc(ctx.metrics->slow_queries);
    }
  };

  if (AllUnavailable(responses)) {
    net::HttpResponse resp =
        JsonError(503, responses.front().status.message());
    resp.SetHeader("Retry-After", "1");
    maybe_slow_log("UNAVAILABLE", 0);
    return resp;
  }

  uint64_t total_rows = 0;
  for (const query::QueryResponse& r : responses) {
    if (r.status.ok()) total_rows += r.result.rows.size();
  }

  if (format == "csv") {
    net::HttpResponse resp;
    resp.content_type = "text/csv; charset=utf-8";
    resp.SetHeader("Content-Disposition",
                   "attachment; filename=\"scube_query.csv\"");
    trace::Span serialize_span(qctx.trace, "serialize");
    for (size_t i = 0; i < responses.size(); ++i) {
      const query::QueryResponse& r = responses[i];
      resp.body += "# query " + std::to_string(i) + ": " + r.text + " [" +
                   StatusCodeToString(r.status.code()) + "]\n";
      if (r.status.ok()) {
        resp.body += query::ToCsv(r.result);
      }
      if (i + 1 < responses.size()) resp.body += '\n';
    }
    serialize_span.End();
    maybe_slow_log(StatusCodeToString(responses.front().status.code()),
                   total_rows);
    return resp;
  }

  trace::Span serialize_span(qctx.trace, "serialize");
  std::string body = "{\"count\":" + std::to_string(responses.size()) +
                     ",\"results\":[";
  for (size_t i = 0; i < responses.size(); ++i) {
    if (i > 0) body += ',';
    body += ResponseToJson(responses[i]);
  }
  body += "]";
  serialize_span.End();
  // Opt-in span breakdown in the envelope: only for ?debug=trace, not for
  // traces that merely exist for --trace or the slow-query log.
  if (tc && request.Param("debug") == "trace") {
    body += ",\"trace\":" + tc->ToJson();
  }
  body += "}\n";
  maybe_slow_log(StatusCodeToString(responses.front().status.code()),
                 total_rows);
  return net::HttpResponse(200, std::move(body));
}

net::HttpResponse HandleCubes(const RouterContext& ctx) {
  std::string body = "{\"cubes\":[";
  bool first = true;
  for (const query::CubeInfo& info : ctx.backend->ListCubes()) {
    if (!first) body += ',';
    first = false;
    body += "{\"name\":" + JsonQuote(info.name) +
            ",\"version\":" + std::to_string(info.version) +
            ",\"retained\":[";
    bool first_version = true;
    for (uint64_t v : info.retained) {
      if (!first_version) body += ',';
      first_version = false;
      body += std::to_string(v);
    }
    body += "],\"cells\":" + std::to_string(info.cells) +
            ",\"defined_cells\":" + std::to_string(info.defined_cells) +
            "}";
  }
  body += "]}\n";
  return net::HttpResponse(200, std::move(body));
}

net::HttpResponse HandleHealthz(const RouterContext& ctx) {
  return net::HttpResponse(
      200, "{\"status\":\"ok\",\"cubes\":" +
               std::to_string(ctx.backend->ListCubes().size()) + "}\n");
}

net::HttpResponse HandleMetrics(const RouterContext& ctx) {
  net::HttpResponse resp(200, RenderPrometheus(*ctx.metrics, *ctx.backend));
  resp.content_type = "text/plain; version=0.0.4";
  return resp;
}

/// HTTP status for an error caught before any streamed byte left.
int HttpStatusFor(StatusCode code) {
  switch (code) {
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kUnavailable:
      return 503;
    case StatusCode::kDeadlineExceeded:
      return 504;
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
      return 400;
    default:
      return 500;
  }
}

/// Streams one answer over the chunked writer: the first chunk carries
/// the HTTP head, an optional envelope prefix (JSON wraps the result in
/// {"query":...,"result":; CSV streams bare) and the inner writer's
/// header bytes, flushed eagerly so the client's time-to-first-byte does
/// not wait for the first row. Rows and the trailer forward to the inner
/// writer; the handler appends any envelope tail after the trailer.
class StreamSink : public query::RowSink {
 public:
  StreamSink(net::ChunkedWriter* writer, net::HttpResponse head,
             bool keep_alive, std::string prefix,
             const std::string& format,
             trace::TraceContext* trace = nullptr,
             const WallTimer* request_timer = nullptr)
      : writer_(writer),
        head_(std::move(head)),
        keep_alive_(keep_alive),
        prefix_(std::move(prefix)),
        trace_(trace),
        request_timer_(request_timer) {
    auto emit = [writer](std::string_view data) {
      return writer->Write(data).ok();
    };
    if (format == "csv") {
      inner_ = std::make_unique<query::CsvWriter>(emit);
    } else if (format == "wire") {
      inner_ = std::make_unique<query::WireWriter>(emit);
    } else {
      inner_ = std::make_unique<query::JsonWriter>(emit);
    }
  }

  bool Begin(const query::ResultHeader& header) override {
    // "first_byte" covers the head, the envelope prefix and the eager
    // flush — everything between execution reaching Begin and the client
    // seeing its first byte.
    trace::Span span(trace_, "first_byte");
    if (!writer_->WriteHead(head_, keep_alive_).ok()) return false;
    if (!prefix_.empty() && !writer_->Write(prefix_).ok()) return false;
    bool ok = inner_->Begin(header);
    bool flushed = writer_->Flush().ok();
    if (request_timer_ != nullptr) ttfb_ms_ = request_timer_->Millis();
    return flushed && ok;
  }

  bool Row(const query::ResultRow& row) override { return inner_->Row(row); }

  void Finish(const query::ResultTrailer& trailer) override {
    inner_->Finish(trailer);
  }

  /// Milliseconds from request entry to the first byte reaching the
  /// socket; negative until Begin has run.
  double ttfb_ms() const { return ttfb_ms_; }

 private:
  net::ChunkedWriter* writer_;
  net::HttpResponse head_;
  bool keep_alive_;
  std::string prefix_;
  trace::TraceContext* trace_;
  const WallTimer* request_timer_;
  double ttfb_ms_ = -1;
  std::unique_ptr<query::ResultWriter> inner_;
};

}  // namespace

bool IsStreamingQuery(const net::HttpRequest& request) {
  // POST only: HEAD (whose responses must carry no body bytes) and other
  // methods take the buffered route, where the connection loop applies
  // the usual method/HEAD handling.
  return request.method == "POST" && request.path == "/query" &&
         request.Param("stream") == "1";
}

bool HandleQueryStream(const RouterContext& ctx,
                       const net::HttpRequest& request, bool keep_alive,
                       const net::ChunkedWriter::WriteFn& write) {
  WallTimer timer;
  auto buffered_error = [&](net::HttpResponse resp) {
    resp.content_type = "application/json";
    return write(net::SerializeResponse(resp, keep_alive)).ok();
  };

  // Method filtering happened at IsStreamingQuery: only POST reaches here
  // (HEAD in particular must take the buffered route for body stripping).

  std::string format;
  query::QueryContext qctx;
  std::string validation = ParseQueryParams(request, &format, &qctx);

  // Attach AFTER ParseQueryParams: ?deadline_ms= replaces the context.
  std::optional<trace::TraceContext> tc;
  if (ShouldTrace(ctx, request)) tc.emplace();
  qctx.trace = tc ? &*tc : nullptr;
  qctx.allow_partial = request.Param("allow_partial") == "1";
  MaybeRecordConnRead(qctx.trace, request);

  std::vector<std::string> statements = SplitStatements(request.body);
  if (validation.empty() && statements.size() != 1) {
    validation = statements.empty()
                     ? "empty query body (one SCubeQL statement)"
                     : "stream=1 answers exactly one statement per request "
                       "(got " +
                           std::to_string(statements.size()) +
                           "); batch statements through the buffered path";
  }
  if (!validation.empty()) {
    if (ctx.metrics != nullptr) ctx.metrics->Inc(ctx.metrics->http_errors);
    return buffered_error(JsonError(400, validation));
  }

  const std::string cursor = request.Param("cursor");

  net::HttpResponse head;
  if (format == "csv") {
    head.content_type = "text/csv; charset=utf-8";
    head.SetHeader("Content-Disposition",
                   "attachment; filename=\"scube_query.csv\"");
  } else if (format == "wire") {
    head.content_type = "application/x-scube-wire";
    // The shard protocol: every row carries its order-preserving merge
    // key so the scatter router can k-way merge shard streams back into
    // the exact single-node emission order.
    qctx.merge_keys = true;
  }

  // "conn.write" wraps the raw connection write — the reactor's outbox
  // enqueue including any backpressure wait, i.e. the time this response
  // spent pushing bytes toward the peer (nests under wire.flush in the
  // span tree).
  net::ChunkedWriter::WriteFn traced_write = write;
  if (qctx.trace != nullptr) {
    trace::TraceContext* trace_ptr = qctx.trace;
    traced_write = [write, trace_ptr](std::string_view data) {
      trace::Span span(trace_ptr, "conn.write");
      return write(data);
    };
  }

  net::ChunkedWriter writer(traced_write);
  writer.set_trace(qctx.trace);
  std::string prefix =
      format == "json"
          ? "{\"query\":" + JsonQuote(statements[0]) + ",\"result\":"
          : "";
  StreamSink sink(&writer, head, keep_alive, std::move(prefix), format,
                  qctx.trace, &timer);
  query::StreamOutcome outcome =
      ctx.backend->ExecuteStreaming(statements[0], sink, qctx, cursor);
  if (ctx.metrics != nullptr) {
    if (!outcome.verb.empty()) {
      ctx.metrics->ObserveVerb(outcome.verb, outcome.exec_ms);
    }
    if (sink.ttfb_ms() >= 0) {
      ctx.metrics->stream_ttfb.Observe(sink.ttfb_ms());
    }
  }

  auto maybe_slow_log = [&](const char* code) {
    if (ctx.slow_log == nullptr) return;
    SlowQueryRecord record;
    record.route = RouteLabel(Route::kStream);
    record.query = statements[0];
    record.code = code;
    record.total_ms = timer.Millis();
    record.rows = outcome.rows;
    record.trace = tc ? &*tc : nullptr;
    if (ctx.slow_log->MaybeLog(record) && ctx.metrics != nullptr) {
      ctx.metrics->Inc(ctx.metrics->slow_queries);
    }
  };

  if (!outcome.begun) {
    // Nothing on the wire yet: answer as a plain buffered HTTP error.
    int status = HttpStatusFor(outcome.status.code());
    net::HttpResponse resp = JsonError(status, outcome.status.message());
    if (status == 503) resp.SetHeader("Retry-After", "1");
    if (ctx.metrics != nullptr) ctx.metrics->Inc(ctx.metrics->http_errors);
    maybe_slow_log(StatusCodeToString(outcome.status.code()));
    return buffered_error(std::move(resp));
  }

  // The stream is live (head already sent as 200): append the envelope
  // tail and the terminal chunk. Post-Begin failures surface inside the
  // body — the status line is long gone.
  if (format == "json") {
    std::string tail =
        ",\"code\":" + JsonQuote(StatusCodeToString(outcome.status.code()));
    if (!outcome.status.ok()) {
      tail += ",\"message\":" + JsonQuote(outcome.status.message());
    }
    tail += ",\"cube\":" + JsonQuote(outcome.cube) +
            ",\"version\":" + std::to_string(outcome.cube_version) +
            ",\"cache_hit\":";
    tail += outcome.cache_hit ? "true" : "false";
    tail += ",\"rows\":" + std::to_string(outcome.rows);
    // Span breakdown rides in the trailer chunk of the streamed envelope
    // — rendered after execution, so it contains the full walk spans.
    if (tc && request.Param("debug") == "trace") {
      tail += ",\"trace\":" + tc->ToJson();
    }
    tail += "}\n";
    writer.Write(tail);
  } else if (format == "wire") {
    // The authoritative close of a wire stream: the router treats a
    // stream without an S line as transport failure.
    writer.Write(query::WireStatusLine(
        outcome.status.code(), outcome.status.message(),
        outcome.cube_version, outcome.cache_hit, outcome.rows));
  } else if (!outcome.status.ok()) {
    writer.Write("# code: " +
                 std::string(StatusCodeToString(outcome.status.code())) +
                 "\n# message: " + outcome.status.message() + "\n");
  }
  // Account the response before the terminal chunk leaves: a client that
  // has seen the end of the stream must find it in /metrics (the terminal
  // "0\r\n\r\n" is 5 wire bytes, added up front).
  writer.Flush();
  if (ctx.metrics != nullptr) {
    ctx.metrics->Inc(ctx.metrics->streamed_requests);
    if (!outcome.status.ok()) {
      // The 200 head already left; the error rides in the body tail. It
      // still counts as a failed response for monitoring.
      ctx.metrics->Inc(ctx.metrics->streamed_errors);
    }
    ctx.metrics->Add(ctx.metrics->streamed_rows, outcome.rows);
    ctx.metrics->Add(ctx.metrics->streamed_bytes,
                     writer.bytes_written() + 5);
    ctx.metrics->RaiseMax(ctx.metrics->streamed_buffer_peak,
                          writer.peak_buffer_bytes());
  }
  // Log before the terminal chunk for the same reason metrics are
  // accounted above: a client that has seen the end of the stream must
  // find the offender in the slow-query log. Logging after Finish()
  // raced readers of the sink (a just-finished request's line could be
  // missing for a moment) — caught by the slow-query-log HTTP test going
  // flaky under the thread-safety annotation pass.
  maybe_slow_log(StatusCodeToString(outcome.status.code()));
  writer.Finish();
  return writer.ok();
}

std::string ResponseToJson(const query::QueryResponse& response) {
  std::string out = "{\"query\":" + JsonQuote(response.text) +
                    ",\"code\":" +
                    JsonQuote(StatusCodeToString(response.status.code()));
  if (!response.status.ok()) {
    out += ",\"message\":" + JsonQuote(response.status.message());
  }
  if (!response.cube.empty()) {
    out += ",\"cube\":" + JsonQuote(response.cube) +
           ",\"version\":" + std::to_string(response.cube_version);
  }
  out += ",\"cache_hit\":";
  out += response.cache_hit ? "true" : "false";
  out += ",\"exec_ms\":" + FormatMillis(response.exec_ms);
  out += ",\"result\":";
  out += response.status.ok() ? query::ToJson(response.result) : "null";
  out += '}';
  return out;
}

net::HttpResponse HandleHttpRequest(const RouterContext& ctx,
                                    const net::HttpRequest& request) {
  if (request.path == "/query") {
    if (request.method != "POST") {
      return JsonError(405, "use POST /query");
    }
    return HandleQuery(ctx, request);
  }
  if (request.method != "GET" && request.method != "HEAD") {
    return JsonError(405, "unsupported method " + request.method);
  }
  if (request.path == "/healthz") return HandleHealthz(ctx);
  if (request.path == "/metrics") return HandleMetrics(ctx);
  if (request.path == "/cubes") return HandleCubes(ctx);
  return JsonError(404, "no route for " + request.path);
}

std::string HandleProtocolLine(const RouterContext& ctx,
                               const std::string& line) {
  std::string_view text = Trim(line);
  if (text.empty() || text.front() == '#') return "";

  WallTimer timer;
  // No ?debug= on the line protocol: tracing comes from --trace or the
  // slow-query log needing span trees.
  std::optional<trace::TraceContext> tc;
  if (ctx.trace_all ||
      (ctx.slow_log != nullptr && ctx.slow_log->enabled())) {
    tc.emplace();
  }
  query::QueryContext qctx;
  qctx.trace = tc ? &*tc : nullptr;

  query::QueryResponse response =
      ctx.backend->ExecuteOne(std::string(text), qctx);
  if (ctx.metrics != nullptr && !response.verb.empty()) {
    ctx.metrics->ObserveVerb(response.verb, response.exec_ms);
  }
  std::string answer = ResponseToJson(response);
  if (ctx.slow_log != nullptr) {
    SlowQueryRecord record;
    record.route = RouteLabel(Route::kLine);
    record.query = std::string(text);
    record.code = StatusCodeToString(response.status.code());
    record.total_ms = timer.Millis();
    record.rows = response.status.ok() ? response.result.rows.size() : 0;
    record.trace = tc ? &*tc : nullptr;
    if (ctx.slow_log->MaybeLog(record) && ctx.metrics != nullptr) {
      ctx.metrics->Inc(ctx.metrics->slow_queries);
    }
  }
  return answer;
}

}  // namespace server
}  // namespace scube

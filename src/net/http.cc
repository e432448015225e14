#include "net/http.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <ctime>

#include "common/string_util.h"

namespace scube {
namespace net {

namespace {

constexpr size_t kReadChunk = 16 * 1024;
constexpr size_t kMaxHeaderLines = 128;

bool IsToken(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
          c == '_')) {
      return false;
    }
  }
  return true;
}

}  // namespace

Status BufferedReader::Fill() {
  if (eof_) return Status::OK();
  // Compact the consumed prefix before growing the buffer.
  if (pos_ > 0) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  size_t old = buf_.size();
  buf_.resize(old + kReadChunk);
  auto got = socket_->Read(buf_.data() + old, kReadChunk);
  if (!got.ok()) {
    buf_.resize(old);
    return got.status();
  }
  buf_.resize(old + *got);
  if (*got == 0) eof_ = true;
  return Status::OK();
}

Result<std::string> BufferedReader::ReadLine(size_t max_len) {
  while (true) {
    size_t nl = buf_.find('\n', pos_);
    if (nl != std::string::npos) {
      std::string line = buf_.substr(pos_, nl - pos_);
      pos_ = nl + 1;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    if (buf_.size() - pos_ > max_len) {
      return Status::IoError("line exceeds " + std::to_string(max_len) +
                             " bytes");
    }
    if (eof_) {
      if (pos_ < buf_.size()) {
        // Final unterminated line.
        std::string line = buf_.substr(pos_);
        pos_ = buf_.size();
        return line;
      }
      return Status::IoError("connection closed");
    }
    SCUBE_RETURN_IF_ERROR(Fill());
  }
}

Status BufferedReader::ReadExact(size_t n, std::string* out) {
  out->clear();
  return ReadExactAppend(n, out);
}

Status BufferedReader::ReadExactAppend(size_t n, std::string* out) {
  while (buf_.size() - pos_ < n) {
    if (eof_) {
      return Status::IoError("connection closed mid-body (" +
                             std::to_string(buf_.size() - pos_) + " of " +
                             std::to_string(n) + " bytes)");
    }
    SCUBE_RETURN_IF_ERROR(Fill());
  }
  out->append(buf_, pos_, n);
  pos_ += n;
  return Status::OK();
}

bool BufferedReader::AtEof() {
  while (pos_ >= buf_.size() && !eof_) {
    if (!Fill().ok()) return true;
  }
  return pos_ >= buf_.size() && eof_;
}

const std::string& HttpRequest::Header(const std::string& lower_name) const {
  static const std::string kEmpty;
  auto it = headers.find(lower_name);
  return it == headers.end() ? kEmpty : it->second;
}

std::string HttpRequest::Param(const std::string& name,
                               const std::string& fallback) const {
  auto it = params.find(name);
  return it == params.end() ? fallback : it->second;
}

const char* StatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 411: return "Length Required";
    case 413: return "Payload Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    default: return "Unknown";
  }
}

bool SniffsAsHttp(std::string_view first_line) {
  // METHOD SP target SP HTTP/1.x — enough to separate curl from a client
  // typing SCubeQL directly.
  size_t sp1 = first_line.find(' ');
  if (sp1 == std::string_view::npos) return false;
  size_t sp2 = first_line.rfind(' ');
  if (sp2 == sp1) return false;
  return IsToken(first_line.substr(0, sp1)) &&
         first_line.substr(sp2 + 1).rfind("HTTP/1.", 0) == 0;
}

std::string UrlDecode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c == '+') {
      out += ' ';
    } else if (c == '%' && i + 2 < s.size() &&
               std::isxdigit(static_cast<unsigned char>(s[i + 1])) &&
               std::isxdigit(static_cast<unsigned char>(s[i + 2]))) {
      auto hex = [](char h) -> int {
        if (h >= '0' && h <= '9') return h - '0';
        return (std::tolower(static_cast<unsigned char>(h)) - 'a') + 10;
      };
      out += static_cast<char>(hex(s[i + 1]) * 16 + hex(s[i + 2]));
      i += 2;
    } else {
      out += c;
    }
  }
  return out;
}

void ParseTarget(std::string_view target, std::string* path,
                 std::map<std::string, std::string>* params) {
  size_t q = target.find('?');
  *path = UrlDecode(target.substr(0, q));
  params->clear();
  if (q == std::string_view::npos) return;
  std::string_view rest = target.substr(q + 1);
  while (!rest.empty()) {
    size_t amp = rest.find('&');
    std::string_view pair = rest.substr(0, amp);
    rest = amp == std::string_view::npos ? std::string_view{}
                                         : rest.substr(amp + 1);
    if (pair.empty()) continue;
    size_t eq = pair.find('=');
    if (eq == std::string_view::npos) {
      (*params)[UrlDecode(pair)] = "";
    } else {
      (*params)[UrlDecode(pair.substr(0, eq))] = UrlDecode(pair.substr(eq + 1));
    }
  }
}

// --- HttpRequestParser ------------------------------------------------------

namespace {

/// The ReadLine bound, mirrored so the incremental parser rejects an
/// endless header line exactly where the blocking reader would.
constexpr size_t kMaxLineBytes = 64 * 1024;

}  // namespace

HttpRequestParser::HttpRequestParser(size_t max_body) : max_body_(max_body) {}

void HttpRequestParser::Reset() {
  state_ = State::kRequestLine;
  status_ = Status::OK();
  request_ = HttpRequest{};
  line_.clear();
  header_count_ = 0;
  body_expected_ = 0;
}

void HttpRequestParser::Fail(Status status) {
  state_ = State::kError;
  status_ = std::move(status);
}

size_t HttpRequestParser::Feed(std::string_view data) {
  size_t used = 0;
  while (used < data.size() && state_ != State::kDone &&
         state_ != State::kError) {
    if (state_ == State::kBody) {
      size_t want = body_expected_ - request_.body.size();
      size_t take = std::min(want, data.size() - used);
      request_.body.append(data.substr(used, take));
      used += take;
      if (request_.body.size() == body_expected_) state_ = State::kDone;
      continue;
    }
    size_t nl = data.find('\n', used);
    if (nl == std::string_view::npos) {
      size_t take = data.size() - used;
      if (line_.size() + take > kMaxLineBytes) {
        Fail(Status::IoError("line exceeds " +
                             std::to_string(kMaxLineBytes) + " bytes"));
        return data.size();
      }
      line_.append(data.substr(used));
      return data.size();
    }
    line_.append(data.substr(used, nl - used));
    used = nl + 1;
    if (line_.size() > kMaxLineBytes) {
      Fail(Status::IoError("line exceeds " + std::to_string(kMaxLineBytes) +
                           " bytes"));
      return used;
    }
    if (!line_.empty() && line_.back() == '\r') line_.pop_back();
    std::string line = std::move(line_);
    line_.clear();
    ConsumeLine(line);
  }
  return used;
}

void HttpRequestParser::ConsumeLine(const std::string& line) {
  if (state_ == State::kRequestLine) {
    size_t sp1 = line.find(' ');
    size_t sp2 = line.rfind(' ');
    if (sp1 == std::string::npos || sp2 == sp1) {
      Fail(Status::ParseError("malformed request line: " + line));
      return;
    }
    request_.method = line.substr(0, sp1);
    std::transform(request_.method.begin(), request_.method.end(),
                   request_.method.begin(),
                   [](unsigned char c) { return std::toupper(c); });
    request_.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
    std::string version = line.substr(sp2 + 1);
    if (version.rfind("HTTP/1.", 0) != 0) {
      Fail(Status::ParseError("unsupported protocol: " + version));
      return;
    }
    // HTTP/1.0 defaults to close, 1.1 to keep-alive.
    request_.keep_alive = version != "HTTP/1.0";
    ParseTarget(request_.target, &request_.path, &request_.params);
    state_ = State::kHeaders;
    return;
  }

  // State::kHeaders.
  if (line.empty()) {
    FinishHeaders();
    return;
  }
  if (header_count_ >= kMaxHeaderLines) {
    // Failing (rather than silently truncating) keeps the connection from
    // desyncing: leftover header bytes would otherwise be read as body.
    Fail(Status::ParseError("more than " + std::to_string(kMaxHeaderLines) +
                            " headers"));
    return;
  }
  size_t colon = line.find(':');
  if (colon == std::string::npos) {
    Fail(Status::ParseError("malformed header: " + line));
    return;
  }
  std::string name = ToLower(Trim(std::string_view(line).substr(0, colon)));
  std::string value(Trim(std::string_view(line).substr(colon + 1)));
  request_.headers[name] = std::move(value);
  ++header_count_;
}

void HttpRequestParser::FinishHeaders() {
  const std::string& connection = request_.Header("connection");
  if (!connection.empty()) {
    std::string lower = ToLower(connection);
    if (lower.find("close") != std::string::npos) {
      request_.keep_alive = false;
    }
    if (lower.find("keep-alive") != std::string::npos) {
      request_.keep_alive = true;
    }
  }

  const std::string& length = request_.Header("content-length");
  if (!length.empty()) {
    auto n = ParseInt64(length);
    if (!n.ok() || *n < 0) {
      Fail(Status::ParseError("bad Content-Length: " + length));
      return;
    }
    if (static_cast<size_t>(*n) > max_body_) {
      Fail(Status::InvalidArgument("request body of " + length +
                                   " bytes exceeds the limit of " +
                                   std::to_string(max_body_)));
      return;
    }
    body_expected_ = static_cast<size_t>(*n);
    request_.body.reserve(body_expected_);
    state_ = body_expected_ == 0 ? State::kDone : State::kBody;
    return;
  }
  if (!request_.Header("transfer-encoding").empty()) {
    Fail(Status::Unimplemented("chunked transfer encoding not supported"));
    return;
  }
  state_ = State::kDone;
}

std::string SerializeResponseHead(const HttpResponse& response,
                                  bool keep_alive, bool chunked) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    StatusReason(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  if (chunked) {
    // Never alongside Content-Length: a streamed response's size is
    // unknown when the head leaves, and emitting both desyncs keep-alive.
    out += "Transfer-Encoding: chunked\r\n";
  } else {
    out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  }
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  for (const auto& [name, value] : response.headers) {
    out += name + ": " + value + "\r\n";
  }
  out += "\r\n";
  return out;
}

std::string SerializeResponse(const HttpResponse& response, bool keep_alive) {
  std::string out =
      SerializeResponseHead(response, keep_alive, /*chunked=*/false);
  out += response.body;
  return out;
}

// --- ChunkedWriter ----------------------------------------------------------

ChunkedWriter::ChunkedWriter(WriteFn write, size_t flush_bytes)
    : write_(std::move(write)),
      flush_bytes_(flush_bytes == 0 ? kDefaultFlushBytes : flush_bytes) {
  buffer_.reserve(flush_bytes_);
}

Status ChunkedWriter::Emit(std::string_view raw) {
  if (!status_.ok()) return status_;
  status_ = write_(raw);
  if (status_.ok()) bytes_written_ += raw.size();
  return status_;
}

Status ChunkedWriter::WriteHead(const HttpResponse& head, bool keep_alive) {
  if (head_written_) return Status::FailedPrecondition("head already written");
  head_written_ = true;
  trace::Span span(trace_, "wire.head");
  return Emit(SerializeResponseHead(head, keep_alive, /*chunked=*/true));
}

Status ChunkedWriter::Write(std::string_view data) {
  if (!status_.ok()) return status_;
  if (finished_) return Status::FailedPrecondition("stream finished");
  buffer_.append(data);
  peak_buffer_ = std::max(peak_buffer_, buffer_.size());
  if (buffer_.size() >= flush_bytes_) return Flush();
  return status_;
}

Status ChunkedWriter::Flush() {
  if (!status_.ok()) return status_;
  if (buffer_.empty()) return status_;
  trace::Span span(trace_, "wire.flush");
  char size_line[32];
  int n = std::snprintf(size_line, sizeof(size_line), "%zx\r\n",
                        buffer_.size());
  std::string frame;
  frame.reserve(static_cast<size_t>(n) + buffer_.size() + 2);
  frame.append(size_line, static_cast<size_t>(n));
  frame.append(buffer_);
  frame.append("\r\n");
  buffer_.clear();
  return Emit(frame);
}

Status ChunkedWriter::Finish() {
  if (finished_) return status_;
  if (!head_written_) {
    return Status::FailedPrecondition("Finish before WriteHead");
  }
  SCUBE_RETURN_IF_ERROR(Flush());
  finished_ = true;
  return Emit("0\r\n\r\n");
}

namespace {

/// Chunks beyond this are rejected rather than allocated: no peer of ours
/// sends chunks anywhere near it (the server flushes at ~16 KiB), and it
/// keeps a hostile size line from driving a huge allocation.
constexpr size_t kMaxChunkBytes = 256 * 1024 * 1024;

/// Total decoded-body bound: an endless stream of small chunks must not
/// grow the client's memory without limit either.
constexpr size_t kMaxChunkedBodyBytes = 1024 * 1024 * 1024;

/// Decodes a chunked body by looping the incremental reader: size-line /
/// payload pairs until the 0 chunk, then trailer headers (folded into
/// `headers`) up to the blank line.
Status ReadChunkedBody(BufferedReader* reader, std::string* body,
                       std::map<std::string, std::string>* headers) {
  ChunkedBodyReader chunks(reader);
  while (true) {
    auto more = chunks.ReadSome(body);
    if (!more.ok()) return more.status();
    if (body->size() > kMaxChunkedBodyBytes) {
      return Status::ParseError("chunked body exceeds " +
                                std::to_string(kMaxChunkedBodyBytes) +
                                " bytes");
    }
    if (!*more) break;
  }
  // Trailers never overwrite headers already parsed from the header
  // section (RFC 7230 §4.1.2 forbids framing/control fields there — a
  // trailer saying "Content-Length: 0" must not clobber the real framing).
  for (const auto& [name, value] : chunks.trailers()) {
    headers->emplace(name, value);
  }
  return Status::OK();
}

}  // namespace

Result<bool> ChunkedBodyReader::ReadSome(std::string* out) {
  if (done_) return Result<bool>(false);
  auto size_line = reader_->ReadLine();
  if (!size_line.ok()) return size_line.status();
  // Chunk extensions ("1a;name=value") are tolerated and ignored.
  std::string_view digits(*size_line);
  size_t semi = digits.find(';');
  if (semi != std::string_view::npos) digits = digits.substr(0, semi);
  digits = Trim(digits);
  if (digits.empty()) {
    return Status::ParseError("empty chunk size line");
  }
  auto parsed = ParseHexU64(digits);
  if (!parsed.ok()) {
    // A value overflowing uint64 must not wrap (wrapping to 0 would read
    // as the terminal chunk and misframe the rest of the stream).
    return digits.size() > 16
               ? Status::ParseError("chunk size too large: " + *size_line)
               : Status::ParseError("bad chunk size: " + *size_line);
  }
  if (*parsed > kMaxChunkBytes) {
    return Status::ParseError("chunk size too large: " + *size_line);
  }
  size_t size = static_cast<size_t>(*parsed);
  if (size == 0) {
    // Trailer section: header lines until the blank line.
    for (size_t i = 0; i < kMaxHeaderLines; ++i) {
      auto line = reader_->ReadLine();
      if (!line.ok()) return line.status();
      if (line->empty()) {
        done_ = true;
        return Result<bool>(false);
      }
      size_t colon = line->find(':');
      if (colon == std::string::npos) continue;
      std::string name =
          ToLower(Trim(std::string_view(*line).substr(0, colon)));
      trailers_.emplace(
          name, std::string(Trim(std::string_view(*line).substr(colon + 1))));
    }
    return Status::ParseError("more than " + std::to_string(kMaxHeaderLines) +
                              " trailer lines");
  }
  SCUBE_RETURN_IF_ERROR(reader_->ReadExactAppend(size, out));
  // The CRLF that terminates the chunk payload.
  auto crlf = reader_->ReadLine();
  if (!crlf.ok()) return crlf.status();
  if (!crlf->empty()) {
    return Status::ParseError("chunk payload not followed by CRLF");
  }
  return Result<bool>(true);
}

namespace {

/// Parses the status line + header section into a response head; the
/// reader ends up positioned at the first body byte.
Status ParseResponseHead(BufferedReader* reader,
                         const std::string& status_line,
                         HttpResponseHead* head) {
  // "HTTP/1.1 200 OK"
  size_t sp1 = status_line.find(' ');
  if (sp1 == std::string::npos || status_line.rfind("HTTP/", 0) != 0) {
    return Status::ParseError("malformed status line: " + status_line);
  }
  auto code = ParseInt64(std::string_view(status_line).substr(sp1 + 1, 3));
  if (!code.ok()) {
    return Status::ParseError("malformed status line: " + status_line);
  }
  head->status = static_cast<int>(*code);

  for (size_t i = 0; i < kMaxHeaderLines; ++i) {
    auto line = reader->ReadLine();
    if (!line.ok()) return line.status();
    if (line->empty()) break;
    size_t colon = line->find(':');
    if (colon == std::string::npos) continue;
    std::string name = ToLower(Trim(std::string_view(*line).substr(0, colon)));
    std::string value(Trim(std::string_view(*line).substr(colon + 1)));
    if (name == "content-length") {
      auto n = ParseInt64(value);
      if (n.ok() && *n >= 0) {
        head->have_length = true;
        head->length = static_cast<size_t>(*n);
      }
    } else if (name == "transfer-encoding" &&
               ToLower(value).find("chunked") != std::string::npos) {
      head->chunked = true;
    }
    head->headers[name] = std::move(value);
  }
  return Status::OK();
}

}  // namespace

Result<HttpResponseHead> ReadHttpResponseHead(BufferedReader* reader) {
  auto status_line = reader->ReadLine();
  if (!status_line.ok()) return status_line.status();
  HttpResponseHead head;
  SCUBE_RETURN_IF_ERROR(ParseResponseHead(reader, *status_line, &head));
  return head;
}

Result<HttpClientResponse> ReadHttpResponseAfterStatusLine(
    BufferedReader* reader, const std::string& status_line) {
  HttpResponseHead head;
  SCUBE_RETURN_IF_ERROR(ParseResponseHead(reader, status_line, &head));
  HttpClientResponse resp;
  resp.status = head.status;
  resp.headers = std::move(head.headers);

  if (head.chunked) {
    SCUBE_RETURN_IF_ERROR(
        ReadChunkedBody(reader, &resp.body, &resp.headers));
  } else if (head.have_length) {
    SCUBE_RETURN_IF_ERROR(reader->ReadExact(head.length, &resp.body));
  } else {
    // Read to EOF (Connection: close responses).
    while (!reader->AtEof()) {
      auto line = reader->ReadLine();
      if (!line.ok()) break;
      resp.body += *line;
      resp.body += '\n';
    }
  }
  return resp;
}

Result<HttpClientResponse> ReadHttpResponse(BufferedReader* reader) {
  auto status_line = reader->ReadLine();
  if (!status_line.ok()) return status_line.status();
  return ReadHttpResponseAfterStatusLine(reader, *status_line);
}

Result<HttpClientResponse> RoundTrip(Socket* socket, BufferedReader* reader,
                                     const std::string& method,
                                     const std::string& target,
                                     const std::string& body,
                                     const std::string& content_type) {
  std::string request = method + " " + target + " HTTP/1.1\r\n";
  request += "Host: localhost\r\n";
  request += "Content-Type: " + content_type + "\r\n";
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  request += "Connection: keep-alive\r\n\r\n";
  request += body;
  SCUBE_RETURN_IF_ERROR(socket->WriteAll(request));
  return ReadHttpResponse(reader);
}

namespace {

void SleepMillis(int ms) {
  struct timespec ts;
  ts.tv_sec = ms / 1000;
  ts.tv_nsec = static_cast<long>(ms % 1000) * 1000000L;
  while (::nanosleep(&ts, &ts) != 0 && errno == EINTR) {
  }
}

}  // namespace

Status OpenClientConnection(const std::string& host, uint16_t port,
                            const ClientOptions& options,
                            ClientConnection* conn) {
  conn->Reset();
  auto socket = ConnectWithTimeout(host, port, options.connect_timeout_s);
  if (!socket.ok()) return socket.status();
  conn->socket = std::move(socket).value();
  if (options.read_timeout_s > 0) {
    SCUBE_RETURN_IF_ERROR(conn->socket.SetRecvTimeout(options.read_timeout_s));
  }
  (void)conn->socket.SetNoDelay();  // best effort: latency, not correctness
  conn->reader = std::make_unique<BufferedReader>(&conn->socket);
  return Status::OK();
}

Result<HttpClientResponse> RoundTripWithRetry(
    ClientConnection* conn, const std::string& host, uint16_t port,
    const std::string& method, const std::string& target,
    const std::string& body, const std::string& content_type,
    const ClientOptions& options) {
  const int attempts = std::max(1, options.max_attempts);
  int backoff_ms = std::max(1, options.backoff_initial_ms);
  Status last = Status::IoError("no attempt made");
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      SleepMillis(backoff_ms);
      backoff_ms = std::min(backoff_ms * 2, std::max(1, options.backoff_max_ms));
    }
    const bool reused = conn->valid();
    if (!reused) {
      Status opened = OpenClientConnection(host, port, options, conn);
      if (!opened.ok()) {
        last = std::move(opened);
        continue;
      }
    }
    auto resp = RoundTrip(&conn->socket, conn->reader.get(), method, target,
                          body, content_type);
    if (resp.ok()) return resp;
    last = resp.status();
    conn->Reset();
    if (reused) {
      // A keep-alive connection the peer closed between requests fails on
      // the first read — that is staleness, not backend trouble, so
      // reconnect and resend immediately without consuming an attempt.
      Status opened = OpenClientConnection(host, port, options, conn);
      if (!opened.ok()) {
        last = std::move(opened);
        continue;
      }
      auto retry = RoundTrip(&conn->socket, conn->reader.get(), method,
                             target, body, content_type);
      if (retry.ok()) return retry;
      last = retry.status();
      conn->Reset();
    }
  }
  return last;
}

}  // namespace net
}  // namespace scube

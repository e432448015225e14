#include "net/http.h"

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <string>
#include <utility>

#include "net/socket.h"

namespace scube {
namespace net {
namespace {

/// A connected socket pair: write raw bytes into `feeder`, parse from
/// `reader_socket`.
struct Pair {
  Socket feeder;
  Socket reader_socket;

  Pair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    feeder = Socket(fds[0]);
    reader_socket = Socket(fds[1]);
  }
};

/// Feeds one complete request message to a fresh parser; it must consume
/// every byte and finish.
HttpRequest MustParse(const std::string& raw) {
  HttpRequestParser parser;
  EXPECT_EQ(parser.Feed(raw), raw.size());
  EXPECT_TRUE(parser.done()) << parser.status();
  return std::move(parser.request());
}

/// Feeds `raw` to a fresh parser, which must reject it; returns why.
Status MustReject(const std::string& raw) {
  HttpRequestParser parser;
  parser.Feed(raw);
  EXPECT_TRUE(parser.failed()) << raw;
  return parser.status();
}

TEST(HttpSniffTest, SeparatesHttpFromLineProtocol) {
  EXPECT_TRUE(SniffsAsHttp("GET / HTTP/1.1"));
  EXPECT_TRUE(SniffsAsHttp("POST /query?format=csv HTTP/1.0"));
  EXPECT_FALSE(SniffsAsHttp("TOPK 5 BY dissimilarity"));
  EXPECT_FALSE(SniffsAsHttp("SLICE sa=gender=F"));
  EXPECT_FALSE(SniffsAsHttp(""));
  EXPECT_FALSE(SniffsAsHttp("hello"));
}

TEST(UrlDecodeTest, DecodesEscapesAndPlus) {
  EXPECT_EQ(UrlDecode("a%20b"), "a b");
  EXPECT_EQ(UrlDecode("a+b"), "a b");
  EXPECT_EQ(UrlDecode("T%20%3E%3D%2030"), "T >= 30");
  EXPECT_EQ(UrlDecode("100%"), "100%");  // bad escape passes through
}

TEST(ParseTargetTest, SplitsPathAndParams) {
  std::string path;
  std::map<std::string, std::string> params;
  ParseTarget("/query?format=csv&deadline_ms=250", &path, &params);
  EXPECT_EQ(path, "/query");
  EXPECT_EQ(params["format"], "csv");
  EXPECT_EQ(params["deadline_ms"], "250");

  ParseTarget("/healthz", &path, &params);
  EXPECT_EQ(path, "/healthz");
  EXPECT_TRUE(params.empty());
}

TEST(HttpRequestTest, ParsesGetWithHeaders) {
  HttpRequest req = MustParse(
      "GET /metrics HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "X-Custom: value\r\n"
      "\r\n");
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/metrics");
  EXPECT_EQ(req.Header("host"), "localhost");
  EXPECT_EQ(req.Header("x-custom"), "value");
  EXPECT_TRUE(req.keep_alive);  // HTTP/1.1 default
}

TEST(HttpRequestTest, ParsesPostBodyByContentLength) {
  std::string body = "TOPK 5 BY dissimilarity\nSLICE sa=sex=F";
  HttpRequest req = MustParse(
      "POST /query?format=json HTTP/1.1\r\n"
      "Content-Length: " + std::to_string(body.size()) + "\r\n"
      "\r\n" + body);
  EXPECT_EQ(req.method, "POST");
  EXPECT_EQ(req.path, "/query");
  EXPECT_EQ(req.Param("format"), "json");
  EXPECT_EQ(req.body, body);
}

TEST(HttpRequestTest, ConnectionCloseAndHttp10Defaults) {
  HttpRequest close_req = MustParse(
      "GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
  EXPECT_FALSE(close_req.keep_alive);
  HttpRequest http10 = MustParse("GET / HTTP/1.0\r\n\r\n");
  EXPECT_FALSE(http10.keep_alive);
  HttpRequest http10_keep = MustParse(
      "GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
  EXPECT_TRUE(http10_keep.keep_alive);
}

TEST(HttpRequestTest, RejectsMalformedAndOversized) {
  EXPECT_FALSE(MustReject("BROKEN\r\n\r\n").ok());
  const Status big = MustReject(
      "POST /query HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n");
  EXPECT_EQ(big.code(), StatusCode::kInvalidArgument);
}

TEST(HttpResponseTest, SerialisesWithLengthAndConnection) {
  HttpResponse resp(200, "{\"ok\":true}");
  resp.SetHeader("Retry-After", "1");
  std::string wire = SerializeResponse(resp, /*keep_alive=*/false);
  EXPECT_NE(wire.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Content-Length: 11\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Retry-After: 1\r\n"), std::string::npos);
  EXPECT_NE(wire.find("\r\n\r\n{\"ok\":true}"), std::string::npos);
}

TEST(HttpRoundTripTest, ClientParsesServerResponse) {
  Pair pair;
  HttpResponse resp(503, "{\"error\":\"full\"}\n");
  resp.SetHeader("Retry-After", "1");
  ASSERT_TRUE(
      pair.feeder.WriteAll(SerializeResponse(resp, /*keep_alive=*/true))
          .ok());
  BufferedReader reader(&pair.reader_socket);
  auto parsed = ReadHttpResponse(&reader);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->status, 503);
  EXPECT_EQ(parsed->headers.at("retry-after"), "1");
  EXPECT_EQ(parsed->body, "{\"error\":\"full\"}\n");
}

TEST(ChunkedWriterTest, FramesHeadChunksAndTerminator) {
  std::string wire;
  ChunkedWriter writer(
      [&wire](std::string_view data) {
        wire.append(data);
        return Status::OK();
      },
      /*flush_bytes=*/1024);
  HttpResponse head;
  head.content_type = "application/json";
  ASSERT_TRUE(writer.WriteHead(head, /*keep_alive=*/true).ok());
  // Chunked head: Transfer-Encoding, never Content-Length.
  EXPECT_NE(wire.find("Transfer-Encoding: chunked\r\n"), std::string::npos);
  EXPECT_EQ(wire.find("Content-Length"), std::string::npos);
  EXPECT_NE(wire.find("Connection: keep-alive\r\n"), std::string::npos);

  ASSERT_TRUE(writer.Write("hello ").ok());
  ASSERT_TRUE(writer.Write("world").ok());
  ASSERT_TRUE(writer.Finish().ok());
  // One coalesced chunk ("hello world" = 0xb bytes) plus the terminator.
  EXPECT_NE(wire.find("\r\n\r\nb\r\nhello world\r\n0\r\n\r\n"),
            std::string::npos)
      << wire;
  EXPECT_EQ(writer.bytes_written(), wire.size());
}

TEST(ChunkedWriterTest, FlushesAtThresholdKeepingBufferBounded) {
  std::string wire;
  size_t flush_bytes = 64;
  ChunkedWriter writer(
      [&wire](std::string_view data) {
        wire.append(data);
        return Status::OK();
      },
      flush_bytes);
  HttpResponse head;
  ASSERT_TRUE(writer.WriteHead(head, true).ok());
  // Stream far more payload than the flush threshold: the peak buffer
  // must stay near the threshold, not grow with the body.
  std::string piece(10, 'x');
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(writer.Write(piece).ok());
  ASSERT_TRUE(writer.Finish().ok());
  EXPECT_LT(writer.peak_buffer_bytes(), flush_bytes + piece.size());
  EXPECT_NE(wire.find("0\r\n\r\n"), std::string::npos);
}

TEST(ChunkedWriterTest, LatchesTransportFailure) {
  int writes = 0;
  ChunkedWriter writer([&writes](std::string_view) {
    ++writes;
    return Status::IoError("peer gone");
  });
  HttpResponse head;
  EXPECT_FALSE(writer.WriteHead(head, true).ok());
  EXPECT_FALSE(writer.Write("data").ok());
  EXPECT_FALSE(writer.Finish().ok());
  EXPECT_FALSE(writer.ok());
  EXPECT_EQ(writes, 1);  // one failed write; the rest short-circuit
}

TEST(ChunkedClientTest, DecodesChunkedResponseWithTrailers) {
  Pair pair;
  ASSERT_TRUE(pair.feeder
                  .WriteAll("HTTP/1.1 200 OK\r\n"
                            "Content-Type: application/json\r\n"
                            "Transfer-Encoding: chunked\r\n"
                            "\r\n"
                            "6\r\nhello \r\n"
                            "b;ext=1\r\nchunked wor\r\n"
                            "2\r\nld\r\n"
                            "0\r\n"
                            "X-Trailer: yes\r\n"
                            "Content-Type: text/evil\r\n"
                            "\r\n")
                  .ok());
  BufferedReader reader(&pair.reader_socket);
  auto parsed = ReadHttpResponse(&reader);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->status, 200);
  EXPECT_EQ(parsed->body, "hello chunked world");
  EXPECT_EQ(parsed->headers.at("x-trailer"), "yes");
  // Trailers must not clobber headers from the real header section.
  EXPECT_EQ(parsed->headers.at("content-type"), "application/json");
}

TEST(ChunkedClientTest, KeepAliveSurvivesChunkedMessageBoundary) {
  // Two responses back-to-back on one connection: a chunked one, then a
  // Content-Length one. The decoder must stop exactly at the terminal
  // chunk's blank line, leaving the second message intact.
  Pair pair;
  std::string wire;
  ChunkedWriter writer([&wire](std::string_view data) {
    wire.append(data);
    return Status::OK();
  });
  HttpResponse head;
  ASSERT_TRUE(writer.WriteHead(head, /*keep_alive=*/true).ok());
  ASSERT_TRUE(writer.Write("first streamed body").ok());
  ASSERT_TRUE(writer.Finish().ok());
  wire += SerializeResponse(HttpResponse(200, "second body"),
                            /*keep_alive=*/true);
  ASSERT_TRUE(pair.feeder.WriteAll(wire).ok());

  BufferedReader reader(&pair.reader_socket);
  auto first = ReadHttpResponse(&reader);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_EQ(first->body, "first streamed body");
  auto second = ReadHttpResponse(&reader);
  ASSERT_TRUE(second.ok()) << second.status();
  EXPECT_EQ(second->body, "second body");
}

TEST(ChunkedClientTest, RejectsMalformedChunkSizes) {
  Pair pair;
  ASSERT_TRUE(pair.feeder
                  .WriteAll("HTTP/1.1 200 OK\r\n"
                            "Transfer-Encoding: chunked\r\n"
                            "\r\n"
                            "zz\r\nbody\r\n0\r\n\r\n")
                  .ok());
  BufferedReader reader(&pair.reader_socket);
  EXPECT_FALSE(ReadHttpResponse(&reader).ok());
}

TEST(ChunkedClientTest, RejectsOverflowingAndOversizedChunkSizes) {
  // 2^64 wraps size_t to 0 — which must NOT read as the terminal chunk.
  for (const char* size_line : {"10000000000000000", "ffffffffffffffff",
                                "fffffff0"}) {
    Pair pair;
    ASSERT_TRUE(pair.feeder
                    .WriteAll(std::string("HTTP/1.1 200 OK\r\n"
                                          "Transfer-Encoding: chunked\r\n"
                                          "\r\n") +
                              size_line + "\r\npayload\r\n0\r\n\r\n")
                    .ok());
    BufferedReader reader(&pair.reader_socket);
    auto resp = ReadHttpResponse(&reader);
    ASSERT_FALSE(resp.ok()) << size_line;
    EXPECT_NE(resp.status().message().find("chunk size too large"),
              std::string::npos)
        << size_line;
  }
}

TEST(BufferedReaderTest, SplitsLinesAcrossReads) {
  Pair pair;
  ASSERT_TRUE(pair.feeder.WriteAll("line one\r\nline two\nline three").ok());
  pair.feeder.Close();
  BufferedReader reader(&pair.reader_socket);
  EXPECT_EQ(reader.ReadLine().value(), "line one");
  EXPECT_EQ(reader.ReadLine().value(), "line two");
  EXPECT_EQ(reader.ReadLine().value(), "line three");  // unterminated tail
  EXPECT_FALSE(reader.ReadLine().ok());                // EOF
}

TEST(HttpRequestParserTest, ParsesByteAtATime) {
  const std::string wire =
      "POST /query?stream=1 HTTP/1.1\r\n"
      "Host: t\r\n"
      "Content-Length: 14\r\n"
      "\r\n"
      "SLICE sa=sex=F";
  HttpRequestParser parser;
  for (char c : wire) {
    ASSERT_FALSE(parser.failed()) << parser.status();
    EXPECT_EQ(parser.Feed(std::string_view(&c, 1)), 1u);
  }
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(parser.request().method, "POST");
  EXPECT_EQ(parser.request().path, "/query");
  EXPECT_EQ(parser.request().Param("stream"), "1");
  EXPECT_EQ(parser.request().Header("host"), "t");
  EXPECT_EQ(parser.request().body, "SLICE sa=sex=F");
  EXPECT_TRUE(parser.request().keep_alive);
}

TEST(HttpRequestParserTest, SurvivesSplitsAtEveryBoundary) {
  const std::string wire =
      "GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n";
  // Every two-fragment split of the message must parse identically.
  for (size_t cut = 1; cut < wire.size(); ++cut) {
    HttpRequestParser parser;
    EXPECT_EQ(parser.Feed(wire.substr(0, cut)), cut);
    EXPECT_EQ(parser.Feed(wire.substr(cut)), wire.size() - cut);
    ASSERT_TRUE(parser.done()) << "cut at " << cut;
    EXPECT_EQ(parser.request().path, "/healthz");
    EXPECT_FALSE(parser.request().keep_alive);
  }
}

TEST(HttpRequestParserTest, StopsAtMessageEndForPipelining) {
  const std::string first =
      "POST /query HTTP/1.1\r\nContent-Length: 4\r\n\r\nTOPK";
  const std::string second = "GET /cubes HTTP/1.1\r\n\r\n";
  HttpRequestParser parser;
  // Both messages offered at once: Feed must stop at the first boundary
  // so the leftover bytes stay queued for the next request.
  EXPECT_EQ(parser.Feed(first + second), first.size());
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(parser.request().body, "TOPK");

  parser.Reset();
  EXPECT_FALSE(parser.done());
  EXPECT_EQ(parser.Feed(second), second.size());
  ASSERT_TRUE(parser.done());
  EXPECT_EQ(parser.request().method, "GET");
  EXPECT_EQ(parser.request().path, "/cubes");
  EXPECT_TRUE(parser.request().body.empty());
}

TEST(HttpRequestParserTest, AccumulatesABodySplitAcrossFeeds) {
  HttpRequestParser parser;
  const std::string head =
      "POST /query HTTP/1.1\r\nContent-Length: 10\r\n\r\n";
  EXPECT_EQ(parser.Feed(head), head.size());
  EXPECT_FALSE(parser.done());
  EXPECT_EQ(parser.Feed("12345"), 5u);
  EXPECT_FALSE(parser.done());
  EXPECT_FALSE(parser.failed());
  EXPECT_EQ(parser.Feed("67890"), 5u);
  EXPECT_TRUE(parser.done());
  EXPECT_EQ(parser.request().body, "1234567890");
}

TEST(HttpRequestParserTest, ErrorsCarryTheExactMessages) {
  // The parser's status message is the body of scubed's 400 response
  // ({"error":"<message>"}), so each rejection's text is pinned here.
  struct Case {
    const char* wire;
    StatusCode code;
    const char* message;
  };
  for (const Case& c : {
           Case{"BROKEN\r\n\r\n", StatusCode::kParseError,
                "malformed request line: BROKEN"},
           Case{"GET / HTTP/9.9\r\n\r\n", StatusCode::kParseError,
                "unsupported protocol: HTTP/9.9"},
           Case{"POST /query HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
                StatusCode::kParseError, "bad Content-Length: abc"},
           Case{"POST /query HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n",
                StatusCode::kInvalidArgument,
                "request body of 999999999 bytes exceeds the limit of "
                "4194304"},
           Case{"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
                StatusCode::kParseError, "malformed header: no-colon-here"},
       }) {
    const Status status = MustReject(c.wire);
    EXPECT_EQ(status.code(), c.code) << c.wire;
    EXPECT_EQ(status.message(), c.message) << c.wire;
  }
}

TEST(HttpRequestParserTest, ResetClearsFailureState) {
  HttpRequestParser parser;
  parser.Feed("BROKEN\r\n");
  ASSERT_TRUE(parser.failed());
  parser.Reset();
  EXPECT_FALSE(parser.failed());
  EXPECT_EQ(parser.Feed("GET / HTTP/1.1\r\n\r\n"),
            std::string("GET / HTTP/1.1\r\n\r\n").size());
  EXPECT_TRUE(parser.done());
}

TEST(ListenSocketTest, LoopbackConnectAndEcho) {
  auto listener = ListenSocket::Bind(0, /*loopback_only=*/true);
  ASSERT_TRUE(listener.ok()) << listener.status();
  ASSERT_GT(listener->port(), 0);

  auto client = Connect("127.0.0.1", listener->port());
  ASSERT_TRUE(client.ok()) << client.status();
  // The listener is still blocking, so TryAccept waits for the client.
  Socket served;
  Status error;
  ASSERT_EQ(listener->TryAccept(&served, &error), IoOutcome::kReady) << error;

  ASSERT_TRUE(client->WriteAll("ping\n").ok());
  BufferedReader reader(&served);
  EXPECT_EQ(reader.ReadLine().value(), "ping");
}

}  // namespace
}  // namespace net
}  // namespace scube

#include "workloads.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <optional>
#include <thread>

#include "cluster/partition.h"
#include "cluster/scatter.h"
#include "common/random.h"
#include "net/http.h"
#include "oracle.h"
#include "query/cube_store.h"
#include "query/service.h"
#include "server/server.h"
#include "support.h"

namespace perfbench {

namespace cube = scube::cube;
namespace net = scube::net;
namespace query = scube::query;
namespace server = scube::server;

[[noreturn]] void Die(const std::string& what, const scube::Status& status) {
  std::fprintf(stderr, "perfbench: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

namespace {

void SleepUntil(double t) {
  double now = NowSeconds();
  if (t > now) {
    std::this_thread::sleep_for(std::chrono::duration<double>(t - now));
  }
}

/// Counts attempted and failed ops; the same bookkeeping runs the load and
/// the oracle self-check.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

bool AnswerMatches(const std::string& body, const std::string& expected,
                   bool keep_cache_hit = false) {
  return Mask(body, keep_cache_hit) == expected;
}

/// Flips one character of an expected answer inside its result rows.
std::string Altered(std::string expected) {
  size_t pos = expected.find("\"rows\":");
  pos = pos == std::string::npos ? expected.size() / 2 : pos + 1;
  expected[pos] = expected[pos] == 'x' ? 'y' : 'x';
  return expected;
}

bool DigestMatches(const cube::CubeView& view, uint64_t expected) {
  return CubeDigest(view) == expected;
}

/// The digest half of the self-check: the expected digest passes, an
/// altered one is reported as a failed op.
bool DigestSelfCheck(const cube::CubeView& view, uint64_t expected) {
  Tally tally;
  tally.Record(DigestMatches(view, expected));
  tally.Record(DigestMatches(view, expected ^ 1));
  return tally.attempted == 2 && tally.failed == 1;
}

/// The answer half: the body must match its oracle and not the altered one.
bool AnswerSelfCheck(const std::string& body, const std::string& expected,
                     bool keep_cache_hit) {
  Tally tally;
  tally.Record(AnswerMatches(body, expected, keep_cache_hit));
  tally.Record(AnswerMatches(body, Altered(expected), keep_cache_hit));
  return tally.attempted == 2 && tally.failed == 1;
}

/// Measurement window bookkeeping shared by every workload loop.
struct Window {
  double start = 0;  ///< measurement starts (after warm-up)
  double end = 0;
  explicit Window(double seconds)
      : start(NowSeconds() + kWarmupS), end(start + seconds) {}
};

// ---------------------------------------------------------------------------
// The served cube (explore, export, scatter).
// ---------------------------------------------------------------------------

struct Served {
  scube::datagen::GeneratedScenario scenario;
  cube::SegregationCube cube;  ///< build-side copy, republished by explore
  std::unique_ptr<query::CubeStore> store;
  query::CubeStore::Snapshot view;

  void Setup(uint64_t seed) {
    scenario = GenerateInputs(seed);
    auto built = scube::pipeline::RunPipeline(
        scenario.inputs, CubeConfig(scube::fpm::MineMode::kAll, kBuildThreads));
    if (!built.ok()) Die("served cube build", built.status());
    cube = std::move(built->cube);
    store = std::make_unique<query::CubeStore>();
    store->Publish("default", cube, kBuildThreads);
    view = store->Get("default");
  }
};

/// \brief A workload over the served cube (explore, export, scatter).
class ServedWorkload : public Workload {
 public:
  const scube::datagen::GeneratedScenario& inputs() const override {
    return served_.scenario;
  }
  scube::fpm::MineMode mode() const override {
    return scube::fpm::MineMode::kAll;
  }
  const cube::SegregationCube& cube() const override { return served_.cube; }

 protected:
  Served served_;
};

ServeCounters CountersOf(const query::QueryService& service) {
  ServeCounters c;
  query::ResultCache::Stats cache = service.cache_stats();
  query::ServiceStats stats = service.stats();
  c.cache_hits = cache.hits;
  c.cache_misses = cache.misses;
  c.accepted = stats.accepted;
  c.rejected = stats.rejected;
  return c;
}

/// Seed of the query generator, derived from the workload seed.
uint64_t PoolSeed(uint64_t seed) { return seed * 0x9E3779B97F4A7C15ULL + 17; }

/// \brief Closed-loop buffered POST /query load over a text pool, with an
/// optional hot set drawn for one request in four. Shared by explore and
/// scatter.
Phase DriveQueries(uint16_t port, const std::vector<PoolText>& pool,
                   const std::vector<PoolText>& hot, uint64_t seed,
                   double seconds, bool traced,
                   const std::function<void(const Window&)>& beside) {
  std::vector<std::string> pool_req, pool_exp, hot_req, hot_exp;
  for (const PoolText& t : pool) {
    pool_req.push_back(HttpRequestBytes("/query", t.text));
    pool_exp.push_back(BufferedEnvelope(t));
  }
  for (const PoolText& t : hot) {
    hot_req.push_back(HttpRequestBytes("/query", t.text));
    hot_exp.push_back(BufferedEnvelope(t));
  }
  struct ClientOut {
    std::vector<double> latency_ms;
    Tally tally;
    uint64_t rows = 0;
  };
  std::vector<ClientOut> outs(kClients);
  Window window(seconds);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      scube::Rng rng(seed * 131 + c);
      Connection conn(port);
      ClientOut& out = outs[c];
      for (;;) {
        double t0 = NowSeconds();
        if (t0 >= window.end) break;
        bool measuring = t0 >= window.start;
        bool from_hot = !hot.empty() && rng.NextBounded(4) == 0;
        size_t i = rng.NextBounded(from_hot ? hot.size() : pool.size());
        const std::string& request = from_hot ? hot_req[i] : pool_req[i];
        const std::string& expected = from_hot ? hot_exp[i] : pool_exp[i];
        std::optional<Span> span;
        if (traced && measuring) span.emplace("client.query");
        auto resp = Exchange(&conn, request);
        double ms = (NowSeconds() - t0) * 1e3;
        span.reset();
        bool ok = resp.ok() && resp->status == 200 &&
                  AnswerMatches(resp->body, expected);
        if (!measuring) continue;
        out.tally.Record(ok);
        if (ok) {
          out.latency_ms.push_back(ms);
          out.rows += from_hot ? hot[i].rows : pool[i].rows;
        }
      }
    });
  }
  if (beside) beside(window);
  SleepUntil(window.start);
  double cpu0 = ProcessCpuSeconds();
  SleepUntil(window.end);
  double cpu1 = ProcessCpuSeconds();
  for (std::thread& t : threads) t.join();
  Phase phase;
  phase.seconds = seconds;
  phase.cpu_seconds = cpu1 - cpu0;
  for (ClientOut& out : outs) {
    phase.latency_ms.insert(phase.latency_ms.end(), out.latency_ms.begin(),
                            out.latency_ms.end());
    phase.attempted += out.tally.attempted;
    phase.failed += out.tally.failed;
    phase.rows += out.rows;
  }
  return phase;
}

/// A buffered answer fetched once, for the self-check.
std::string FetchBuffered(uint16_t port, const std::string& text) {
  Connection conn(port);
  auto resp = Exchange(&conn, HttpRequestBytes("/query", text));
  return resp.ok() ? resp->body : "";
}

// ---------------------------------------------------------------------------
// build
// ---------------------------------------------------------------------------

class BuildWorkload : public Workload {
 public:
  void Setup(uint64_t seed) override {
    scenario_ = GenerateInputs(seed);
    auto built = scube::pipeline::RunPipeline(
        scenario_.inputs, CubeConfig(scube::fpm::MineMode::kClosed, 1));
    if (!built.ok()) Die("reference build", built.status());
    reference_cube_ = std::move(built->cube);
    reference_digest_ = CubeDigest(reference_cube_.Seal());
  }

  Phase Run(double seconds, bool traced) override {
    Window window(seconds);
    Phase phase;
    double cpu0 = 0;
    bool measuring = false;
    for (;;) {
      double t0 = NowSeconds();
      if (t0 >= window.end) break;
      if (!measuring && t0 >= window.start) {
        measuring = true;
        cpu0 = ProcessCpuSeconds();
        phase.seconds = -t0;
      }
      uint64_t cells = 0;
      std::optional<Span> span;
      if (traced && measuring) span.emplace("client.build");
      bool ok = BuildAndPublish(&cells);
      double ms = (NowSeconds() - t0) * 1e3;
      span.reset();
      if (!measuring) continue;
      phase.attempted += 1;
      if (!ok) {
        phase.failed += 1;
        continue;
      }
      phase.latency_ms.push_back(ms);
      phase.rows += cells;
    }
    phase.cpu_seconds = ProcessCpuSeconds() - cpu0;
    phase.seconds += NowSeconds();
    return phase;
  }

  bool SelfCheck() override {
    const cube::CubeView view = reference_cube_.Seal();
    const std::vector<std::string> texts = {"TOPK 20 BY gini"};
    std::vector<PoolText> first = RenderOracle(view, texts, false);
    std::vector<PoolText> again = RenderOracle(view, texts, false);
    if (first.empty() || again.empty()) return false;
    return AnswerSelfCheck(again[0].json, first[0].json, false) &&
           DigestSelfCheck(view, reference_digest_);
  }

  const scube::datagen::GeneratedScenario& inputs() const override {
    return scenario_;
  }
  scube::fpm::MineMode mode() const override {
    return scube::fpm::MineMode::kClosed;
  }
  const cube::SegregationCube& cube() const override { return reference_cube_; }

 private:
  /// One op: RunPipeline + CubeStore::Publish with kBuildThreads threads;
  /// true when the published cube has the reference digest.
  bool BuildAndPublish(uint64_t* cells) {
    auto built = scube::pipeline::RunPipeline(
        scenario_.inputs,
        CubeConfig(scube::fpm::MineMode::kClosed, kBuildThreads));
    if (!built.ok()) return false;
    store_.Publish("build", std::move(built->cube), kBuildThreads);
    query::CubeStore::Snapshot view = store_.Get("build");
    *cells = view->NumCells();
    return DigestMatches(*view, reference_digest_);
  }

  scube::datagen::GeneratedScenario scenario_;
  cube::SegregationCube reference_cube_;
  uint64_t reference_digest_ = 0;
  query::CubeStore store_{1};
};

// ---------------------------------------------------------------------------
// explore
// ---------------------------------------------------------------------------

class ExploreWorkload : public ServedWorkload {
 public:
  void Setup(uint64_t seed) override {
    seed_ = seed;
    served_.Setup(seed);
    std::vector<PoolText> texts = RenderOracle(
        *served_.view,
        GeneratePool(*served_.view, PoolSeed(seed), kPoolSize + kHotSetSize),
        false);
    size_t hot = std::min(kHotSetSize, texts.size() / 2);
    hot_.assign(texts.end() - static_cast<long>(hot), texts.end());
    texts.resize(texts.size() - hot);
    pool_ = std::move(texts);
    query::ServiceOptions options;
    options.num_workers = kClients;
    options.cache_capacity = kCacheCapacity;
    service_ = std::make_unique<query::QueryService>(served_.store.get(),
                                                     options);
    server_ = StartServer(service_.get(), 2 * kClients);
  }

  Phase Run(double seconds, bool traced) override {
    std::atomic<bool> stop{false};
    std::vector<double> publish_ms;
    std::thread publisher;
    Phase phase = DriveQueries(
        server_->port(), pool_, hot_, seed_ + run_++, seconds, traced,
        [&](const Window& window) {
          publisher = std::thread([&, window] {
            double next = NowSeconds() + kPublishPeriodS;
            while (!stop.load()) {
              while (!stop.load() && NowSeconds() < next) {
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
              }
              if (stop.load()) break;
              next += kPublishPeriodS;
              cube::SegregationCube copy = served_.cube;
              double t0 = NowSeconds();
              service_->PublishAndWarm("default", std::move(copy));
              double ms = (NowSeconds() - t0) * 1e3;
              if (t0 >= window.start && t0 < window.end) {
                publish_ms.push_back(ms);
              }
            }
          });
        });
    stop.store(true);
    publisher.join();
    phase.publish_ms = std::move(publish_ms);
    return phase;
  }

  bool SelfCheck() override {
    if (pool_.empty()) return false;
    std::string body = FetchBuffered(server_->port(), pool_[0].text);
    return AnswerSelfCheck(body, BufferedEnvelope(pool_[0]), false) &&
           DigestSelfCheck(*served_.view, CubeDigest(*served_.view));
  }

  ServeCounters counters() const override { return CountersOf(*service_); }

 private:
  uint64_t seed_ = 0;
  uint64_t run_ = 0;
  std::vector<PoolText> pool_;
  std::vector<PoolText> hot_;
  std::unique_ptr<query::QueryService> service_;
  std::unique_ptr<server::ScubedServer> server_;  ///< stops before service_
};

// ---------------------------------------------------------------------------
// export
// ---------------------------------------------------------------------------

class ExportWorkload : public ServedWorkload {
 public:
  void Setup(uint64_t seed) override {
    served_.Setup(seed);
    wide_ = RenderOracle(
        *served_.view,
        GenerateWide(*served_.view, kExportCacheMaxRows, kWideTexts,
                     kExportPageRows),
        true);
    if (wide_.empty()) {
      Die("export", scube::Status::FailedPrecondition(
                        "no answer wider than cache_max_rows"));
    }
    for (const PoolText& text : wide_) {
      wide_json_.push_back(StreamedJsonEnvelope(text));
    }
    query::ServiceOptions options;
    options.num_workers = kClients;
    options.cache_capacity = kCacheCapacity;
    options.cache_max_rows = kExportCacheMaxRows;
    service_ = std::make_unique<query::QueryService>(served_.store.get(),
                                                     options);
    server_ = StartServer(service_.get(), 2);
  }

  Phase Run(double seconds, bool traced) override {
    for (const PoolText& text : wide_) {
      std::printf("# export answer: %s (%llu rows)\n", text.text.c_str(),
                  static_cast<unsigned long long>(text.rows));
    }
    Window window(seconds);
    Connection conn(server_->port());
    Phase phase;
    double cpu0 = 0;
    bool measuring = false;
    // One op is one pass over the export set: every wide answer streamed
    // once as JSON and once as CSV. Every pass does the same work, so the
    // op latency is unimodal and its median repeats.
    for (;;) {
      double t0 = NowSeconds();
      if (t0 >= window.end) break;
      if (!measuring && t0 >= window.start) {
        measuring = true;
        cpu0 = ProcessCpuSeconds();
        phase.seconds = -t0;
      }
      std::optional<Span> span;
      if (traced && measuring) span.emplace("client.export");
      Tally tally;
      uint64_t rows = 0;
      std::vector<double> ttfb;
      for (size_t i = 0; i < wide_.size(); ++i) {
        for (bool csv : {false, true}) {
          double ttfb_ms = 0;
          std::string body;
          bool ok = Stream(&conn, wide_[i].text, csv, &ttfb_ms, &body) &&
                    AnswerMatches(body, csv ? wide_[i].csv : wide_json_[i],
                                  /*keep_cache_hit=*/true);
          tally.Record(ok);
          ttfb.push_back(ttfb_ms);
          rows += wide_[i].rows;
        }
      }
      double ms = (NowSeconds() - t0) * 1e3;
      span.reset();
      if (!measuring) continue;
      phase.attempted += tally.attempted;
      phase.failed += tally.failed;
      if (tally.failed > 0) continue;
      phase.latency_ms.push_back(ms);
      phase.ttfb_ms.insert(phase.ttfb_ms.end(), ttfb.begin(), ttfb.end());
      phase.rows += rows;
    }
    phase.cpu_seconds = ProcessCpuSeconds() - cpu0;
    phase.seconds += NowSeconds();
    return phase;
  }

  bool SelfCheck() override {
    Connection conn(server_->port());
    double ttfb_ms = 0;
    std::string body;
    if (!Stream(&conn, wide_[0].text, false, &ttfb_ms, &body)) return false;
    return AnswerSelfCheck(body, wide_json_[0], true) &&
           DigestSelfCheck(*served_.view, CubeDigest(*served_.view));
  }

  ServeCounters counters() const override { return CountersOf(*service_); }

 private:
  /// One streamed answer; `ttfb_ms` is the time until the status line.
  static bool Stream(Connection* conn, const std::string& text, bool csv,
                     double* ttfb_ms, std::string* body) {
    double t0 = NowSeconds();
    std::string request = HttpRequestBytes(
        csv ? "/query?stream=1&format=csv" : "/query?stream=1&format=json",
        text);
    if (!conn->socket.WriteAll(request).ok()) {
      conn->Reopen();
      return false;
    }
    auto status_line = conn->reader->ReadLine();
    if (!status_line.ok()) {
      conn->Reopen();
      return false;
    }
    *ttfb_ms = (NowSeconds() - t0) * 1e3;
    auto resp =
        net::ReadHttpResponseAfterStatusLine(conn->reader.get(), *status_line);
    if (!resp.ok()) {
      conn->Reopen();
      return false;
    }
    *body = std::move(resp->body);
    return resp->status == 200;
  }

  std::vector<PoolText> wide_;
  std::vector<std::string> wide_json_;  ///< expected JSON envelopes
  std::unique_ptr<query::QueryService> service_;
  std::unique_ptr<server::ScubedServer> server_;
};

// ---------------------------------------------------------------------------
// scatter
// ---------------------------------------------------------------------------

class ScatterWorkload : public ServedWorkload {
 public:
  void Setup(uint64_t seed) override {
    seed_ = seed;
    served_.Setup(seed);
    pool_ = RenderOracle(
        *served_.view, GeneratePool(*served_.view, PoolSeed(seed), kPoolSize),
        false);
    scube::cluster::PartitionOptions partition;
    partition.num_shards = kShards;
    std::vector<cube::SegregationCube> parts =
        scube::cluster::PartitionCube(*served_.view, partition);
    std::vector<scube::cluster::ShardSpec> specs;
    for (cube::SegregationCube& part : parts) {
      shards_.push_back(StartShard(std::move(part), kCacheCapacity));
      specs.push_back(shards_.back()->spec);
    }
    scatter_ =
        std::make_unique<scube::cluster::ScatterExecutor>(std::move(specs));
    router_ = StartServer(scatter_.get(), 2 * kClients);
  }

  Phase Run(double seconds, bool traced) override {
    return DriveQueries(router_->port(), pool_, {}, seed_ + run_++, seconds,
                        traced, nullptr);
  }

  bool SelfCheck() override {
    if (pool_.empty()) return false;
    std::string body = FetchBuffered(router_->port(), pool_[0].text);
    return AnswerSelfCheck(body, BufferedEnvelope(pool_[0]), false) &&
           DigestSelfCheck(*served_.view, CubeDigest(*served_.view));
  }

  ServeCounters counters() const override {
    ServeCounters sum;
    for (const auto& node : shards_) {
      ServeCounters c = CountersOf(*node->service);
      sum.cache_hits += c.cache_hits;
      sum.cache_misses += c.cache_misses;
      sum.accepted += c.accepted;
      sum.rejected += c.rejected;
    }
    return sum;
  }

 private:
  uint64_t seed_ = 0;
  uint64_t run_ = 0;
  std::vector<PoolText> pool_;
  std::vector<std::unique_ptr<ShardNode>> shards_;
  std::unique_ptr<scube::cluster::ScatterExecutor> scatter_;
  std::unique_ptr<server::ScubedServer> router_;  ///< stops first
};

}  // namespace

Connection::Connection(uint16_t p) : port(p) { Reopen(); }

void Connection::Reopen() {
  reader.reset();
  socket = ConnectLoopback(port);
  reader = std::make_unique<net::BufferedReader>(&socket);
}

scube::Result<net::HttpClientResponse> Exchange(Connection* conn,
                                                const std::string& request) {
  scube::Status written = conn->socket.WriteAll(request);
  if (!written.ok()) {
    conn->Reopen();
    return written;
  }
  auto resp = net::ReadHttpResponse(conn->reader.get());
  if (!resp.ok()) conn->Reopen();
  return resp;
}

std::unique_ptr<server::ScubedServer> StartServer(query::QueryBackend* backend,
                                                  size_t dispatch_threads) {
  server::ServerOptions options;
  options.port = 0;
  options.loopback_only = true;
  options.frontend = server::Frontend::kReactor;
  options.num_connection_threads = dispatch_threads;
  options.idle_poll_seconds = 0.1;
  auto srv = std::make_unique<server::ScubedServer>(backend, options);
  scube::Status started = srv->Start();
  if (!started.ok()) Die("server start", started);
  return srv;
}

std::unique_ptr<ShardNode> StartShard(cube::SegregationCube part,
                                      size_t cache_capacity) {
  auto node = std::make_unique<ShardNode>();
  node->store = std::make_unique<query::CubeStore>();
  node->store->Publish("default", std::move(part), 1);
  query::ServiceOptions options;
  options.num_workers = kClients;
  options.cache_capacity = cache_capacity;
  node->service =
      std::make_unique<query::QueryService>(node->store.get(), options);
  node->server = StartServer(node->service.get(), kClients);
  node->spec.replicas.push_back({"127.0.0.1", node->server->port()});
  return node;
}

scube::pipeline::PipelineConfig CubeConfig(scube::fpm::MineMode mode,
                                           size_t threads) {
  scube::pipeline::PipelineConfig config;
  config.unit_source = scube::pipeline::UnitSource::kGroupClusters;
  config.method = scube::pipeline::ClusterMethod::kThreshold;
  config.threshold.min_weight = 2.0;
  config.cube.min_support = 20;
  config.cube.mode = mode;
  config.cube.max_sa_items = 3;
  config.cube.max_ca_items = 2;
  config.cube.num_threads = threads;
  return config;
}

scube::datagen::GeneratedScenario GenerateInputs(uint64_t seed) {
  auto scenario = scube::datagen::GenerateScenario(
      scube::datagen::ItalianConfig(kScale, seed));
  if (!scenario.ok()) Die("scenario", scenario.status());
  return std::move(scenario).value();
}

std::string HttpRequestBytes(const std::string& target,
                             const std::string& body) {
  return "POST " + target +
         " HTTP/1.1\r\nHost: localhost\r\nContent-Type: text/plain\r\n"
         "Content-Length: " +
         std::to_string(body.size()) + "\r\nConnection: keep-alive\r\n\r\n" +
         body;
}

net::Socket ConnectLoopback(uint16_t port) {
  auto connected = net::Connect("127.0.0.1", port);
  if (!connected.ok()) Die("connect", connected.status());
  net::Socket socket = std::move(connected).value();
  socket.SetNoDelay();
  return socket;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "build") return std::make_unique<BuildWorkload>();
  if (name == "explore") return std::make_unique<ExploreWorkload>();
  if (name == "export") return std::make_unique<ExportWorkload>();
  if (name == "scatter") return std::make_unique<ScatterWorkload>();
  return nullptr;
}

}  // namespace perfbench

// The four SCube benchmark workloads. Each one is set up from a seed
// (inputs generated, cube built and sealed, servers started, oracle
// rendered), then driven for a fixed time while every answer is checked.
//
//   build    RunPipeline + CubeStore::Publish of a closed-itemset cube
//            (4 fill/seal threads); every build must reproduce the digest
//            of a 1-thread build made in setup.
//   explore  4 closed-loop keep-alive clients against a reactor scubed over
//            the served (kAll) cube: 3 of 4 requests from a large pool of
//            distinct texts, 1 of 4 from a 32-text hot set, while a
//            publisher thread runs PublishAndWarm at a fixed period.
//   export   1 closed-loop client streaming (?stream=1) the widest answers,
//            alternating JSON and CSV; every answer exceeds the service's
//            cache_max_rows, so none is replayed from the cache. One op is
//            one pass over the export set (each answer in both formats).
//   scatter  the explore pool (no hot set, no publisher) through a
//            ScatterExecutor router behind a reactor scubed, over 4
//            hash-partitioned in-process shards of the served cube.

#ifndef SCUBE_PERFBENCH_WORKLOADS_H_
#define SCUBE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cluster/shard_client.h"
#include "common/result.h"
#include "common/status.h"
#include "cube/cube.h"
#include "datagen/scenarios.h"
#include "fpm/miner.h"
#include "net/http.h"
#include "net/socket.h"
#include "query/backend.h"
#include "query/cube_store.h"
#include "query/service.h"
#include "scube/pipeline.h"
#include "server/server.h"

namespace perfbench {

/// Scenario scale shared by every workload (Italian replica).
inline constexpr double kScale = 0.005;
/// Closed-loop clients of the explore and scatter workloads.
inline constexpr size_t kClients = 4;
/// Fill and seal threads of the timed build.
inline constexpr size_t kBuildThreads = 4;
/// Distinct texts in the explore / scatter pool.
inline constexpr size_t kPoolSize = 1500;
/// Texts in the explore hot set (one request in four).
inline constexpr size_t kHotSetSize = 32;
/// Result-cache entries of every serving QueryService.
inline constexpr size_t kCacheCapacity = 256;
/// cache_max_rows of the export server; every export answer is wider.
inline constexpr uint64_t kExportCacheMaxRows = 1000;
/// Widest answers the export client cycles through.
inline constexpr size_t kWideTexts = 4;
/// Rows of each export answer: every one is paged to the same width, so a
/// pass over the export set does the same work whatever the seed.
inline constexpr uint64_t kExportPageRows = 4000;
/// Shards of the scatter workload.
inline constexpr size_t kShards = 4;
/// Period of the explore publisher.
inline constexpr double kPublishPeriodS = 0.5;
/// Untimed warm-up before every measured phase.
inline constexpr double kWarmupS = 1.0;

/// \brief What one measured phase produced.
struct Phase {
  std::vector<double> latency_ms;  ///< one per successful op
  /// Requests (builds, queries, streamed answers) made and failed.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rows = 0;  ///< cells built or answer rows delivered
  double seconds = 0;
  double cpu_seconds = 0;
  /// Workload-specific side measurements, printed as information.
  std::vector<double> publish_ms;
  std::vector<double> ttfb_ms;
};

/// \brief Layer counters read from the serving side after a phase.
struct ServeCounters {
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t accepted = 0;
  uint64_t rejected = 0;
};

/// The pipeline configuration every workload builds with: group clusters
/// from threshold clustering (min_weight 2), <= 3 SA and <= 2 CA items,
/// min_support 20.
scube::pipeline::PipelineConfig CubeConfig(scube::fpm::MineMode mode,
                                           size_t threads);

/// Generates the Italian replica registry for `seed`.
scube::datagen::GeneratedScenario GenerateInputs(uint64_t seed);

/// The raw HTTP request a client sends for `target` with `body`.
std::string HttpRequestBytes(const std::string& target,
                             const std::string& body);

/// Connects a keep-alive loopback client with TCP_NODELAY.
scube::net::Socket ConnectLoopback(uint16_t port);

/// Prints `what: status` to stderr and exits with code 1 (no result line).
[[noreturn]] void Die(const std::string& what, const scube::Status& status);

/// \brief A keep-alive loopback connection; the reader points at the
/// socket, so the pair lives at a fixed address.
struct Connection {
  explicit Connection(uint16_t p);
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;
  void Reopen();

  uint16_t port = 0;
  scube::net::Socket socket;
  std::unique_ptr<scube::net::BufferedReader> reader;
};

/// Sends one request and reads the whole response; reconnects after a
/// transport failure (the op still counts as failed).
scube::Result<scube::net::HttpClientResponse> Exchange(
    Connection* conn, const std::string& request);

/// Starts a loopback reactor scubed over `backend` on an ephemeral port.
std::unique_ptr<scube::server::ScubedServer> StartServer(
    scube::query::QueryBackend* backend, size_t dispatch_threads);

/// \brief One in-process shard scubed over its own store. Members stop in
/// reverse order: server, then service, then store.
struct ShardNode {
  std::unique_ptr<scube::query::CubeStore> store;
  std::unique_ptr<scube::query::QueryService> service;
  std::unique_ptr<scube::server::ScubedServer> server;
  scube::cluster::ShardSpec spec;  ///< how a router reaches it
};

/// Publishes `part` as "default" on a fresh shard node and starts it.
std::unique_ptr<ShardNode> StartShard(scube::cube::SegregationCube part,
                                      size_t cache_capacity);

/// \brief One workload: Setup once, then Run phases.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Generates the inputs for `seed` and readies everything a phase needs.
  virtual void Setup(uint64_t seed) = 0;

  /// Warms up, then measures for `seconds`. With `traced`, every op is
  /// recorded as a span in the global SpanLog.
  virtual Phase Run(double seconds, bool traced) = 0;

  /// Feeds the oracle one deliberately altered expected answer and one
  /// altered cube digest; true when both are reported as failed ops and
  /// the unaltered ones pass.
  virtual bool SelfCheck() = 0;

  /// The inputs and the cube this workload serves or builds, for the
  /// traced run's per-layer ledger.
  virtual const scube::datagen::GeneratedScenario& inputs() const = 0;
  virtual scube::fpm::MineMode mode() const = 0;
  virtual const scube::cube::SegregationCube& cube() const = 0;

  /// Serving-side counters accumulated so far (zero for build).
  virtual ServeCounters counters() const { return {}; }
};

/// "build", "explore", "export" or "scatter"; nullptr for other names.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

}  // namespace perfbench

#endif  // SCUBE_PERFBENCH_WORKLOADS_H_

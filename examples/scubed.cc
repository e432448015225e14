// scubed: the SCube serving daemon — SCubeQL over HTTP/1.1 and a
// newline-delimited line protocol, with admission control, per-query
// deadlines and publish-time cache warming.
//
// Run:  ./scubed --demo                      serve the demo cubes on :8080
//       ./scubed --demo --port 0             kernel-assigned port (printed)
//       ./scubed --port 9000 --conns 8 --queue 128 --deadline-ms 250
//
// Flags:
//   --port N          TCP port (default 8080; 0 = kernel-assigned)
//   --queue N         admission bound: query executions in flight; a
//                     statement beyond it is shed with 503 + Retry-After
//                     (default 256)
//   --deadline-ms D   default per-query deadline, 0 = unbounded
//                     (default 1000)
//   --cache N         result-cache entries (default 512)
//   --conns N         dispatch pool size: threads running the route
//                     handlers and the queries they execute (default 8).
//                     One epoll event loop drives every socket, so 10k+
//                     mostly-idle keep-alive connections cost fds, not
//                     threads
//   --idle-timeout-ms D
//                     close keep-alive connections idle for D ms (default
//                     0 = derive from the idle-poll budget, 60 s)
//   --scale S         demo scenario scale (default 0.002)
//   --threads N       cube build + publish-seal threads (1 = sequential,
//                     0 = all hardware threads; default 1)
//   --slow-query-ms D log requests slower than D ms as one JSON line with
//                     their span tree (default 0 = off)
//   --trace           trace every request (spans cost a few clock reads;
//                     without this, only ?debug=trace requests and — when
//                     enabled — slow-query-log candidates are traced)
//   --demo            build + publish the demo cubes before serving
//
// Sharded serving (see src/cluster/): N shard processes each hold one
// partition of every cube, a router process fans queries out and k-way
// merges the shard streams back into the exact single-node answer.
//
//   --shard-index I   with --demo: publish only shard I of the partitioned
//   --shard-count N   demo cubes (context-hash partitioning, ghost cells
//                     included); requires 0 <= I < N
//   --partition P     partitioning strategy: hash (default) or range
//   --shards SPEC     router mode: no local cubes; scatter every query to
//                     the listed shard backends. SPEC is host:port pairs,
//                     comma-separated between shards, '|'-separated
//                     between replicas of one shard:
//                       --shards localhost:7101,localhost:7102
//                       --shards a:7101|b:7101,a:7102|b:7102
//
//   # 3-shard demo topology on one machine:
//   ./scubed --demo --port 7101 --shard-index 0 --shard-count 3 &
//   ./scubed --demo --port 7102 --shard-index 1 --shard-count 3 &
//   ./scubed --demo --port 7103 --shard-index 2 --shard-count 3 &
//   ./scubed --port 8080 --shards localhost:7101,localhost:7102,localhost:7103
//
// Talk to it:
//   curl localhost:8080/healthz
//   curl -X POST localhost:8080/query --data 'TOPK 5 BY dissimilarity WHERE T >= 30'
//   curl -X POST 'localhost:8080/query?debug=trace' --data 'TOPK 5 BY gini'
//   curl -X POST 'localhost:8080/query?format=csv' --data 'SLICE sa=gender=F'
//   curl localhost:8080/metrics
//   printf 'TOPK 3 BY gini\nQUIT\n' | nc localhost 8080     (line protocol)
//
// Streaming (chunked transfer encoding, O(1) response buffering; one
// statement per request; ?cursor= resumes the next LIMIT'ed page):
//   curl -N -X POST 'localhost:8080/query?stream=1' --data 'DICE sa=gender=F'
//   curl -N -X POST 'localhost:8080/query?stream=1' --data 'DICE sa=gender=F LIMIT 100'
//   curl -N -X POST "localhost:8080/query?stream=1&cursor=$TOKEN" --data 'DICE sa=gender=F LIMIT 100'
//   curl -N -X POST 'localhost:8080/query?stream=1&format=csv' -OJ --data 'SLICE sa=gender=F'

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>

#include "cluster/partition.h"
#include "cluster/scatter.h"
#include "cluster/shard_client.h"
#include "datagen/scenarios.h"
#include "query/cube_store.h"
#include "query/service.h"
#include "scube/pipeline.h"
#include "server/server.h"

using namespace scube;

namespace {

volatile std::sig_atomic_t g_stop = 0;

void HandleSignal(int) { g_stop = 1; }

void WaitForSignal() {
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  while (!g_stop) {
    struct timespec ts = {0, 100 * 1000 * 1000};  // 100 ms
    nanosleep(&ts, nullptr);
  }
}

/// \brief Which slice of each demo cube this process serves.
struct ShardConfig {
  size_t index = 0;
  size_t count = 1;  ///< 1 = unsharded (publish the whole cube)
  cluster::PartitionStrategy strategy = cluster::PartitionStrategy::kHash;
};

/// Publishes `cube` — whole, or just this process's partition of it.
void PublishMaybeSharded(query::QueryService* service, const char* name,
                         cube::SegregationCube cube, const ShardConfig& shard,
                         size_t build_threads) {
  if (shard.count <= 1) {
    std::printf("cube '%s': %zu cells (%zu defined)\n", name, cube.NumCells(),
                cube.NumDefinedCells());
    service->PublishAndWarm(name, std::move(cube));
    return;
  }
  cube::CubeView view = std::move(cube).Seal(build_threads);
  cluster::PartitionOptions options;
  options.num_shards = shard.count;
  options.strategy = shard.strategy;
  cluster::PartitionStats stats;
  std::vector<cube::SegregationCube> shards =
      cluster::PartitionCube(view, options, &stats);
  std::printf("cube '%s': shard %zu/%zu owns %zu cells (+%zu ghosts)\n", name,
              shard.index, shard.count, stats.owned[shard.index],
              stats.ghosts[shard.index]);
  service->PublishAndWarm(name, std::move(shards[shard.index]));
}

bool BuildAndPublishDemo(query::QueryService* service, double scale,
                         size_t build_threads, const ShardConfig& shard) {
  auto scenario = datagen::GenerateScenario(datagen::ItalianConfig(scale));
  if (!scenario.ok()) {
    std::fprintf(stderr, "scenario: %s\n",
                 scenario.status().ToString().c_str());
    return false;
  }

  // Cube "default": the paper's main flow — cluster the projected company
  // graph and use communities as units.
  pipeline::PipelineConfig config;
  config.unit_source = pipeline::UnitSource::kGroupClusters;
  config.method = pipeline::ClusterMethod::kThreshold;
  config.threshold.min_weight = 2.0;
  config.cube.min_support = 20;
  config.cube.mode = fpm::MineMode::kClosed;
  config.cube.max_sa_items = 2;
  config.cube.max_ca_items = 1;
  config.cube.num_threads = build_threads;
  auto result = pipeline::RunPipeline(scenario->inputs, config);
  if (!result.ok()) {
    std::fprintf(stderr, "pipeline: %s\n", result.status().ToString().c_str());
    return false;
  }
  PublishMaybeSharded(service, "default", std::move(result->cube), shard,
                      build_threads);

  // Cube "sectors": industry sector as the unit.
  pipeline::PipelineConfig sectors;
  sectors.unit_source = pipeline::UnitSource::kGroupAttribute;
  sectors.group_unit_attribute = "sector";
  sectors.cube.min_support = 20;
  sectors.cube.mode = fpm::MineMode::kClosed;
  sectors.cube.max_sa_items = 2;
  sectors.cube.max_ca_items = 1;
  sectors.cube.num_threads = build_threads;
  auto sector_result = pipeline::RunPipeline(scenario->inputs, sectors);
  if (!sector_result.ok()) {
    std::fprintf(stderr, "pipeline: %s\n",
                 sector_result.status().ToString().c_str());
    return false;
  }
  PublishMaybeSharded(service, "sectors", std::move(sector_result->cube),
                      shard, build_threads);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  long port = 8080;
  query::ServiceOptions service_options;
  service_options.cache_capacity = 512;
  service_options.max_pending = 256;
  service_options.default_deadline_ms = 1000;
  server::ServerOptions server_options;
  double scale = 0.002;
  size_t build_threads = 1;
  bool demo = false;
  ShardConfig shard;
  std::string shards_spec;

  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--port") == 0) {
      port = std::atol(next("--port"));
    } else if (std::strcmp(argv[i], "--queue") == 0) {
      service_options.max_pending =
          static_cast<size_t>(std::atol(next("--queue")));
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0) {
      service_options.default_deadline_ms = std::atof(next("--deadline-ms"));
    } else if (std::strcmp(argv[i], "--cache") == 0) {
      service_options.cache_capacity =
          static_cast<size_t>(std::atol(next("--cache")));
    } else if (std::strcmp(argv[i], "--conns") == 0) {
      server_options.num_connection_threads =
          static_cast<size_t>(std::atol(next("--conns")));
    } else if (std::strcmp(argv[i], "--idle-timeout-ms") == 0) {
      server_options.idle_timeout_seconds =
          std::atof(next("--idle-timeout-ms")) / 1000.0;
    } else if (std::strcmp(argv[i], "--scale") == 0) {
      scale = std::atof(next("--scale"));
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      build_threads = static_cast<size_t>(std::atol(next("--threads")));
      service_options.seal_threads = build_threads;
    } else if (std::strcmp(argv[i], "--slow-query-ms") == 0) {
      server_options.slow_query_ms = std::atof(next("--slow-query-ms"));
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      server_options.trace_all = true;
    } else if (std::strcmp(argv[i], "--demo") == 0) {
      demo = true;
    } else if (std::strcmp(argv[i], "--shard-index") == 0) {
      shard.index = static_cast<size_t>(std::atol(next("--shard-index")));
    } else if (std::strcmp(argv[i], "--shard-count") == 0) {
      shard.count = static_cast<size_t>(std::atol(next("--shard-count")));
    } else if (std::strcmp(argv[i], "--partition") == 0) {
      const char* strategy = next("--partition");
      if (std::strcmp(strategy, "hash") == 0) {
        shard.strategy = cluster::PartitionStrategy::kHash;
      } else if (std::strcmp(strategy, "range") == 0) {
        shard.strategy = cluster::PartitionStrategy::kRange;
      } else {
        std::fprintf(stderr, "--partition must be hash or range, got %s\n",
                     strategy);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      shards_spec = next("--shards");
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (port < 0 || port > 65535) {
    std::fprintf(stderr, "bad port %ld\n", port);
    return 2;
  }
  server_options.port = static_cast<uint16_t>(port);
  if (shard.count == 0 || shard.index >= shard.count) {
    std::fprintf(stderr, "--shard-index %zu out of range for --shard-count "
                 "%zu\n", shard.index, shard.count);
    return 2;
  }

  // --- router mode: no local cubes, every query scatters to the shards.
  if (!shards_spec.empty()) {
    if (demo || shard.count > 1) {
      std::fprintf(stderr,
                   "--shards is a pure router mode; it excludes --demo and "
                   "--shard-index/--shard-count\n");
      return 2;
    }
    auto topology = cluster::ParseShardList(shards_spec);
    if (!topology.ok()) {
      std::fprintf(stderr, "--shards: %s\n",
                   topology.status().ToString().c_str());
      return 2;
    }
    cluster::ScatterOptions scatter_options;
    scatter_options.default_deadline_ms = service_options.default_deadline_ms;
    cluster::ScatterExecutor scatter(std::move(topology).value(),
                                     scatter_options);
    server::ScubedServer server(&scatter, server_options);
    Status started = server.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
      return 1;
    }
    std::printf("scubed router listening on port %u (%zu shards, default "
                "deadline %.0f ms)\n",
                server.port(), scatter.num_shards(),
                scatter_options.default_deadline_ms);
    std::printf("  curl localhost:%u/cubes\n", server.port());
    std::printf("  curl -X POST localhost:%u/query --data 'TOPK 5 BY "
                "dissimilarity WHERE T >= 30'\n", server.port());
    std::fflush(stdout);
    WaitForSignal();
    std::printf("shutting down\n");
    server.Stop();
    return 0;
  }

  query::CubeStore store;
  query::QueryService service(&store, service_options);
  if (demo && !BuildAndPublishDemo(&service, scale, build_threads, shard)) {
    return 1;
  }

  server::ScubedServer server(&service, server_options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "start: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("scubed listening on port %u (queue bound %zu, "
              "default deadline %.0f ms)\n",
              server.port(), service.options().max_pending,
              service.options().default_deadline_ms);
  if (shard.count > 1) {
    std::printf("  serving shard %zu of %zu (%s partitioning)\n", shard.index,
                shard.count,
                shard.strategy == cluster::PartitionStrategy::kHash
                    ? "hash"
                    : "range");
  }
  std::printf("  curl localhost:%u/healthz\n", server.port());
  std::printf("  curl -X POST localhost:%u/query --data 'TOPK 5 BY "
              "dissimilarity WHERE T >= 30'\n", server.port());
  std::fflush(stdout);

  WaitForSignal();
  std::printf("shutting down\n");
  server.Stop();
  service.Shutdown();
  return 0;
}

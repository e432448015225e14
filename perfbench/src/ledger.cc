#include "ledger.h"

#include <algorithm>
#include <cctype>
#include <optional>
#include <string>

#include "cluster/partition.h"
#include "cluster/scatter.h"
#include "cube/builder.h"
#include "etl/table_builder.h"
#include "graph/projection.h"
#include "graph/threshold_clustering.h"
#include "net/http.h"
#include "oracle.h"
#include "query/cube_store.h"
#include "query/parser.h"
#include "query/service.h"
#include "query/wire_format.h"
#include "relational/transactions.h"

namespace perfbench {

namespace cube = scube::cube;
namespace query = scube::query;

namespace {

constexpr int kBuildReps = 3;
constexpr size_t kLedgerTextsPerVerb = 24;
constexpr int kQueryReps = 5;
constexpr int kExportReps = 3;
constexpr size_t kScatterTexts = 6 * scube::query::kNumVerbs;
constexpr int kScatterReps = 3;
constexpr int kPublishReps = 3;

/// Seed of the ledger's own query sample (distinct from the load's pool).
uint64_t LedgerSeed(uint64_t seed) { return seed * 0x2545F4914F6CDD1DULL + 3; }

void Add(Ledger* ledger, const std::string& name, double value,
         const char* unit) {
  ledger->metrics.push_back({name, value, unit});
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// A JsonWriter/CsvWriter target that appends into a string the caller
/// reserved beforehand, so the sink's own growth is not counted as
/// serialisation allocations.
template <typename Writer>
struct Rendered {
  std::string bytes;
  Writer writer{[this](std::string_view data) {
    bytes.append(data);
    return true;
  }};
};

/// graph, etl, relational, fpm and cube: the pipeline's stages called one
/// by one, kBuildReps times with kBuildThreads fill/seal threads, then once
/// single-threaded for allocation counts and the fill speed-up.
void BuildLayers(const scube::datagen::GeneratedScenario& scenario,
                 scube::fpm::MineMode mode, Ledger* ledger) {
  const scube::pipeline::PipelineConfig config =
      CubeConfig(mode, kBuildThreads);
  std::vector<double> project, cluster, join, encode, mine, group, fill,
      fill_cpu, seal;
  cube::CubeBuildStats stats;
  uint64_t cells = 0, defined = 0;
  std::optional<scube::relational::EncodedRelation> encoded_last;
  for (int rep = 0; rep < kBuildReps; ++rep) {
    Span pipeline("ledger.pipeline");
    scube::graph::ProjectionOptions proj = config.projection;
    proj.date = config.date;
    proj.side = scube::graph::ProjectionSide::kGroups;
    Span project_span("graph.project");
    auto projection =
        scube::graph::ProjectBipartite(scenario.inputs.membership, proj);
    project.push_back(project_span.End() / 1e3);
    if (!projection.ok()) Die("ledger projection", projection.status());

    Span cluster_span("graph.cluster");
    auto clustering =
        scube::graph::ThresholdClustering(projection->graph, config.threshold);
    cluster.push_back(cluster_span.End() / 1e3);
    if (!clustering.ok()) Die("ledger clustering", clustering.status());

    scube::etl::TableBuilderOptions tb = config.table_builder;
    tb.date = config.date;
    Span join_span("etl.join");
    auto table = scube::etl::BuildFinalTable(scenario.inputs, *clustering, tb);
    join.push_back(join_span.End() / 1e3);
    if (!table.ok()) Die("ledger final table", table.status());

    Span encode_span("relational.encode");
    auto encoded = scube::relational::EncodeForAnalysis(*table);
    encode.push_back(encode_span.End() / 1e3);
    if (!encoded.ok()) Die("ledger encode", encoded.status());

    stats = cube::CubeBuildStats{};
    double cpu0 = ProcessCpuSeconds();
    Span build_span("cube.build");
    auto built = cube::BuildSegregationCube(*encoded, config.cube, &stats);
    build_span.End();
    double cpu_ms = (ProcessCpuSeconds() - cpu0) * 1e3;
    if (!built.ok()) Die("ledger cube build", built.status());
    mine.push_back(stats.seconds_mining * 1e3);
    group.push_back(stats.seconds_grouping * 1e3);
    fill.push_back(stats.seconds_filling * 1e3);
    // Mining and grouping run on the calling thread only, so their wall
    // time is their CPU time; the rest of the call's CPU is the fill's.
    double serial_s = stats.seconds_encoding + stats.seconds_mining +
                      stats.seconds_grouping;
    fill_cpu.push_back(cpu_ms - serial_s * 1e3);

    Span seal_span("cube.seal");
    cube::CubeView view = std::move(*built).Seal(kBuildThreads);
    seal.push_back(seal_span.End() / 1e3);
    cells = view.NumCells();
    defined = view.NumDefinedCells();
    encoded_last = std::move(encoded).value();
  }

  cube::CubeBuilderOptions single = config.cube;
  single.num_threads = 1;
  cube::CubeBuildStats single_stats;
  AllocScope build_allocs;
  auto built = cube::BuildSegregationCube(*encoded_last, single, &single_stats);
  uint64_t build_count = build_allocs.Read();
  if (!built.ok()) Die("ledger single-thread build", built.status());
  AllocScope seal_allocs;
  cube::CubeView view = std::move(*built).Seal(1);
  uint64_t seal_count = seal_allocs.Read();

  double fill_ms = Median(fill);
  Add(ledger, "graph.project_ms", Median(project), "ms");
  Add(ledger, "graph.cluster_ms", Median(cluster), "ms");
  Add(ledger, "etl.join_ms", Median(join), "ms");
  Add(ledger, "relational.encode_ms", Median(encode), "ms");
  Add(ledger, "fpm.mine_ms", Median(mine), "ms");
  Add(ledger, "cube.group_ms", Median(group), "ms");
  Add(ledger, "cube.fill_ms", fill_ms, "ms");
  Add(ledger, "cube.fill_cpu_ms", Median(fill_cpu), "ms");
  Add(ledger, "cube.fill_us_per_cell", Ratio(fill_ms * 1e3, cells), "us");
  Add(ledger, "cube.fill_speedup",
      Ratio(single_stats.seconds_filling * 1e3, fill_ms), "x");
  Add(ledger, "cube.seal_ms", Median(seal), "ms");
  Add(ledger, "fpm.itemsets", stats.mined_itemsets, "count");
  Add(ledger, "cube.cells", cells, "count");
  Add(ledger, "cube.cells_defined", defined, "count");
  Add(ledger, "cube.contexts", stats.contexts_memoized, "count");
  Add(ledger, "cube.cells_per_itemset", Ratio(cells, stats.mined_itemsets),
      "ratio");
  Add(ledger, "cube.build_allocs_per_cell",
      Ratio(build_count, view.NumCells()), "count");
  Add(ledger, "cube.seal_allocs_per_cell",
      Ratio(seal_count, view.NumCells()), "count");
}

/// net, query and server on the buffered request path: each sampled text
/// through the HTTP request parser, the SCubeQL parser, the executor walk
/// (into a counting sink, then into JsonWriter), QueryService::ExecuteOne
/// and a full HTTP round trip; differences of medians give the layers that
/// have no public entry point of their own.
void QueryLayers(const query::Executor& executor, query::QueryService* service,
                 uint16_t port, const std::vector<std::string>& texts,
                 Ledger* ledger) {
  std::vector<double> walk_us[scube::query::kNumVerbs];
  std::vector<double> http_parse, parse, serialize, service_us, residual;
  uint64_t rows_total = 0, scanned_total = 0;
  Connection conn(port);
  for (const std::string& text : texts) {
    auto parsed = query::Parse(text);
    if (!parsed.ok()) {
      ledger->ok = false;
      continue;
    }
    const std::string request = HttpRequestBytes("/query", text);
    std::vector<double> hp, pa, wa, wj, eo, rt;
    for (int rep = 0; rep < kQueryReps; ++rep) {
      {
        scube::net::HttpRequestParser parser;
        Span span("net.http_parse");
        parser.Feed(request);
        hp.push_back(span.End());
        ledger->ok &= parser.done();
      }
      {
        Span span("query.parse");
        auto again = query::Parse(text);
        pa.push_back(span.End());
        ledger->ok &= again.ok();
      }
      query::StreamStats stats;
      {
        CountingSink sink;
        Span span("query.walk");
        ledger->ok &= executor.ExecuteToSink(*parsed, {}, sink, &stats).ok();
        wa.push_back(span.End());
      }
      {
        Rendered<query::JsonWriter> out;
        Span span("query.walk_serialize");
        query::StreamStats json_stats;
        ledger->ok &=
            executor.ExecuteToSink(*parsed, {}, out.writer, &json_stats).ok();
        query::ResultTrailer trailer;
        trailer.cells_scanned = json_stats.cells_scanned;
        out.writer.Finish(trailer);
        wj.push_back(span.End());
      }
      {
        Span span("query.execute_one");
        query::QueryResponse response = service->ExecuteOne(text);
        eo.push_back(span.End());
        ledger->ok &= response.status.ok();
      }
      {
        Span span("server.http_roundtrip");
        auto resp = Exchange(&conn, request);
        rt.push_back(span.End());
        ledger->ok &= resp.ok() && resp->status == 200;
      }
      if (rep == 0) {
        rows_total += stats.rows_emitted;
        scanned_total += stats.cells_scanned;
      }
    }
    double walk = Median(wa);
    walk_us[static_cast<size_t>(parsed->verb)].push_back(walk);
    http_parse.push_back(Median(hp));
    parse.push_back(Median(pa));
    serialize.push_back(Median(wj) - walk);
    service_us.push_back(Median(eo) - Median(pa) - walk);
    residual.push_back(Median(rt) - Median(eo));
  }
  Add(ledger, "net.http_parse_us", Median(http_parse), "us");
  Add(ledger, "query.parse_us", Median(parse), "us");
  for (size_t v = 0; v < scube::query::kNumVerbs; ++v) {
    std::string verb = query::VerbToString(static_cast<query::Verb>(v));
    for (char& c : verb) c = static_cast<char>(std::tolower(c));
    Add(ledger, "query.walk_us." + verb, Median(walk_us[v]), "us");
  }
  Add(ledger, "query.cells_scanned_per_row", Ratio(scanned_total, rows_total),
      "ratio");
  Add(ledger, "query.serialize_us", Median(serialize), "us");
  Add(ledger, "query.service_us", Median(service_us), "us");
  Add(ledger, "server.residual_us", Median(residual), "us");
}

/// The streamed export path on the widest answers: walk, JSON and CSV
/// rendering (time, allocations, bytes per row), time to the first row,
/// and the streamed HTTP answer's cost beyond walk + render.
void ExportLayers(const query::Executor& executor, uint16_t port,
                  const std::vector<std::string>& texts, Ledger* ledger) {
  double rows = 0, walk_ns = 0, json_ns = 0, csv_ns = 0, http_ns = 0;
  double json_allocs = 0, csv_allocs = 0, json_bytes = 0, csv_bytes = 0;
  std::vector<double> first_row_us, ttfb_ms;
  Connection conn(port);
  for (const std::string& text : texts) {
    auto parsed = query::Parse(text);
    if (!parsed.ok()) {
      ledger->ok = false;
      continue;
    }
    const std::string request =
        HttpRequestBytes("/query?stream=1&format=json", text);
    std::vector<double> wa, js, cs, ht, fr, tf;
    uint64_t text_rows = 0, walk_a = 0, json_a = 0, csv_a = 0;
    size_t json_size = 0, csv_size = 0;
    for (int rep = 0; rep < kExportReps; ++rep) {
      {
        CountingSink sink;
        Span span("query.walk");
        AllocScope allocs;
        double t0 = NowSeconds();
        ledger->ok &= executor.ExecuteToSink(*parsed, {}, sink).ok();
        walk_a = allocs.Read();
        wa.push_back(span.End() * 1e3);
        text_rows = sink.rows();
        fr.push_back((sink.first_row_seconds() - t0) * 1e6);
      }
      {
        Rendered<query::JsonWriter> out;
        out.bytes.reserve(2 * json_size + 4096);
        Span span("query.walk_serialize_json");
        AllocScope allocs;
        ledger->ok &= executor.ExecuteToSink(*parsed, {}, out.writer).ok();
        out.writer.Finish({});
        json_a = allocs.Read();
        js.push_back(span.End() * 1e3);
        json_size = out.bytes.size();
      }
      {
        Rendered<query::CsvWriter> out;
        out.bytes.reserve(2 * csv_size + 4096);
        Span span("query.walk_serialize_csv");
        AllocScope allocs;
        ledger->ok &= executor.ExecuteToSink(*parsed, {}, out.writer).ok();
        out.writer.Finish({});
        csv_a = allocs.Read();
        cs.push_back(span.End() * 1e3);
        csv_size = out.bytes.size();
      }
      {
        Span span("server.http_stream");
        double t0 = NowSeconds();
        bool ok = conn.socket.WriteAll(request).ok();
        auto status_line = conn.reader->ReadLine();
        ok = ok && status_line.ok();
        if (ok) {
          tf.push_back((NowSeconds() - t0) * 1e3);
          auto resp = scube::net::ReadHttpResponseAfterStatusLine(
              conn.reader.get(), *status_line);
          ok = resp.ok() && resp->status == 200;
        }
        ht.push_back(span.End() * 1e3);
        if (!ok) conn.Reopen();
        ledger->ok &= ok;
      }
    }
    rows += static_cast<double>(text_rows);
    walk_ns += Median(wa);
    json_ns += Median(js) - Median(wa);
    csv_ns += Median(cs) - Median(wa);
    http_ns += Median(ht) - Median(js);
    json_allocs += static_cast<double>(json_a) - static_cast<double>(walk_a);
    csv_allocs += static_cast<double>(csv_a) - static_cast<double>(walk_a);
    json_bytes += static_cast<double>(json_size);
    csv_bytes += static_cast<double>(csv_size);
    first_row_us.push_back(Median(fr));
    ttfb_ms.push_back(Median(tf));
  }
  Add(ledger, "query.walk_ns_per_row", Ratio(walk_ns, rows), "ns");
  Add(ledger, "query.serialize_ns_per_row.json", Ratio(json_ns, rows), "ns");
  Add(ledger, "query.serialize_ns_per_row.csv", Ratio(csv_ns, rows), "ns");
  Add(ledger, "query.serialize_allocs_per_row.json", Ratio(json_allocs, rows),
      "count");
  Add(ledger, "query.serialize_allocs_per_row.csv", Ratio(csv_allocs, rows),
      "count");
  Add(ledger, "query.bytes_per_row.json", Ratio(json_bytes, rows), "B");
  Add(ledger, "query.bytes_per_row.csv", Ratio(csv_bytes, rows), "B");
  Add(ledger, "server.stream_residual_ns_per_row", Ratio(http_ns, rows), "ns");
  Add(ledger, "query.first_row_us", Median(first_row_us), "us");
  Add(ledger, "server.ttfb_ms", Median(ttfb_ms), "ms");
}

/// cluster: partitioning, one shard's wire answer fetched directly, wire
/// decoding, and the router's in-process cost beyond its slowest shard.
void ClusterLayers(const cube::CubeView& view,
                   const std::vector<std::string>& texts, Ledger* ledger) {
  scube::cluster::PartitionOptions partition;
  partition.num_shards = kShards;
  std::vector<double> partition_ms;
  std::vector<cube::SegregationCube> parts;
  for (int rep = 0; rep < kBuildReps; ++rep) {
    Span span("cluster.partition");
    parts = scube::cluster::PartitionCube(view, partition);
    partition_ms.push_back(span.End() / 1e3);
  }
  std::vector<std::unique_ptr<ShardNode>> shards;
  std::vector<scube::cluster::ShardSpec> specs;
  for (cube::SegregationCube& part : parts) {
    shards.push_back(StartShard(std::move(part), /*cache_capacity=*/0));
    specs.push_back(shards.back()->spec);
  }
  std::vector<std::unique_ptr<Connection>> conns;
  for (const auto& shard : shards) {
    conns.push_back(std::make_unique<Connection>(shard->server->port()));
  }
  std::vector<double> rtt_us, router_us;
  double useful = 0, contacted = 0, decode_ns = 0, decoded_rows = 0;
  {
    scube::cluster::ScatterExecutor scatter(std::move(specs));
    for (size_t t = 0; t < texts.size() && t < kScatterTexts; ++t) {
      const std::string request =
          HttpRequestBytes("/query?stream=1&format=wire", texts[t]);
      double slowest = 0;
      std::vector<std::string> row_lines;
      for (size_t s = 0; s < conns.size(); ++s) {
        std::vector<double> rtt;
        std::string body;
        for (int rep = 0; rep < kScatterReps; ++rep) {
          Span span("cluster.shard_rtt");
          auto resp = Exchange(conns[s].get(), request);
          rtt.push_back(span.End());
          bool ok = resp.ok() && resp->status == 200;
          ledger->ok &= ok;
          if (ok) body = std::move(resp->body);
        }
        double med = Median(rtt);
        rtt_us.push_back(med);
        slowest = std::max(slowest, med);
        size_t rows_here = 0;
        size_t pos = 0;
        while (pos < body.size()) {
          size_t end = body.find('\n', pos);
          if (end == std::string::npos) end = body.size();
          if (body.compare(pos, 2, "R\t") == 0) {
            row_lines.push_back(body.substr(pos, end - pos));
            ++rows_here;
          }
          pos = end + 1;
        }
        contacted += 1;
        if (rows_here > 0) useful += 1;
      }
      std::vector<double> routed;
      for (int rep = 0; rep < kScatterReps; ++rep) {
        Rendered<query::JsonWriter> out;
        Span span("cluster.router");
        query::StreamOutcome outcome =
            scatter.ExecuteStreaming(texts[t], out.writer, {}, "");
        routed.push_back(span.End());
        ledger->ok &= outcome.status.ok();
      }
      router_us.push_back(Median(routed) - slowest);
      if (!row_lines.empty()) {
        Span span("query.wire_decode");
        for (const std::string& line : row_lines) {
          ledger->ok &= query::ParseWireLine(line).ok();
        }
        decode_ns += span.End() * 1e3;
        decoded_rows += static_cast<double>(row_lines.size());
      }
    }
  }
  Add(ledger, "cluster.partition_ms", Median(partition_ms), "ms");
  Add(ledger, "cluster.shard_rtt_us", Median(rtt_us), "us");
  Add(ledger, "query.wire_decode_ns_per_row", Ratio(decode_ns, decoded_rows),
      "ns");
  Add(ledger, "cluster.router_us", Median(router_us), "us");
  Add(ledger, "cluster.useful_shard_ratio", Ratio(useful, contacted), "ratio");
}

/// query publish: PublishAndWarm of a copy of the cube against a service
/// whose cache holds the sample's first texts, as a publisher would.
void PublishLayers(const cube::SegregationCube& cube,
                   const std::vector<std::string>& texts, Ledger* ledger) {
  query::CubeStore store;
  query::ServiceOptions options;
  options.cache_capacity = kCacheCapacity;
  query::QueryService service(&store, options);
  service.PublishAndWarm("default", cube);
  for (size_t i = 0; i < texts.size() && i < kHotSetSize; ++i) {
    service.ExecuteOne(texts[i]);
    service.ExecuteOne(texts[i]);
  }
  std::vector<double> publish_ms, warmed;
  for (int rep = 0; rep < kPublishReps; ++rep) {
    cube::SegregationCube copy = cube;
    Span span("query.publish_and_warm");
    query::QueryService::PublishInfo info =
        service.PublishAndWarm("default", std::move(copy));
    publish_ms.push_back(span.End() / 1e3);
    warmed.push_back(static_cast<double>(info.warmed));
  }
  Add(ledger, "query.publish_ms", Median(publish_ms), "ms");
  Add(ledger, "query.warmed", Median(warmed), "count");
}

}  // namespace

Ledger RunLedger(const scube::datagen::GeneratedScenario& scenario,
                 scube::fpm::MineMode mode, const cube::SegregationCube& cube,
                 uint64_t seed, const ServeCounters& counters) {
  Ledger ledger;
  BuildLayers(scenario, mode, &ledger);

  query::CubeStore store;
  store.Publish("default", cube, kBuildThreads);
  query::CubeStore::Snapshot view = store.Get("default");
  query::Executor executor(*view);
  const std::vector<std::string> texts = GeneratePool(
      *view, LedgerSeed(seed), kLedgerTextsPerVerb * scube::query::kNumVerbs);
  {
    query::ServiceOptions options;
    options.num_workers = kClients;
    options.cache_capacity = 0;  // every call executes
    query::QueryService service(&store, options);
    std::unique_ptr<scube::server::ScubedServer> server =
        StartServer(&service, 2);
    QueryLayers(executor, &service, server->port(), texts, &ledger);
    ExportLayers(executor, server->port(),
                 GenerateWide(*view, 0, kWideTexts), &ledger);
    server->Stop();
  }
  ClusterLayers(*view, texts, &ledger);
  PublishLayers(cube, texts, &ledger);

  Add(&ledger, "query.cache_hit_ratio",
      Ratio(counters.cache_hits, counters.cache_hits + counters.cache_misses),
      "ratio");
  Add(&ledger, "query.shed_ratio",
      Ratio(counters.rejected, counters.accepted + counters.rejected),
      "ratio");
  return ledger;
}

}  // namespace perfbench

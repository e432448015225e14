// SCubeQL REPL: interactive segregation-discovery queries over published
// cubes — the serving-layer counterpart of the batch examples.
//
// Builds a synthetic Italian scenario, runs the paper's pipeline twice
// (company-cluster units -> cube "default"; sector units -> cube
// "sectors"), publishes both into a CubeStore and serves SCubeQL against
// them on a worker pool.
//
// Run:  ./query_repl [scale]      interactive session (default 0.002)
//       ./query_repl --demo       scripted tour, then exit
//
// Queries:   TOPK 5 BY dissimilarity WHERE T >= 30
//            SLICE sa=gender=F | ca=residence_region=north
//            DRILLDOWN sa=gender=F
//            SURPRISES BY gini MINDELTA 0.1 LIMIT 5
//            REVERSALS MINGAP 0.1 FROM sectors
//            DICE sa=gender=F LIMIT 3           (then `.more` pages on)
// Commands:  .help  .cubes  .stats  .csv <query>  .json <query>
//            .more (next page of the last LIMIT'ed answer)  .quit
//
// .csv/.json render through the streaming read path (ExecuteStreaming +
// Csv/JsonWriter): rows print as the index walks produce them, and a
// LIMIT'ed answer ends with a resume cursor that `.more` feeds back.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "datagen/scenarios.h"
#include "query/cube_store.h"
#include "query/query_result.h"
#include "query/service.h"
#include "scube/pipeline.h"
#include "viz/report.h"

using namespace scube;

namespace {

constexpr const char* kHelp =
    "SCubeQL verbs:\n"
    "  SLICE sa=attr=value [& ...] | ca=attr=value [& ...]\n"
    "  DICE  <coords>                 cells containing the coordinates\n"
    "  ROLLUP / DRILLDOWN <coords>    parents / children of a cell\n"
    "  TOPK <k> BY <index>            most segregated contexts\n"
    "  SURPRISES [BY <index>] [MINDELTA <d>]\n"
    "  REVERSALS [BY <index>] [MINGAP <g>]\n"
    "clauses: FROM <cube>[@version]  WHERE T >= n AND M >= n  "
    "ORDER BY <key> [ASC|DESC]"
    "  LIMIT <n> [OFFSET <k>]\n"
    "indexes: dissimilarity gini information isolation interaction atkinson\n"
    "commands: .help .cubes .stats .csv <query> .json <query>\n"
    "          .more (next page of the last LIMIT'ed answer) .quit\n";

/// Pagination state: the last answered text, its resume cursor, and the
/// output format it was rendered in — `.more` keeps paging in the same
/// format so concatenated pages form one table/CSV/JSON sequence.
struct PageState {
  enum class Format { kTable, kCsv, kJson };
  std::string text;
  std::string cursor;
  Format format = Format::kTable;
};

void PrintResponse(const query::QueryResponse& resp, PageState* page) {
  if (!resp.status.ok()) {
    std::printf("error: %s\n", resp.status.ToString().c_str());
    return;
  }
  std::printf("%s", viz::RenderQueryResult(resp.result).c_str());
  std::printf("-- %zu rows in %.2f ms%s  [cube %s v%llu, %llu cells scanned]\n",
              resp.result.rows.size(), resp.exec_ms,
              resp.cache_hit ? " (cache hit)" : "", resp.cube.c_str(),
              static_cast<unsigned long long>(resp.cube_version),
              static_cast<unsigned long long>(resp.result.cells_scanned));
  if (page != nullptr) {
    page->text = resp.text;
    page->cursor = resp.result.next_cursor;
    page->format = PageState::Format::kTable;
    if (!page->cursor.empty()) std::printf("-- type .more for the next page\n");
  }
}

/// Streams one query through the chosen writer straight to stdout — rows
/// print as the index walks produce them, O(1) buffering end to end.
void StreamToStdout(query::QueryService* service, const std::string& text,
                    bool csv, PageState* page, const std::string& cursor) {
  auto emit = [](std::string_view chunk) {
    std::fwrite(chunk.data(), 1, chunk.size(), stdout);
    return true;
  };
  query::StreamOutcome outcome;
  if (csv) {
    query::CsvWriter writer(emit);
    outcome = service->ExecuteStreaming(text, writer, {}, cursor);
  } else {
    query::JsonWriter writer(emit);
    outcome = service->ExecuteStreaming(text, writer, {}, cursor);
  }
  if (!outcome.status.ok()) {
    std::printf("%serror: %s\n", outcome.begun ? "\n" : "",
                outcome.status.ToString().c_str());
    return;
  }
  std::printf("\n");
  if (page != nullptr) {
    page->text = text;
    page->cursor = outcome.next_cursor;
    page->format = csv ? PageState::Format::kCsv : PageState::Format::kJson;
    if (!page->cursor.empty()) std::printf("-- type .more for the next page\n");
  }
}

bool BuildAndPublish(query::CubeStore* store, double scale) {
  auto scenario = datagen::GenerateScenario(datagen::ItalianConfig(scale));
  if (!scenario.ok()) {
    std::fprintf(stderr, "scenario: %s\n",
                 scenario.status().ToString().c_str());
    return false;
  }

  // Cube 1 ("default"): the paper's main flow — project the bipartite
  // graph onto companies, cluster, use communities as units.
  pipeline::PipelineConfig config;
  config.unit_source = pipeline::UnitSource::kGroupClusters;
  config.method = pipeline::ClusterMethod::kThreshold;
  config.threshold.min_weight = 2.0;
  config.cube.min_support = 20;
  config.cube.mode = fpm::MineMode::kClosed;
  config.cube.max_sa_items = 2;
  config.cube.max_ca_items = 1;
  auto result = pipeline::RunPipeline(scenario->inputs, config);
  if (!result.ok()) {
    std::fprintf(stderr, "pipeline: %s\n", result.status().ToString().c_str());
    return false;
  }
  std::printf("cube 'default': %zu cells (%zu defined) from %zu rows\n",
              result->cube.NumCells(), result->cube.NumDefinedCells(),
              result->final_table.NumRows());
  query::PublishPipelineResult(store, "default", std::move(*result));

  // Cube 2 ("sectors"): scenario-1 style, industry sector as the unit.
  pipeline::PipelineConfig sectors;
  sectors.unit_source = pipeline::UnitSource::kGroupAttribute;
  sectors.group_unit_attribute = "sector";
  sectors.cube.min_support = 20;
  sectors.cube.mode = fpm::MineMode::kClosed;
  sectors.cube.max_sa_items = 2;
  sectors.cube.max_ca_items = 1;
  auto sector_result = pipeline::RunPipeline(scenario->inputs, sectors);
  if (!sector_result.ok()) {
    std::fprintf(stderr, "pipeline: %s\n",
                 sector_result.status().ToString().c_str());
    return false;
  }
  std::printf("cube 'sectors': %zu cells (%zu defined)\n",
              sector_result->cube.NumCells(),
              sector_result->cube.NumDefinedCells());
  query::PublishPipelineResult(store, "sectors", std::move(*sector_result));
  return true;
}

int RunDemo(query::QueryService* service) {
  const std::vector<std::string> tour = {
      "TOPK 5 BY dissimilarity WHERE T >= 30",
      "DRILLDOWN sa=gender=F",
      "SURPRISES BY dissimilarity MINDELTA 0.05 LIMIT 5",
      "SLICE sa=gender=F | ca=residence_region=north",
      "REVERSALS MINGAP 0.05 LIMIT 5",
      "TOPK 3 BY gini FROM sectors",
      // Exact sealed-version pin: the store keeps the last K versions.
      "TOPK 3 BY gini FROM sectors@1",
      // Repeat of the first query: answered from the LRU cache.
      "TOPK 5 BY dissimilarity WHERE T >= 30",
  };
  int failures = 0;
  for (const std::string& text : tour) {
    auto resp = service->ExecuteOne(text);
    std::printf("\nscubeql> %s\n", resp.text.c_str());
    PrintResponse(resp, nullptr);
    if (!resp.status.ok()) ++failures;
  }
  auto stats = service->cache_stats();
  std::printf("\ncache: %llu hits, %llu misses\n",
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses));

  // The demo repeats the first query separately to show a cache hit.
  auto again = service->ExecuteOne(tour[0]);
  std::printf("\nscubeql> %s\n", tour[0].c_str());
  PrintResponse(again, nullptr);
  if (!again.cache_hit) {
    std::fprintf(stderr, "expected a cache hit on the repeated query\n");
    ++failures;
  }

  // Cursor pagination over the streaming read path: LIMIT'ed pages stitch
  // back into the full answer.
  const std::string paged = "DICE sa=gender=F LIMIT 100";
  std::printf("\nscubeql> %s  (paging with .more semantics)\n",
              paged.c_str());
  std::string cursor;
  size_t pages = 0, rows = 0;
  do {
    query::VectorSink sink;
    auto outcome = service->ExecuteStreaming(paged, sink, {}, cursor);
    if (!outcome.status.ok()) {
      std::fprintf(stderr, "streaming: %s\n",
                   outcome.status.ToString().c_str());
      ++failures;
      break;
    }
    ++pages;
    rows += sink.result().rows.size();
    cursor = outcome.next_cursor;
  } while (!cursor.empty() && pages < 10000);
  std::printf("-- %zu rows over %zu cursor-resumed pages\n", rows, pages);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool demo = false;
  double scale = 0.002;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--demo") == 0) {
      demo = true;
    } else {
      scale = std::atof(argv[i]);
    }
  }

  query::CubeStore store;
  if (!BuildAndPublish(&store, scale)) return 1;

  query::QueryService service(&store);

  if (demo) return RunDemo(&service);

  std::printf("\n%s\n", kHelp);
  char line[4096];
  PageState page;
  while (true) {
    std::printf("scubeql> ");
    std::fflush(stdout);
    if (std::fgets(line, sizeof(line), stdin) == nullptr) break;
    std::string text(line);
    while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
      text.pop_back();
    }
    if (text.empty()) continue;

    if (text == ".quit" || text == ".exit") break;
    if (text == ".help") {
      std::printf("%s", kHelp);
      continue;
    }
    if (text == ".cubes") {
      for (const std::string& name : store.Names()) {
        uint64_t version = 0;
        auto cube = store.Get(name, &version);
        std::string retained;
        for (uint64_t v : store.RetainedVersions(name)) {
          retained += (retained.empty() ? "" : ",") + std::to_string(v);
        }
        std::printf("  %s v%llu: %zu cells (retained: %s)\n", name.c_str(),
                    static_cast<unsigned long long>(version),
                    cube ? cube->NumCells() : 0, retained.c_str());
      }
      continue;
    }
    if (text == ".stats") {
      auto stats = service.cache_stats();
      std::printf("cache: %llu hits, %llu misses, %llu evictions\n",
                  static_cast<unsigned long long>(stats.hits),
                  static_cast<unsigned long long>(stats.misses),
                  static_cast<unsigned long long>(stats.evictions));
      continue;
    }
    if (text == ".more") {
      if (page.cursor.empty()) {
        std::printf("no more pages (run a LIMIT'ed query first)\n");
        continue;
      }
      if (page.format != PageState::Format::kTable) {
        // Keep paging in the format the stream started in, so the pages
        // concatenate into one CSV/JSON sequence.
        std::string cursor = page.cursor;
        StreamToStdout(&service, page.text,
                       page.format == PageState::Format::kCsv, &page,
                       cursor);
        continue;
      }
      query::VectorSink sink;
      auto outcome =
          service.ExecuteStreaming(page.text, sink, {}, page.cursor);
      if (!outcome.status.ok()) {
        std::printf("error: %s\n", outcome.status.ToString().c_str());
        continue;
      }
      query::QueryResponse resp;
      resp.text = page.text;
      resp.cube = outcome.cube;
      resp.cube_version = outcome.cube_version;
      resp.status = outcome.status;
      resp.cache_hit = outcome.cache_hit;
      resp.exec_ms = outcome.exec_ms;
      resp.result = sink.TakeResult();
      PrintResponse(resp, &page);
      continue;
    }
    if (text.rfind(".csv ", 0) == 0 || text.rfind(".json ", 0) == 0) {
      bool csv = text[1] == 'c';
      StreamToStdout(&service, text.substr(csv ? 5 : 6), csv, &page, "");
      continue;
    }
    PrintResponse(service.ExecuteOne(text), &page);
  }
  return 0;
}

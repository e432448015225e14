// Findings-list property test: an analytic query answered from the view's
// seal-time findings list (a prefix walk) must render exactly the bytes of
// the per-query cell scan, its oracle. Covered: both analytic verbs, all
// six index kinds, a threshold grid (0, negatives, values equal to stored
// keys, a float boundary), full answers, LIMIT/OFFSET pages and
// cursor-chained pages, in JSON, CSV and (with merge keys) the shard wire
// format. Cubes: Italian and Estonian datagen pipelines, a hand-built cube
// full of ties, and hash- and range-partitioned shard views that hold
// ghost cells.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cluster/partition.h"
#include "common/random.h"
#include "cube/explorer.h"
#include "datagen/scenarios.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/row_sink.h"
#include "query/wire_format.h"
#include "scube/pipeline.h"

namespace scube {
namespace query {
namespace {

using cube::CubeView;

/// One execution's output in every format, plus its accounting.
struct Answer {
  Status status;
  std::string json, csv, wire;
  StreamStats stats;
};

/// Forwards one row stream to the three writers, so a single execution
/// renders every format. The wire rendering carries the merge keys (the
/// shard route asks for them); JSON and CSV do not render them.
class TeeSink : public RowSink {
 public:
  explicit TeeSink(Answer* a)
      : json_(Append(&a->json)), csv_(Append(&a->csv)), wire_(Append(&a->wire)) {}

  bool Begin(const ResultHeader& header) override {
    return json_.Begin(header) && csv_.Begin(header) && wire_.Begin(header);
  }
  bool Row(const ResultRow& row) override {
    return json_.Row(row) && csv_.Row(row) && wire_.Row(row);
  }
  void Finish(const ResultTrailer& trailer) override {
    json_.Finish(trailer);
    csv_.Finish(trailer);
    wire_.Finish(trailer);
  }

 private:
  static ResultWriter::WriteFn Append(std::string* out) {
    return [out](std::string_view data) {
      out->append(data);
      return true;
    };
  }

  JsonWriter json_;
  CsvWriter csv_;
  WireWriter wire_;
};

Answer Run(const Executor& executor, const Query& query) {
  Answer a;
  TeeSink sink(&a);
  QueryContext ctx;
  ctx.merge_keys = true;
  a.status = executor.ExecuteToSink(query, ctx, sink, &a.stats);
  // cells_scanned is the one field the paths legitimately differ on; the
  // cursor's presence is part of the answer, its bytes are the service's.
  ResultTrailer trailer;
  if (!a.stats.exhausted) trailer.next_cursor = "X";
  if (a.stats.begun) sink.Finish(trailer);
  return a;
}

std::string Num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// A view plus the executor pair that answers from it.
struct Subject {
  std::string name;
  std::unique_ptr<CubeView> view;
  std::unique_ptr<Executor> lists;  ///< default: findings lists on
  std::unique_ptr<Executor> scan;   ///< the oracle: every query scans

  Subject(std::string n, CubeView v)
      : name(std::move(n)), view(std::make_unique<CubeView>(std::move(v))) {
    lists = std::make_unique<Executor>(*view);
    scan = std::make_unique<Executor>(
        *view, ExecutorOptions{.use_findings_lists = false});
  }
};

/// The list's stored keys at a few positions: thresholds that sit exactly
/// on an entry's key.
std::vector<double> StoredKeys(const CubeView& view, Verb verb,
                               indexes::IndexKind kind) {
  const cube::ExplorerOptions defaults;
  auto list = verb == Verb::kSurprises ? view.SurprisesByIndex(kind)
                                       : view.ReversalsByIndex(kind);
  std::vector<double> keys;
  if (list.empty()) return keys;
  for (size_t at : {size_t{0}, list.size() / 3, list.size() / 2,
                    list.size() - 1}) {
    if (verb == Verb::kSurprises) {
      auto f = cube::EvaluateSurprise(view, list[at], kind, 0.0, defaults);
      EXPECT_TRUE(f.has_value());
      if (f) keys.push_back(f->delta);
    } else {
      auto r = cube::EvaluateReversal(view, list[at], kind, 0.0, defaults);
      EXPECT_TRUE(r.has_value());
      if (r) keys.push_back(cube::ReversalGap(*r));
    }
  }
  return keys;
}

struct Totals {
  size_t listed = 0;    ///< statements answered from a list
  size_t fallback = 0;  ///< statements that scanned
  size_t rows = 0;      ///< rows compared on the list path
};

/// Runs one statement on both executors and checks byte identity, the
/// page accounting, and which path answered.
void ExpectSameAnswer(const Subject& s, const std::string& text,
                      Totals* totals, StreamStats* stats_out = nullptr) {
  auto parsed = Parse(text);
  ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status();
  Answer listed = Run(*s.lists, *parsed);
  Answer scanned = Run(*s.scan, *parsed);
  const std::string where = s.name + ": " + text;
  ASSERT_TRUE(listed.status.ok()) << where << ": " << listed.status;
  ASSERT_TRUE(scanned.status.ok()) << where << ": " << scanned.status;
  EXPECT_EQ(listed.json, scanned.json) << where;
  EXPECT_EQ(listed.csv, scanned.csv) << where;
  EXPECT_EQ(listed.wire, scanned.wire) << where;
  EXPECT_EQ(listed.stats.rows_emitted, scanned.stats.rows_emitted) << where;
  EXPECT_EQ(listed.stats.exhausted, scanned.stats.exhausted) << where;
  EXPECT_EQ(listed.stats.next_offset, scanned.stats.next_offset) << where;

  // The scan inspects every cell; the list walk at most the list.
  const size_t n = s.view->NumCells();
  EXPECT_EQ(scanned.stats.cells_scanned, n) << where;
  const bool default_filters = text.find("WHERE T >= 31") == std::string::npos;
  const bool eligible = default_filters && parsed->threshold >= 0.0;
  if (eligible) {
    auto list = parsed->verb == Verb::kSurprises
                    ? s.view->SurprisesByIndex(parsed->by)
                    : s.view->ReversalsByIndex(parsed->by);
    EXPECT_LE(listed.stats.cells_scanned, list.size()) << where;
    ++totals->listed;
  } else {
    EXPECT_EQ(listed.stats.cells_scanned, n) << where;
    ++totals->fallback;
  }
  totals->rows += listed.stats.rows_emitted;
  if (stats_out != nullptr) *stats_out = listed.stats;
}

/// The threshold grid for one (verb, kind) on one view.
std::vector<double> Thresholds(const CubeView& view, Verb verb,
                               indexes::IndexKind kind) {
  std::vector<double> grid = {0.0, -0.05, -1.0, 0.01, 0.05, 0.2, 0.32,
                              0.575 - 0.255};
  for (double key : StoredKeys(view, verb, kind)) grid.push_back(key);
  return grid;
}

/// Every shape of every statement in the grid, list vs scan.
Totals CheckSubject(const Subject& s) {
  Totals totals;
  for (Verb verb : {Verb::kSurprises, Verb::kReversals}) {
    const char* head = verb == Verb::kSurprises ? "SURPRISES" : "REVERSALS";
    const char* thr = verb == Verb::kSurprises ? "MINDELTA" : "MINGAP";
    for (indexes::IndexKind kind : indexes::AllIndexKinds()) {
      for (double t : Thresholds(*s.view, verb, kind)) {
        const std::string base = std::string(head) + " BY " +
                                 indexes::IndexKindToString(kind) + " " +
                                 thr + " " + Num(t);
        StreamStats full;
        ExpectSameAnswer(s, base, &totals, &full);
        ExpectSameAnswer(s, base + " LIMIT 3 OFFSET 2", &totals);
        // Bounds equal to the defaults keep the list path; any other
        // bound falls back.
        ExpectSameAnswer(s, base + " WHERE T >= 30 AND M >= 5 LIMIT 5",
                         &totals);
        ExpectSameAnswer(s, base + " WHERE T >= 31 LIMIT 5", &totals);
        ExpectSameAnswer(s, base + " ORDER BY T DESC LIMIT 4", &totals);
        // A cursor resumes at the page's next_offset with the same LIMIT.
        StreamStats page;
        page.next_offset = 0;
        page.exhausted = false;
        for (int i = 0; i < 3 && !page.exhausted; ++i) {
          ExpectSameAnswer(s,
                           base + " LIMIT 4 OFFSET " +
                               std::to_string(page.next_offset),
                           &totals, &page);
        }
        // The last page of the answer, and one past its end.
        const uint64_t rows = full.rows_emitted;
        ExpectSameAnswer(s,
                         base + " LIMIT 4 OFFSET " +
                             std::to_string(rows > 2 ? rows - 2 : 0),
                         &totals);
        ExpectSameAnswer(s, base + " OFFSET " + std::to_string(rows + 1),
                         &totals);
      }
    }
  }
  return totals;
}

void ExpectCovered(const Totals& totals, const std::string& name) {
  // Both paths ran, and the list path produced rows to compare.
  EXPECT_GT(totals.listed, 0u) << name;
  EXPECT_GT(totals.fallback, 0u) << name;
  EXPECT_GT(totals.rows, 0u) << name;
}

CubeView PipelineView(const datagen::ScenarioConfig& scenario_config,
                      pipeline::PipelineConfig config) {
  auto scenario = datagen::GenerateScenario(scenario_config);
  EXPECT_TRUE(scenario.ok()) << scenario.status();
  auto result = pipeline::RunPipeline(scenario->inputs, config);
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result->cube).Seal(1);
}

pipeline::PipelineConfig SectorUnits(uint64_t min_support) {
  pipeline::PipelineConfig config;
  config.unit_source = pipeline::UnitSource::kGroupAttribute;
  config.group_unit_attribute = "sector";
  config.cube.min_support = min_support;
  config.cube.mode = fpm::MineMode::kAll;
  config.cube.max_sa_items = 2;
  config.cube.max_ca_items = 1;
  return config;
}

CubeView ItalianView() {
  return PipelineView(datagen::ItalianConfig(0.001, 5), SectorUnits(10));
}

TEST(FindingsListTest, ItalianCubeListMatchesScan) {
  Subject s("italian", ItalianView());
  ASSERT_GT(s.view->NumCells(), 100u);
  ExpectCovered(CheckSubject(s), s.name);
}

TEST(FindingsListTest, EstonianCubeListMatchesScan) {
  pipeline::PipelineConfig config = SectorUnits(2);
  config.date = 2012;
  Subject s("estonian",
            PipelineView(datagen::EstonianConfig(0.005, 23), config));
  ASSERT_GT(s.view->NumCells(), 100u);
  ExpectCovered(CheckSubject(s), s.name);
}

/// A hand-built cube whose index values come from a five-value grid, so
/// deltas and gaps tie across many cells and the coordinate tie-break
/// decides the order; one SA item's cells carry the 0.255 / 0.575 float
/// boundary of the REVERSALS gap test.
CubeView TiesView() {
  relational::ItemCatalog catalog;
  using relational::AttributeKind;
  const size_t kSa = 3, kCa = 4;
  for (size_t i = 0; i < kSa; ++i) {
    catalog.GetOrAdd(i, "s" + std::to_string(i), "v",
                     AttributeKind::kSegregation);
  }
  for (size_t i = 0; i < kCa; ++i) {
    catalog.GetOrAdd(kSa + i, "c" + std::to_string(i), "v",
                     AttributeKind::kContext);
  }
  cube::SegregationCube cube(std::move(catalog), {"u0", "u1"});
  Rng rng(17);
  const double kGrid[] = {0.1, 0.2, 0.3, 0.4, 0.5};
  // Every coordinate with |SA| <= 2 and |CA| <= 2.
  for (uint32_t sa_mask = 0; sa_mask < (1u << kSa); ++sa_mask) {
    if (__builtin_popcount(sa_mask) > 2) continue;
    for (uint32_t ca_mask = 0; ca_mask < (1u << kCa); ++ca_mask) {
      if (__builtin_popcount(ca_mask) > 2) continue;
      std::vector<fpm::ItemId> sa, ca;
      for (size_t i = 0; i < kSa; ++i) {
        if (sa_mask & (1u << i)) sa.push_back(static_cast<fpm::ItemId>(i));
      }
      for (size_t i = 0; i < kCa; ++i) {
        if (ca_mask & (1u << i)) {
          ca.push_back(static_cast<fpm::ItemId>(kSa + i));
        }
      }
      cube::CubeCell cell;
      cell.coords = cube::CellCoordinates{fpm::Itemset(std::move(sa)),
                                          fpm::Itemset(std::move(ca))};
      // Mostly above the default floors, some below (T >= 30, M >= 5).
      cell.context_size = 20 + rng.NextBounded(200);
      cell.minority_size = 3 + rng.NextBounded(40);
      cell.num_units = 2;
      cell.indexes.defined = sa_mask != 0 && !rng.NextBool(0.1);
      for (indexes::IndexKind kind : indexes::AllIndexKinds()) {
        cell.indexes.values[static_cast<size_t>(kind)] =
            kGrid[rng.NextBounded(5)];
      }
      if (sa_mask == 1u && cell.coords.ca.size() <= 1) {
        // s0's parent reads 0.255 and its one-item CA children 0.575.
        const double d = cell.coords.ca.empty() ? 0.255 : 0.575;
        for (double& v : cell.indexes.values) v = d;
        cell.context_size = 100;
        cell.minority_size = 40;
        cell.indexes.defined = true;
      }
      cube.Insert(std::move(cell));
    }
  }
  return std::move(cube).Seal(1);
}

TEST(FindingsListTest, TiedKeysListMatchesScan) {
  Subject s("ties", TiesView());
  ExpectCovered(CheckSubject(s), s.name);
  // The boundary parent: a reversal at MINGAP 0.575 - 0.255, not at 0.32.
  const auto kind = indexes::IndexKind::kDissimilarity;
  const CubeView::CellId parent =
      s.view->FindId(cube::CellCoordinates{fpm::Itemset({0}), {}});
  ASSERT_NE(parent, CubeView::kNoCell);
  const cube::ExplorerOptions defaults;
  EXPECT_TRUE(cube::EvaluateReversal(*s.view, parent, kind, 0.575 - 0.255,
                                     defaults));
  EXPECT_FALSE(cube::EvaluateReversal(*s.view, parent, kind, 0.32, defaults));
}

TEST(FindingsListTest, ShardViewsWithGhostsListMatchesScan) {
  CubeView global = ItalianView();
  for (cluster::PartitionStrategy strategy :
       {cluster::PartitionStrategy::kHash,
        cluster::PartitionStrategy::kRange}) {
    for (size_t shards : {2, 4}) {
      cluster::PartitionOptions options;
      options.num_shards = shards;
      options.strategy = strategy;
      cluster::PartitionStats stats;
      auto parts = cluster::PartitionCube(global, options, &stats);
      size_t ghosts = 0;
      for (size_t g : stats.ghosts) ghosts += g;
      ASSERT_GT(ghosts, 0u) << shards << " shards";
      for (size_t i = 0; i < parts.size(); ++i) {
        Subject s("shard " + std::to_string(i) + "/" + std::to_string(shards),
                  std::move(parts[i]).Seal(1));
        // Ghosts serve as parents and children but are never listed.
        for (indexes::IndexKind kind : indexes::AllIndexKinds()) {
          for (CubeView::CellId id : s.view->SurprisesByIndex(kind)) {
            EXPECT_FALSE(s.view->cell(id).ghost) << s.name;
          }
          for (CubeView::CellId id : s.view->ReversalsByIndex(kind)) {
            EXPECT_FALSE(s.view->cell(id).ghost) << s.name;
          }
        }
        ExpectCovered(CheckSubject(s), s.name);
      }
    }
  }
}

}  // namespace
}  // namespace query
}  // namespace scube

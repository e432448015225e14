// Property sweep: on randomized cubes — including pure-context and
// undefined cells — the sealed CubeView's indexes (point lookups, slices,
// posting-list dice, parent/child adjacency, ranked top-k) and the
// explorer's analyses over the view must agree exactly with naive
// recomputation on the mutable SegregationCube (the O(all cells) reference
// accessors).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/random.h"
#include "cube/cube.h"
#include "cube/cube_view.h"
#include "cube/explorer.h"

namespace scube {
namespace cube {
namespace {

constexpr size_t kNumSaItems = 4;   // ids 0..3 on the SA axis
constexpr size_t kNumCaItems = 3;   // ids 4..6 on the CA axis

struct SweepParams {
  uint64_t seed;
  size_t target_cells;
};

fpm::Itemset RandomSubset(Rng* rng, fpm::ItemId first, size_t universe,
                          size_t max_size) {
  std::vector<fpm::ItemId> items;
  size_t size = rng->NextBounded(max_size + 1);
  for (size_t i = 0; i < size; ++i) {
    items.push_back(first + static_cast<fpm::ItemId>(
                                rng->NextBounded(universe)));
  }
  return fpm::Itemset(std::move(items));  // dedupes
}

SegregationCube RandomCube(const SweepParams& p, Rng* rng) {
  relational::ItemCatalog catalog;
  using relational::AttributeKind;
  for (size_t i = 0; i < kNumSaItems; ++i) {
    catalog.GetOrAdd(i, "sa" + std::to_string(i), "v",
                     AttributeKind::kSegregation);
  }
  for (size_t i = 0; i < kNumCaItems; ++i) {
    catalog.GetOrAdd(kNumSaItems + i, "ca" + std::to_string(i), "v",
                     AttributeKind::kContext);
  }
  SegregationCube cube(std::move(catalog), {"u0", "u1", "u2"});
  for (size_t i = 0; i < p.target_cells; ++i) {
    CubeCell cell;
    // Pure-context (empty SA) and root coordinates arise naturally.
    cell.coords = CellCoordinates{RandomSubset(rng, 0, kNumSaItems, 3),
                                  RandomSubset(rng, kNumSaItems,
                                               kNumCaItems, 2)};
    cell.context_size = 1 + rng->NextBounded(200);
    cell.minority_size = rng->NextBounded(cell.context_size + 1);
    cell.num_units = 1 + static_cast<uint32_t>(rng->NextBounded(3));
    // ~20% undefined cells (degenerate minorities).
    cell.indexes.defined = !rng->NextBool(0.2);
    for (indexes::IndexKind kind : indexes::AllIndexKinds()) {
      cell.indexes.values[static_cast<size_t>(kind)] = rng->NextDouble();
    }
    cube.Insert(std::move(cell));  // duplicate coordinates overwrite
  }
  return cube;
}

std::vector<const CubeCell*> IdsToCells(const CubeView& view,
                                        std::span<const CubeView::CellId> ids) {
  std::vector<const CubeCell*> out;
  for (CubeView::CellId id : ids) out.push_back(&view.cell(id));
  return out;
}

void ExpectSameCells(const std::vector<const CubeCell*>& naive,
                     const std::vector<const CubeCell*>& indexed,
                     const std::string& what) {
  ASSERT_EQ(naive.size(), indexed.size()) << what;
  for (size_t i = 0; i < naive.size(); ++i) {
    EXPECT_EQ(naive[i]->coords, indexed[i]->coords) << what << " at " << i;
    EXPECT_EQ(naive[i]->context_size, indexed[i]->context_size) << what;
  }
}

class CubeViewPropertyTest : public ::testing::TestWithParam<SweepParams> {};

TEST_P(CubeViewPropertyTest, ViewAgreesWithNaiveCube) {
  Rng rng(GetParam().seed);
  SegregationCube cube = RandomCube(GetParam(), &rng);
  CubeView view = cube.Seal();

  // --- dense array vs naive sorted pointer dump ---------------------------
  auto naive_cells = cube.Cells();
  ASSERT_EQ(view.NumCells(), naive_cells.size());
  EXPECT_EQ(view.NumDefinedCells(), cube.NumDefinedCells());
  for (size_t i = 0; i < naive_cells.size(); ++i) {
    EXPECT_EQ(view.Cells()[i].coords, naive_cells[i]->coords);
  }

  // --- point lookups ------------------------------------------------------
  for (const CubeCell* cell : naive_cells) {
    const CubeCell* found = view.Find(cell->coords);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->coords, cell->coords);
    EXPECT_EQ(found->minority_size, cell->minority_size);
  }
  EXPECT_EQ(view.Find(fpm::Itemset({0, 1, 2, 3}),
                      fpm::Itemset({4, 5, 6})),
            cube.Find(fpm::Itemset({0, 1, 2, 3}), fpm::Itemset({4, 5, 6})));

  // --- exact slices vs naive scans ---------------------------------------
  std::set<fpm::Itemset> sa_keys, ca_keys;
  for (const CubeCell* cell : naive_cells) {
    sa_keys.insert(cell->coords.sa);
    ca_keys.insert(cell->coords.ca);
  }
  for (const fpm::Itemset& sa : sa_keys) {
    ExpectSameCells(cube.SliceBySa(sa), IdsToCells(view, view.SliceBySa(sa)),
                    "SliceBySa " + sa.DebugString());
  }
  for (const fpm::Itemset& ca : ca_keys) {
    ExpectSameCells(cube.SliceByCa(ca), IdsToCells(view, view.SliceByCa(ca)),
                    "SliceByCa " + ca.DebugString());
  }

  // --- adjacency vs naive coordinate algebra ------------------------------
  for (const CubeCell* cell : naive_cells) {
    CubeView::CellId id = view.FindId(cell->coords);
    ASSERT_NE(id, CubeView::kNoCell);
    ExpectSameCells(cube.Parents(cell->coords),
                    IdsToCells(view, view.Parents(id)), "Parents");
    ExpectSameCells(cube.Children(cell->coords),
                    IdsToCells(view, view.Children(id)), "Children");
  }
  // Absent coordinates fall back to probes and must agree too.
  for (int trial = 0; trial < 20; ++trial) {
    CellCoordinates coords{RandomSubset(&rng, 0, kNumSaItems, 3),
                           RandomSubset(&rng, kNumSaItems, kNumCaItems, 2)};
    std::vector<CubeView::CellId> p = view.ParentsOf(coords);
    ExpectSameCells(cube.Parents(coords),
                    IdsToCells(view, std::span<const CubeView::CellId>(p)),
                    "ParentsOf");
    std::vector<CubeView::CellId> c = view.ChildrenOf(coords);
    ExpectSameCells(cube.Children(coords),
                    IdsToCells(view, std::span<const CubeView::CellId>(c)),
                    "ChildrenOf");
  }

  // --- dice vs naive subset filtering -------------------------------------
  for (int trial = 0; trial < 20; ++trial) {
    fpm::Itemset sa = RandomSubset(&rng, 0, kNumSaItems, 2);
    fpm::Itemset ca = RandomSubset(&rng, kNumSaItems, kNumCaItems, 2);
    std::vector<const CubeCell*> naive;
    for (const CubeCell* cell : naive_cells) {
      if (sa.IsSubsetOf(cell->coords.sa) && ca.IsSubsetOf(cell->coords.ca)) {
        naive.push_back(cell);
      }
    }
    std::vector<CubeView::CellId> ids = view.Dice(sa, ca);
    ExpectSameCells(naive,
                    IdsToCells(view, std::span<const CubeView::CellId>(ids)),
                    "Dice " + sa.DebugString() + ca.DebugString());
  }

  // --- explorer analyses vs naive recomputation ---------------------------
  ExplorerOptions options;
  options.min_context_size = 10;
  options.min_minority_size = 2;
  for (indexes::IndexKind kind :
       {indexes::IndexKind::kDissimilarity, indexes::IndexKind::kGini}) {
    // Top-k: naive = filter + full sort + truncate on the mutable cube.
    std::vector<RankedCell> naive_top;
    for (const CubeCell* cell : naive_cells) {
      if (!PassesExplorerFilters(*cell, options)) continue;
      naive_top.push_back(RankedCell{cell, cell->Value(kind)});
    }
    std::sort(naive_top.begin(), naive_top.end(),
              [](const RankedCell& a, const RankedCell& b) {
                if (a.value != b.value) return a.value > b.value;
                return a.cell->coords < b.cell->coords;
              });
    if (naive_top.size() > 5) naive_top.resize(5);
    auto top = TopSegregatedContexts(view, kind, 5, options);
    ASSERT_EQ(top.size(), naive_top.size());
    for (size_t i = 0; i < top.size(); ++i) {
      EXPECT_EQ(top[i].cell->coords, naive_top[i].cell->coords) << i;
      EXPECT_DOUBLE_EQ(top[i].value, naive_top[i].value) << i;
    }

    // Surprises: naive = per-cell hash probes on the mutable cube.
    std::vector<SurpriseFinding> naive_surprises;
    for (const CubeCell* cell : naive_cells) {
      if (!PassesExplorerFilters(*cell, options)) continue;
      if (cell->coords.sa.empty() && cell->coords.ca.empty()) continue;
      double best = 0.0;
      bool any = false;
      for (const CubeCell* parent : cube.Parents(cell->coords)) {
        if (!parent->indexes.defined) continue;
        if (options.require_nonempty_sa && parent->coords.sa.empty()) continue;
        any = true;
        best = std::max(best, parent->Value(kind));
      }
      if (!any) continue;
      double delta = cell->Value(kind) - best;
      if (delta >= 0.05) {
        naive_surprises.push_back(
            SurpriseFinding{cell, cell->Value(kind), best, delta});
      }
    }
    SortSurprises(&naive_surprises);
    auto surprises = DrillDownSurprises(view, kind, 0.05, options);
    ASSERT_EQ(surprises.size(), naive_surprises.size());
    for (size_t i = 0; i < surprises.size(); ++i) {
      EXPECT_EQ(surprises[i].cell->coords, naive_surprises[i].cell->coords);
      EXPECT_DOUBLE_EQ(surprises[i].delta, naive_surprises[i].delta);
      EXPECT_DOUBLE_EQ(surprises[i].best_parent_value,
                       naive_surprises[i].best_parent_value);
    }

    // Reversals: compare against the adjacency-free recomputation.
    std::vector<GranularityReversal> naive_reversals;
    for (const CubeCell* parent : naive_cells) {
      if (!PassesExplorerFilters(*parent, options)) continue;
      std::vector<const CubeCell*> children;
      for (const CubeCell* child : cube.Children(parent->coords)) {
        if (child->coords.sa == parent->coords.sa &&
            child->indexes.defined &&
            !(options.require_nonempty_sa && child->coords.sa.empty()) &&
            child->context_size >= options.min_context_size &&
            child->minority_size >= options.min_minority_size) {
          children.push_back(child);
        }
      }
      if (children.size() < 2) continue;
      double pv = parent->Value(kind);
      double min_child = 1e300, max_child = -1e300;
      for (const CubeCell* child : children) {
        double v = child->Value(kind);
        min_child = std::min(min_child, v);
        max_child = std::max(max_child, v);
      }
      // The gap to the boundary child is what MINGAP bounds.
      if (min_child - pv >= 0.1) {
        naive_reversals.push_back(
            GranularityReversal{parent, children, pv, min_child, true});
      } else if (pv - max_child >= 0.1) {
        naive_reversals.push_back(
            GranularityReversal{parent, children, pv, max_child, false});
      }
    }
    SortReversals(&naive_reversals);
    auto reversals = FindGranularityReversals(view, kind, 0.1, options);
    ASSERT_EQ(reversals.size(), naive_reversals.size());
    for (size_t i = 0; i < reversals.size(); ++i) {
      EXPECT_EQ(reversals[i].parent->coords,
                naive_reversals[i].parent->coords);
      EXPECT_EQ(reversals[i].children.size(),
                naive_reversals[i].children.size());
      EXPECT_DOUBLE_EQ(reversals[i].min_child_value,
                       naive_reversals[i].min_child_value);
      EXPECT_EQ(reversals[i].children_higher,
                naive_reversals[i].children_higher);
    }

    // Findings lists: the default-filter findings at threshold 0, in the
    // explorer's order.
    const ExplorerOptions defaults;
    std::vector<const CubeCell*> listed, expected;
    for (CubeView::CellId id : view.SurprisesByIndex(kind)) {
      listed.push_back(&view.cell(id));
    }
    for (const SurpriseFinding& f :
         DrillDownSurprises(view, kind, 0.0, defaults)) {
      expected.push_back(f.cell);
    }
    ExpectSameCells(expected, listed, "surprises list");
    listed.clear();
    expected.clear();
    for (CubeView::CellId id : view.ReversalsByIndex(kind)) {
      listed.push_back(&view.cell(id));
    }
    for (const GranularityReversal& r :
         FindGranularityReversals(view, kind, 0.0, defaults)) {
      expected.push_back(r.parent);
    }
    ExpectSameCells(expected, listed, "reversals list");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CubeViewPropertyTest,
    ::testing::Values(SweepParams{1, 20}, SweepParams{2, 60},
                      SweepParams{3, 120}, SweepParams{4, 250},
                      SweepParams{5, 400}));

}  // namespace
}  // namespace cube
}  // namespace scube

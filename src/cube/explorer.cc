#include "cube/explorer.h"

#include <algorithm>

namespace scube {
namespace cube {

bool PassesExplorerFilters(const CubeCell& cell,
                           const ExplorerOptions& options) {
  if (!cell.indexes.defined) return false;
  if (cell.context_size < options.min_context_size) return false;
  if (cell.minority_size < options.min_minority_size) return false;
  if (options.require_nonempty_sa && cell.coords.sa.empty()) return false;
  return true;
}

namespace {

// Screen for cells used as comparison baselines (roll-up parents, drill-down
// children): their index values are read, so they must carry a segregation
// reading themselves. Cube-builder cubes leave pure-context cells undefined
// (M = T), but hand-built cubes can Insert() a pure-context cell flagged
// defined — without the require_nonempty_sa guard such a cell would leak in
// as a baseline that TopSegregatedContexts correctly filters out.
bool UsableAsComparison(const CubeCell& cell, const ExplorerOptions& options) {
  if (!cell.indexes.defined) return false;
  if (options.require_nonempty_sa && cell.coords.sa.empty()) return false;
  return true;
}

}  // namespace

std::vector<RankedCell> TopSegregatedContexts(const CubeView& view,
                                              indexes::IndexKind kind,
                                              size_t k,
                                              const ExplorerOptions& options) {
  std::vector<RankedCell> ranked;
  if (k == 0) return ranked;
  // The ranked order is pre-sorted by (value desc, coordinate asc);
  // filtering preserves it, so the first k survivors are the answer.
  for (CubeView::CellId id : view.RankedByIndex(kind)) {
    const CubeCell& cell = view.cell(id);
    if (!PassesExplorerFilters(cell, options)) continue;
    ranked.push_back(RankedCell{&cell, cell.Value(kind)});
    if (ranked.size() == k) break;
  }
  return ranked;
}

std::optional<SurpriseFinding> EvaluateSurprise(
    const CubeView& view, CubeView::CellId id, indexes::IndexKind kind,
    double min_delta, const ExplorerOptions& options) {
  const CubeCell& cell = view.cell(id);
  if (!PassesExplorerFilters(cell, options)) return std::nullopt;
  if (cell.coords.sa.empty() && cell.coords.ca.empty()) return std::nullopt;
  double best_parent = 0.0;
  bool any_defined_parent = false;
  for (CubeView::CellId parent_id : view.Parents(id)) {
    const CubeCell& parent = view.cell(parent_id);
    if (!UsableAsComparison(parent, options)) continue;
    any_defined_parent = true;
    best_parent = std::max(best_parent, parent.Value(kind));
  }
  if (!any_defined_parent) return std::nullopt;
  double delta = cell.Value(kind) - best_parent;
  if (delta < min_delta) return std::nullopt;
  return SurpriseFinding{&cell, cell.Value(kind), best_parent, delta};
}

void SortSurprises(std::vector<SurpriseFinding>* findings) {
  std::sort(findings->begin(), findings->end(),
            [](const SurpriseFinding& a, const SurpriseFinding& b) {
              if (a.delta != b.delta) return a.delta > b.delta;
              return a.cell->coords < b.cell->coords;
            });
}

std::vector<SurpriseFinding> DrillDownSurprises(
    const CubeView& view, indexes::IndexKind kind, double min_delta,
    const ExplorerOptions& options) {
  std::vector<SurpriseFinding> out;
  for (CubeView::CellId id = 0; id < view.NumCells(); ++id) {
    if (auto finding = EvaluateSurprise(view, id, kind, min_delta, options)) {
      out.push_back(*finding);
    }
  }
  SortSurprises(&out);
  return out;
}

std::optional<GranularityReversal> EvaluateReversal(
    const CubeView& view, CubeView::CellId id, indexes::IndexKind kind,
    double min_gap, const ExplorerOptions& options) {
  const CubeCell& parent = view.cell(id);
  if (!PassesExplorerFilters(parent, options)) return std::nullopt;
  // CA-children only: same subgroup, context refined by one item. The
  // adjacency list is coordinate-sorted, so the children keep that order.
  auto usable = [&](const CubeCell& child) {
    return child.coords.sa == parent.coords.sa &&
           UsableAsComparison(child, options) &&
           child.context_size >= options.min_context_size &&
           child.minority_size >= options.min_minority_size;
  };
  size_t count = 0;
  double min_child = 0.0, max_child = 0.0;
  for (CubeView::CellId child_id : view.Children(id)) {
    const CubeCell& child = view.cell(child_id);
    if (!usable(child)) continue;
    const double v = child.Value(kind);
    min_child = count == 0 ? v : std::min(min_child, v);
    max_child = count == 0 ? v : std::max(max_child, v);
    ++count;
  }
  if (count < 2) return std::nullopt;

  // The test compares the gap itself — the key SortReversals ranks by —
  // so a finding's reported gap is never below the MINGAP that admitted
  // it, and every non-negative MINGAP answer is a prefix of the
  // gap-sorted findings.
  const double parent_value = parent.Value(kind);
  GranularityReversal reversal{&parent, {}, parent_value, 0.0, true};
  if (min_child - parent_value >= min_gap) {
    reversal.min_child_value = min_child;
  } else if (parent_value - max_child >= min_gap) {
    reversal.min_child_value = max_child;
    reversal.children_higher = false;
  } else {
    return std::nullopt;
  }
  reversal.children.reserve(count);
  for (CubeView::CellId child_id : view.Children(id)) {
    const CubeCell& child = view.cell(child_id);
    if (usable(child)) reversal.children.push_back(&child);
  }
  return reversal;
}

double ReversalGap(const GranularityReversal& reversal) {
  return reversal.children_higher
             ? reversal.min_child_value - reversal.parent_value
             : reversal.parent_value - reversal.min_child_value;
}

void SortReversals(std::vector<GranularityReversal>* reversals) {
  std::sort(reversals->begin(), reversals->end(),
            [](const GranularityReversal& a, const GranularityReversal& b) {
              const double ga = ReversalGap(a), gb = ReversalGap(b);
              if (ga != gb) return ga > gb;
              return a.parent->coords < b.parent->coords;
            });
}

std::vector<GranularityReversal> FindGranularityReversals(
    const CubeView& view, indexes::IndexKind kind, double min_gap,
    const ExplorerOptions& options) {
  std::vector<GranularityReversal> out;
  for (CubeView::CellId id = 0; id < view.NumCells(); ++id) {
    if (auto reversal = EvaluateReversal(view, id, kind, min_gap, options)) {
      out.push_back(std::move(*reversal));
    }
  }
  SortReversals(&out);
  return out;
}

}  // namespace cube
}  // namespace scube

// The per-layer ledger of a traced run: every layer on the measured paths
// is timed by calling its public functions from the benchmark's own code,
// each call wrapped in a span (support.h), on the workload's own inputs and
// cube. Where a layer is reachable only inside one public call (mine, group
// and fill inside BuildSegregationCube), the split comes from the
// CubeBuildStats that call returns.

#ifndef SCUBE_PERFBENCH_LEDGER_H_
#define SCUBE_PERFBENCH_LEDGER_H_

#include <cstdint>
#include <vector>

#include "cube/cube.h"
#include "datagen/scenarios.h"
#include "fpm/miner.h"
#include "support.h"
#include "workloads.h"

namespace perfbench {

/// \brief Per-layer metrics, plus whether every call the ledger made
/// succeeded.
struct Ledger {
  std::vector<Metric> metrics;
  bool ok = true;
};

/// Measures every layer for one workload. `counters` are the serving-side
/// counters the workload's own traced load accumulated (cache hits, sheds).
Ledger RunLedger(const scube::datagen::GeneratedScenario& scenario,
                 scube::fpm::MineMode mode,
                 const scube::cube::SegregationCube& cube, uint64_t seed,
                 const ServeCounters& counters);

}  // namespace perfbench

#endif  // SCUBE_PERFBENCH_LEDGER_H_

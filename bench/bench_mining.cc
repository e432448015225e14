// EFF-MINE: the mining-engine comparison behind §3's efficiency discussion.
// FP-Growth (production engine, the Borgelt-FPGrowth stand-in) vs Eclat vs
// brute force, across minimum-support levels, plus the all-vs-closed
// ablation. Expected shape: FP-Growth and Eclat lead, brute force is
// hopeless beyond toy sizes; closed-mode output is a fraction of all-mode
// output on correlated data.

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "fpm/brute_force.h"
#include "fpm/registry.h"
#include "fpm/transaction_db.h"

namespace {

using namespace scube;

// Correlated transactions resembling an encoded finalTable: a few
// high-frequency demographic items plus correlated context items.
fpm::TransactionDb MakeDb(size_t num_transactions, uint64_t seed = 42) {
  Rng rng(seed);
  fpm::TransactionDb db;
  for (size_t t = 0; t < num_transactions; ++t) {
    std::vector<fpm::ItemId> items;
    items.push_back(rng.NextBool(0.3) ? 0 : 1);            // gender
    items.push_back(2 + static_cast<fpm::ItemId>(rng.NextBounded(4)));  // age
    fpm::ItemId region = 6 + static_cast<fpm::ItemId>(rng.NextBounded(2));
    items.push_back(region);
    // Province correlated with region.
    items.push_back(8 + (region - 6) * 10 +
                    static_cast<fpm::ItemId>(rng.NextZipf(10, 1.3)) - 1);
    // Sector; mildly correlated with gender.
    fpm::ItemId sector = 28 + static_cast<fpm::ItemId>(
        rng.NextZipf(20, items[0] == 0 ? 1.1 : 1.4)) - 1;
    items.push_back(sector);
    db.AddTransaction(std::move(items));
  }
  return db;
}

const fpm::TransactionDb& SharedDb() {
  static const fpm::TransactionDb db = MakeDb(20000);
  return db;
}

void RunMiner(benchmark::State& state, const std::string& engine,
              fpm::MineMode mode) {
  const fpm::TransactionDb& db = SharedDb();
  auto miner = fpm::MakeMiner(engine);
  fpm::MinerOptions opts;
  opts.min_support = static_cast<uint64_t>(state.range(0));
  opts.mode = mode;
  opts.max_length = 5;
  size_t found = 0;
  for (auto _ : state) {
    auto result = miner.value()->Mine(db, opts);
    found = result.value().size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["itemsets"] = static_cast<double>(found);
}

void BM_FpGrowth(benchmark::State& state) {
  RunMiner(state, "fpgrowth", fpm::MineMode::kAll);
}
void BM_Eclat(benchmark::State& state) {
  RunMiner(state, "eclat", fpm::MineMode::kAll);
}
void BM_FpGrowthClosed(benchmark::State& state) {
  RunMiner(state, "fpgrowth", fpm::MineMode::kClosed);
}

// Support sweep: 5%, 1%, 0.2% of 20k transactions.
BENCHMARK(BM_FpGrowth)->Arg(1000)->Arg(200)->Arg(40)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Eclat)->Arg(1000)->Arg(200)->Arg(40)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_FpGrowthClosed)->Arg(1000)->Arg(200)->Arg(40)
    ->Unit(benchmark::kMillisecond);

// Brute force only at toy scale (exponential).
void BM_BruteForceToy(benchmark::State& state) {
  static const fpm::TransactionDb db = MakeDb(300, 7);
  fpm::BruteForceMiner miner;
  fpm::MinerOptions opts;
  opts.min_support = static_cast<uint64_t>(state.range(0));
  opts.max_length = 4;
  for (auto _ : state) {
    auto result = miner.Mine(db, opts);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_BruteForceToy)->Arg(15)->Arg(3)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();

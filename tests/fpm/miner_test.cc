// Cross-engine miner tests: hand-checked anchors on a tiny database plus
// randomized equivalence sweeps of all engines against the brute-force
// reference, in every mode.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

#include "common/random.h"
#include "fpm/brute_force.h"
#include "fpm/miner.h"
#include "fpm/registry.h"
#include "fpm/transaction_db.h"

namespace scube {
namespace fpm {
namespace {

TransactionDb TextbookDb() {
  // Han's textbook example (items recoded: f=0,c=1,a=2,b=3,m=4,p=5,i=6,...).
  TransactionDb db;
  db.AddTransaction({0, 2, 1, 4, 5});  // f a c m p (+dropped infrequent)
  db.AddTransaction({0, 1, 2, 3, 4});  // f c a b m
  db.AddTransaction({0, 3});           // f b
  db.AddTransaction({1, 3, 5});        // c b p
  db.AddTransaction({0, 1, 2, 4, 5});  // f c a m p
  return db;
}

std::map<Itemset, uint64_t> AsMap(const std::vector<FrequentItemset>& sets) {
  std::map<Itemset, uint64_t> m;
  for (const auto& fs : sets) m[fs.items] = fs.support;
  return m;
}

TEST(MinerOptionsTest, Validation) {
  MinerOptions bad;
  bad.min_support = 0;
  EXPECT_FALSE(ValidateMinerOptions(bad).ok());
  bad.min_support = 1;
  bad.max_length = 0;
  EXPECT_FALSE(ValidateMinerOptions(bad).ok());
}

TEST(RegistryTest, KnownAndUnknownEngines) {
  for (const std::string& name : MinerNames()) {
    auto miner = MakeMiner(name);
    ASSERT_TRUE(miner.ok()) << name;
    EXPECT_EQ(miner.value()->Name(), name);
  }
  EXPECT_FALSE(MakeMiner("does-not-exist").ok());
}

class AllEnginesTest : public ::testing::TestWithParam<std::string> {
 protected:
  std::unique_ptr<FrequentItemsetMiner> miner_ =
      std::move(MakeMiner(GetParam()).value());
};

TEST_P(AllEnginesTest, TextbookSupports) {
  TransactionDb db = TextbookDb();
  MinerOptions opts;
  opts.min_support = 3;
  auto result = miner_->Mine(db, opts);
  ASSERT_TRUE(result.ok());
  auto m = AsMap(result.value());

  // Hand-checked supports at minsup 3.
  EXPECT_EQ(m.at(Itemset({0})), 4u);        // f
  EXPECT_EQ(m.at(Itemset({1})), 4u);        // c
  EXPECT_EQ(m.at(Itemset({2})), 3u);        // a
  EXPECT_EQ(m.at(Itemset({3})), 3u);        // b
  EXPECT_EQ(m.at(Itemset({4})), 3u);        // m
  EXPECT_EQ(m.at(Itemset({5})), 3u);        // p
  EXPECT_EQ(m.at(Itemset({0, 1})), 3u);     // fc
  EXPECT_EQ(m.at(Itemset({0, 2})), 3u);     // fa
  EXPECT_EQ(m.at(Itemset({1, 2})), 3u);     // ca
  EXPECT_EQ(m.at(Itemset({0, 4})), 3u);     // fm
  EXPECT_EQ(m.at(Itemset({1, 4})), 3u);     // cm
  EXPECT_EQ(m.at(Itemset({2, 4})), 3u);     // am
  EXPECT_EQ(m.at(Itemset({1, 5})), 3u);     // cp
  EXPECT_EQ(m.at(Itemset({0, 1, 2})), 3u);  // fca
  EXPECT_EQ(m.at(Itemset({0, 1, 4})), 3u);
  EXPECT_EQ(m.at(Itemset({0, 2, 4})), 3u);
  EXPECT_EQ(m.at(Itemset({1, 2, 4})), 3u);
  EXPECT_EQ(m.at(Itemset({0, 1, 2, 4})), 3u);  // fcam
  // b pairs are all below minsup.
  EXPECT_EQ(m.count(Itemset({0, 3})), 0u);
  EXPECT_EQ(m.count(Itemset({1, 3})), 0u);
  EXPECT_EQ(m.size(), 18u);
}

TEST_P(AllEnginesTest, ClosedModeTextbook) {
  TransactionDb db = TextbookDb();
  MinerOptions opts;
  opts.min_support = 3;
  opts.mode = MineMode::kClosed;
  auto result = miner_->Mine(db, opts);
  ASSERT_TRUE(result.ok());
  auto m = AsMap(result.value());
  // Closed sets at minsup 3: {f}:4, {c}:4, {b}:3, {cp}:3, {fcam}:3, {fc}...
  // {fc} support 3 == {fcam} support -> not closed. {f}:4 closed, {c}:4
  // closed, {fcam}:3 closed, {cp}:3 closed, {b}:3 closed.
  EXPECT_EQ(m.size(), 5u);
  EXPECT_EQ(m.at(Itemset({0})), 4u);
  EXPECT_EQ(m.at(Itemset({1})), 4u);
  EXPECT_EQ(m.at(Itemset({3})), 3u);
  EXPECT_EQ(m.at(Itemset({1, 5})), 3u);
  EXPECT_EQ(m.at(Itemset({0, 1, 2, 4})), 3u);
}

TEST_P(AllEnginesTest, MaximalModeTextbook) {
  TransactionDb db = TextbookDb();
  MinerOptions opts;
  opts.min_support = 3;
  opts.mode = MineMode::kMaximal;
  auto result = miner_->Mine(db, opts);
  ASSERT_TRUE(result.ok());
  auto m = AsMap(result.value());
  EXPECT_EQ(m.size(), 3u);
  EXPECT_EQ(m.at(Itemset({3})), 3u);           // b
  EXPECT_EQ(m.at(Itemset({1, 5})), 3u);        // cp
  EXPECT_EQ(m.at(Itemset({0, 1, 2, 4})), 3u);  // fcam
}

TEST_P(AllEnginesTest, MaxLengthCap) {
  TransactionDb db = TextbookDb();
  MinerOptions opts;
  opts.min_support = 3;
  opts.max_length = 2;
  auto result = miner_->Mine(db, opts);
  ASSERT_TRUE(result.ok());
  for (const auto& fs : result.value()) {
    EXPECT_LE(fs.items.size(), 2u);
  }
  // All 6 singletons + 7 pairs.
  EXPECT_EQ(result.value().size(), 13u);
}

TEST_P(AllEnginesTest, MinSupportOneFindsEverything) {
  TransactionDb db;
  db.AddTransaction({0, 1});
  db.AddTransaction({1, 2});
  MinerOptions opts;
  opts.min_support = 1;
  auto result = miner_->Mine(db, opts);
  ASSERT_TRUE(result.ok());
  auto m = AsMap(result.value());
  EXPECT_EQ(m.size(), 5u);  // {0},{1},{2},{01},{12}
  EXPECT_EQ(m.at(Itemset({1})), 2u);
}

TEST_P(AllEnginesTest, NoFrequentItems) {
  TransactionDb db;
  db.AddTransaction({0});
  db.AddTransaction({1});
  MinerOptions opts;
  opts.min_support = 2;
  auto result = miner_->Mine(db, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().empty());
}

TEST_P(AllEnginesTest, IncludeEmptyItemset) {
  TransactionDb db;
  db.AddTransaction({0});
  db.AddTransaction({0, 1});
  MinerOptions opts;
  opts.min_support = 1;
  opts.include_empty = true;
  auto result = miner_->Mine(db, opts);
  ASSERT_TRUE(result.ok());
  auto m = AsMap(result.value());
  EXPECT_EQ(m.at(Itemset()), 2u);
}

TEST_P(AllEnginesTest, EmptyDatabase) {
  TransactionDb db;
  MinerOptions opts;
  opts.min_support = 1;
  auto result = miner_->Mine(db, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().empty());
}

INSTANTIATE_TEST_SUITE_P(Engines, AllEnginesTest,
                         ::testing::Values("fpgrowth", "eclat", "brute-force"));

// ---------------------------------------------------------------------------
// Randomized equivalence sweep: every engine x every mode must match the
// brute-force reference exactly on random databases.
// ---------------------------------------------------------------------------

struct SweepParams {
  uint64_t seed;
  size_t num_transactions;
  size_t num_items;
  double item_prob;
  uint64_t min_support;
  uint32_t max_length;
};

class EquivalenceSweep : public ::testing::TestWithParam<SweepParams> {};

TEST_P(EquivalenceSweep, EnginesMatchBruteForce) {
  const auto& p = GetParam();
  Rng rng(p.seed);
  TransactionDb db;
  for (size_t t = 0; t < p.num_transactions; ++t) {
    std::vector<ItemId> items;
    for (size_t i = 0; i < p.num_items; ++i) {
      if (rng.NextBool(p.item_prob)) items.push_back(static_cast<ItemId>(i));
    }
    db.AddTransaction(std::move(items));
  }

  for (MineMode mode : {MineMode::kAll, MineMode::kClosed, MineMode::kMaximal}) {
    MinerOptions opts;
    opts.min_support = p.min_support;
    opts.max_length = p.max_length;
    opts.mode = mode;
    BruteForceMiner reference;
    auto expected = reference.Mine(db, opts);
    ASSERT_TRUE(expected.ok());
    for (const char* name : {"fpgrowth", "eclat"}) {
      auto miner = MakeMiner(name);
      ASSERT_TRUE(miner.ok());
      auto actual = miner.value()->Mine(db, opts);
      ASSERT_TRUE(actual.ok()) << name;
      EXPECT_EQ(actual.value().size(), expected.value().size())
          << name << " mode=" << static_cast<int>(mode);
      ASSERT_EQ(actual.value(), expected.value())
          << name << " mode=" << static_cast<int>(mode);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomDbs, EquivalenceSweep,
    ::testing::Values(
        SweepParams{101, 30, 8, 0.4, 2, 32},
        SweepParams{102, 50, 6, 0.5, 3, 32},
        SweepParams{103, 20, 10, 0.3, 2, 4},   // length-capped
        SweepParams{104, 80, 5, 0.6, 5, 32},   // dense
        SweepParams{105, 40, 12, 0.15, 2, 3},  // sparse, capped
        SweepParams{106, 10, 4, 0.9, 2, 32},   // tiny and very dense
        SweepParams{107, 60, 7, 0.45, 6, 32},
        SweepParams{108, 25, 9, 0.35, 1, 32}));  // minsup 1

}  // namespace
}  // namespace fpm
}  // namespace scube

// Frequent-itemset miner interface and result types.
//
// SCube's data-cube construction is driven by frequent (closed) itemset
// mining (the original system uses Borgelt's FPGrowth). Two miners are
// provided — FP-Growth (the production engine) and Eclat (the baseline for
// the efficiency study) — plus a brute-force reference used in tests.

#ifndef SCUBE_FPM_MINER_H_
#define SCUBE_FPM_MINER_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/result.h"
#include "fpm/itemset.h"
#include "fpm/transaction_db.h"

namespace scube {
namespace fpm {

/// Which itemsets to report.
enum class MineMode {
  kAll,      ///< every frequent itemset
  kClosed,   ///< frequent itemsets with no equal-support proper superset
  kMaximal,  ///< frequent itemsets with no frequent proper superset
};

/// \brief Mining parameters.
struct MinerOptions {
  /// Absolute minimum support (number of transactions). Must be >= 1.
  uint64_t min_support = 1;

  /// Maximum itemset length; mining never reports longer sets. Closedness /
  /// maximality are relative to the length-bounded collection.
  uint32_t max_length = std::numeric_limits<uint32_t>::max();

  /// Which itemsets to report.
  MineMode mode = MineMode::kAll;

  /// When true, the empty itemset (support = |DB|) is included.
  bool include_empty = false;
};

/// \brief A mined itemset with its support.
struct FrequentItemset {
  Itemset items;
  uint64_t support = 0;

  bool operator==(const FrequentItemset& other) const {
    return support == other.support && items == other.items;
  }
};

/// \brief Abstract miner; implementations must be deterministic.
class FrequentItemsetMiner {
 public:
  virtual ~FrequentItemsetMiner() = default;

  /// Human-readable engine name (e.g. "fpgrowth").
  virtual std::string Name() const = 0;

  /// Mines `db` under `options`. The result order is unspecified; use
  /// SortItemsets for deterministic comparisons.
  virtual Result<std::vector<FrequentItemset>> Mine(
      const TransactionDb& db, const MinerOptions& options) const = 0;
};

/// Sorts lexicographically by items (deterministic canonical order).
void SortItemsets(std::vector<FrequentItemset>* sets);

/// Validates options (min_support >= 1 etc.).
Status ValidateMinerOptions(const MinerOptions& options);

/// Keeps only closed itemsets: no proper superset in `sets` has equal
/// support. Exact; relative to the given collection.
std::vector<FrequentItemset> FilterClosed(std::vector<FrequentItemset> sets);

/// Keeps only maximal itemsets: no proper superset in `sets` at all.
std::vector<FrequentItemset> FilterMaximal(std::vector<FrequentItemset> sets);

}  // namespace fpm
}  // namespace scube

#endif  // SCUBE_FPM_MINER_H_

// Workload inputs and the output oracle of the SCube benchmark.
//
// Query texts are drawn from a sealed cube with a seeded generator, so the
// same seed gives the same texts. Every text's expected answer is rendered
// in-process (Executor::ExecuteToSink into JsonWriter / CsvWriter on the
// same snapshot the server answers from) and every HTTP answer is compared
// byte for byte against it after masking the fields that legitimately vary
// between servings: the cube version, cache_hit, exec_ms, the scan
// accounting (cells_scanned) and resume-cursor tokens.

#ifndef SCUBE_PERFBENCH_ORACLE_H_
#define SCUBE_PERFBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cube/cube_view.h"
#include "query/executor.h"
#include "query/row_sink.h"

namespace perfbench {

/// \brief One query text with its oracle.
struct PoolText {
  std::string text;
  uint64_t rows = 0;  ///< answer rows
  std::string json;   ///< masked JSON rendering of the answer
  std::string csv;    ///< CSV rendering (export texts only)
};

/// Draws `n` distinct texts covering all seven verbs (LIMIT <= 50) from the
/// view's own cells, so every coordinate resolves.
std::vector<std::string> GeneratePool(const scube::cube::CubeView& view,
                                      uint64_t seed, size_t n);

/// The widest single-item DICE answers with more than `min_rows` rows,
/// widest first, at most `max_texts`. A non-zero `limit` pages each answer
/// to its first `limit` rows (answers narrower than that are left out).
std::vector<std::string> GenerateWide(const scube::cube::CubeView& view,
                                      uint64_t min_rows, size_t max_texts,
                                      uint64_t limit = 0);

/// Renders each text's oracle (JSON always, CSV when `with_csv`). Texts the
/// executor rejects are reported on stderr and left out.
std::vector<PoolText> RenderOracle(const scube::cube::CubeView& view,
                                   const std::vector<std::string>& texts,
                                   bool with_csv);

/// Masks the fields that vary between servings of one answer (see file
/// comment). `keep_cache_hit` leaves "cache_hit" visible, for workloads
/// whose answers must never be replayed from the cache.
std::string Mask(std::string_view body, bool keep_cache_hit = false);

/// The masked body a buffered POST /query of `text` must return.
std::string BufferedEnvelope(const PoolText& text);

/// The masked body a streamed JSON POST /query?stream=1 must return.
std::string StreamedJsonEnvelope(const PoolText& text);

/// Digest of a sealed cube: every cell's coordinates, counts, unit count,
/// definedness and index bit patterns, in the view's cell order.
uint64_t CubeDigest(const scube::cube::CubeView& view);

/// \brief A sink that counts rows and discards them: the executor's walk
/// with no serialisation. Records the time of the first row.
class CountingSink : public scube::query::RowSink {
 public:
  bool Begin(const scube::query::ResultHeader&) override { return true; }
  bool Row(const scube::query::ResultRow&) override;
  void Finish(const scube::query::ResultTrailer&) override {}

  uint64_t rows() const { return rows_; }
  double first_row_seconds() const { return first_row_; }

 private:
  uint64_t rows_ = 0;
  double first_row_ = -1;
};

}  // namespace perfbench

#endif  // SCUBE_PERFBENCH_ORACLE_H_

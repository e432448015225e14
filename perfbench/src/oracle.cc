#include "oracle.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <unordered_set>

#include "common/random.h"
#include "common/string_util.h"
#include "query/parser.h"
#include "support.h"

namespace perfbench {

using scube::cube::CubeCell;
using scube::cube::CubeView;
using scube::fpm::Itemset;
using scube::query::Verb;

namespace {

bool IsWordValue(const std::string& v) {
  if (v.empty()) return false;
  for (char c : v) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '.' &&
        c != '-' && c != '+') {
      return false;
    }
  }
  return true;
}

std::string ItemsText(const CubeView& view, const Itemset& items) {
  std::string out;
  for (scube::fpm::ItemId item : items.items()) {
    const auto& info = view.catalog().info(item);
    if (!out.empty()) out += " & ";
    out += info.attr_name + "=";
    out += IsWordValue(info.value) ? info.value : "'" + info.value + "'";
  }
  return out;
}

std::string CoordsText(const CubeView& view, const Itemset& sa,
                       const Itemset& ca) {
  std::string out;
  if (!sa.empty()) out += "sa=" + ItemsText(view, sa);
  if (!ca.empty()) {
    if (!out.empty()) out += " | ";
    out += "ca=" + ItemsText(view, ca);
  }
  return out;
}

const char* IndexName(scube::Rng& rng) {
  const auto& kinds = scube::indexes::AllIndexKinds();
  return scube::indexes::IndexKindToString(
      kinds[rng.NextBounded(kinds.size())]);
}

std::string Limit(scube::Rng& rng) {
  return " LIMIT " + std::to_string(rng.NextInt(1, 50));
}

std::string Fixed2(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

/// One random text of the given verb; "" when the drawn cell does not fit.
std::string DrawText(const CubeView& view, Verb verb, scube::Rng& rng) {
  const CubeCell& cell =
      view.Cells()[rng.NextBounded(view.Cells().size())];
  const Itemset& sa = cell.coords.sa;
  const Itemset& ca = cell.coords.ca;
  switch (verb) {
    case Verb::kSlice: {
      if (sa.empty() && ca.empty()) return "";
      uint64_t shape = rng.NextBounded(3);
      if (shape == 0 || sa.empty() || ca.empty()) {
        return "SLICE " + CoordsText(view, sa, ca);  // point (or one axis)
      }
      return shape == 1 ? "SLICE " + CoordsText(view, sa, {}) + Limit(rng)
                        : "SLICE " + CoordsText(view, {}, ca) + Limit(rng);
    }
    case Verb::kDice: {
      if (sa.empty() && ca.empty()) return "";
      std::string text = "DICE " + CoordsText(view, sa, ca);
      if (rng.NextBool(0.5)) {
        text += " WHERE T >= " + std::to_string(rng.NextInt(20, 400));
      }
      return text + Limit(rng);
    }
    case Verb::kRollup:
      if (sa.empty() && ca.empty()) return "";
      return "ROLLUP " + CoordsText(view, sa, ca);
    case Verb::kDrilldown:
      return "DRILLDOWN " + CoordsText(view, sa, ca) + Limit(rng);
    case Verb::kTopK:
      return "TOPK " + std::to_string(rng.NextInt(1, 50)) + " BY " +
             IndexName(rng) + " WHERE T >= " +
             std::to_string(rng.NextInt(20, 500)) + " AND M >= " +
             std::to_string(rng.NextInt(1, 60));
    case Verb::kSurprises:
      return std::string("SURPRISES BY ") + IndexName(rng) + " MINDELTA " +
             Fixed2(0.01 * static_cast<double>(rng.NextInt(1, 60))) +
             Limit(rng);
    case Verb::kReversals:
      return std::string("REVERSALS BY ") + IndexName(rng) + " MINGAP " +
             Fixed2(0.01 * static_cast<double>(rng.NextInt(1, 60))) +
             Limit(rng);
  }
  return "";
}

}  // namespace

std::vector<std::string> GeneratePool(const CubeView& view, uint64_t seed,
                                      size_t n) {
  scube::Rng rng(seed);
  std::vector<std::string> out;
  std::unordered_set<std::string> seen;
  for (size_t attempt = 0; out.size() < n && attempt < 50 * n; ++attempt) {
    Verb verb = static_cast<Verb>(attempt % scube::query::kNumVerbs);
    std::string text = DrawText(view, verb, rng);
    if (text.empty()) continue;
    auto parsed = scube::query::Parse(text);
    if (!parsed.ok()) continue;
    if (seen.insert(scube::query::Canonical(*parsed)).second) {
      out.push_back(std::move(text));
    }
  }
  return out;
}

std::vector<std::string> GenerateWide(const CubeView& view, uint64_t min_rows,
                                      size_t max_texts, uint64_t limit) {
  scube::query::Executor executor(view);
  std::vector<std::pair<uint64_t, std::string>> found;
  for (scube::fpm::ItemId item = 0; item < view.catalog().size(); ++item) {
    const auto& info = view.catalog().info(item);
    const char* axis =
        info.kind == scube::relational::AttributeKind::kSegregation ? "sa="
        : info.kind == scube::relational::AttributeKind::kContext   ? "ca="
                                                                    : nullptr;
    if (axis == nullptr) continue;
    std::string text = std::string("DICE ") + axis +
                       ItemsText(view, Itemset({item}));
    auto parsed = scube::query::Parse(text);
    if (!parsed.ok()) continue;
    CountingSink sink;
    if (!executor.ExecuteToSink(*parsed, {}, sink).ok()) continue;
    if (sink.rows() > min_rows) found.emplace_back(sink.rows(), text);
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  std::vector<std::string> out;
  for (size_t i = 0; i < found.size() && i < max_texts; ++i) {
    if (limit == 0) {
      out.push_back(found[i].second);
    } else if (found[i].first >= limit) {
      out.push_back(found[i].second + " LIMIT " + std::to_string(limit));
    }
  }
  return out;
}

std::vector<PoolText> RenderOracle(const CubeView& view,
                                   const std::vector<std::string>& texts,
                                   bool with_csv) {
  scube::query::Executor executor(view);
  std::vector<PoolText> out;
  out.reserve(texts.size());
  for (const std::string& text : texts) {
    auto parsed = scube::query::Parse(text);
    if (!parsed.ok()) {
      std::fprintf(stderr, "oracle: dropped '%s': %s\n", text.c_str(),
                   parsed.status().ToString().c_str());
      continue;
    }
    PoolText entry;
    entry.text = text;
    std::string json;
    scube::query::JsonWriter writer([&json](std::string_view data) {
      json.append(data);
      return true;
    });
    scube::query::StreamStats stats;
    scube::Status status = executor.ExecuteToSink(*parsed, {}, writer, &stats);
    if (!status.ok()) {
      std::fprintf(stderr, "oracle: dropped '%s': %s\n", text.c_str(),
                   status.ToString().c_str());
      continue;
    }
    // The cursor token embeds the serving version; only its presence is
    // part of the answer, so any non-empty stand-in renders the same mask.
    scube::query::ResultTrailer trailer;
    trailer.cells_scanned = stats.cells_scanned;
    if (!stats.exhausted) trailer.next_cursor = "X";
    writer.Finish(trailer);
    entry.rows = stats.rows_emitted;
    entry.json = Mask(json);
    if (with_csv) {
      scube::query::CsvWriter csv_writer([&entry](std::string_view data) {
        entry.csv.append(data);
        return true;
      });
      if (!executor.ExecuteToSink(*parsed, {}, csv_writer).ok()) continue;
      csv_writer.Finish(trailer);
      entry.csv = Mask(entry.csv);
    }
    out.push_back(std::move(entry));
  }
  return out;
}

std::string Mask(std::string_view body, bool keep_cache_hit) {
  static constexpr std::string_view kScalarKeys[] = {
      "\"version\":", "\"exec_ms\":", "\"cells_scanned\":", "\"cache_hit\":"};
  static constexpr std::string_view kCursorJson = "\"next_cursor\":\"";
  static constexpr std::string_view kCursorCsv = "# next_cursor: ";
  std::string out;
  out.reserve(body.size());
  size_t i = 0;
  auto starts = [&](std::string_view key) {
    return body.compare(i, key.size(), key) == 0;
  };
  while (i < body.size()) {
    char c = body[i];
    bool masked = false;
    if (c == '"') {
      size_t keys = keep_cache_hit ? 3 : 4;
      for (size_t k = 0; k < keys && !masked; ++k) {
        if (!starts(kScalarKeys[k])) continue;
        out.append(kScalarKeys[k]);
        out.push_back('X');
        i += kScalarKeys[k].size();
        while (i < body.size() && body[i] != ',' && body[i] != '}' &&
               body[i] != ']') {
          ++i;
        }
        masked = true;
      }
      if (!masked && starts(kCursorJson)) {
        out.append(kCursorJson);
        out.append("X\"");
        size_t end = body.find('"', i + kCursorJson.size());
        i = end == std::string_view::npos ? body.size() : end + 1;
        masked = true;
      }
    } else if (c == '#' && starts(kCursorCsv)) {
      out.append(kCursorCsv);
      out.push_back('X');
      size_t end = body.find('\n', i);
      i = end == std::string_view::npos ? body.size() : end;
      masked = true;
    }
    if (!masked) {
      out.push_back(c);
      ++i;
    }
  }
  return out;
}

std::string BufferedEnvelope(const PoolText& text) {
  return Mask("{\"count\":1,\"results\":[{\"query\":" +
              scube::JsonQuote(text.text) +
              ",\"code\":\"OK\",\"cube\":\"default\",\"version\":0,"
              "\"cache_hit\":false,\"exec_ms\":0,\"result\":" +
              text.json + "}]}\n");
}

std::string StreamedJsonEnvelope(const PoolText& text) {
  return Mask("{\"query\":" + scube::JsonQuote(text.text) +
                  ",\"result\":" + text.json +
                  ",\"code\":\"OK\",\"cube\":\"default\",\"version\":0,"
                  "\"cache_hit\":false,\"rows\":" +
                  std::to_string(text.rows) + "}\n",
              /*keep_cache_hit=*/true);
}

uint64_t CubeDigest(const CubeView& view) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  };
  for (const CubeCell& cell : view.Cells()) {
    for (const Itemset* items : {&cell.coords.sa, &cell.coords.ca}) {
      uint64_t size = items->size();
      mix(&size, sizeof(size));
      for (scube::fpm::ItemId item : items->items()) mix(&item, sizeof(item));
    }
    mix(&cell.context_size, sizeof(cell.context_size));
    mix(&cell.minority_size, sizeof(cell.minority_size));
    mix(&cell.num_units, sizeof(cell.num_units));
    unsigned char defined = cell.indexes.defined ? 1 : 0;
    mix(&defined, 1);
    for (double v : cell.indexes.values) {
      uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof(bits));
      mix(&bits, sizeof(bits));
    }
  }
  return h;
}

bool CountingSink::Row(const scube::query::ResultRow&) {
  if (rows_ == 0) first_row_ = NowSeconds();
  ++rows_;
  return true;
}

}  // namespace perfbench

#include "common/prometheus.h"

#include "common/string_util.h"

namespace scube {
namespace prometheus {

namespace {

/// `<name><suffix>{<label>} <value>\n`, braces only around a label.
void Line(std::string* out, std::string_view name, std::string_view suffix,
          std::string_view label, std::string_view value) {
  out->append(name);
  out->append(suffix);
  if (!label.empty()) {
    *out += '{';
    out->append(label);
    *out += '}';
  }
  *out += ' ';
  out->append(value);
  *out += '\n';
}

std::string Decimal(uint64_t v) {
  std::string s;
  AppendDecimal(v, &s);
  return s;
}

/// printf("%g") — the exposition's rendering of every double.
std::string General(double v) {
  std::string s;
  AppendDoubleG6(v, &s);
  return s;
}

}  // namespace

void FamilyHeader(std::string* out, std::string_view name,
                  std::string_view type, std::string_view help) {
  *out += "# HELP ";
  out->append(name);
  *out += ' ';
  out->append(help);
  *out += "\n# TYPE ";
  out->append(name);
  *out += ' ';
  out->append(type);
  *out += '\n';
}

void Sample(std::string* out, std::string_view name, std::string_view label,
            uint64_t value) {
  Line(out, name, "", label, Decimal(value));
}

void Counter(std::string* out, std::string_view name, uint64_t value,
             std::string_view help) {
  FamilyHeader(out, name, "counter", help);
  Sample(out, name, "", value);
}

void Gauge(std::string* out, std::string_view name, double value,
           std::string_view help) {
  FamilyHeader(out, name, "gauge", help);
  Line(out, name, "", "", General(value));
}

void HistogramSeries(std::string* out, std::string_view name,
                     std::string_view label,
                     const trace::LatencyHistogram& hist) {
  const std::string prefix =
      label.empty() ? std::string() : std::string(label) + ',';
  auto bucket = [&](const std::string& le, uint64_t cumulative) {
    Line(out, name, "_bucket", prefix + "le=\"" + le + '"',
         Decimal(cumulative));
  };
  uint64_t cumulative = 0;
  for (size_t i = 0; i < trace::LatencyHistogram::kBucketBoundsMs.size();
       ++i) {
    cumulative += hist.bucket(i);
    bucket(General(trace::LatencyHistogram::kBucketBoundsMs[i] / 1000.0),
           cumulative);
  }
  cumulative += hist.bucket(trace::LatencyHistogram::kNumBuckets - 1);
  bucket("+Inf", cumulative);
  Line(out, name, "_sum", label, General(hist.sum_ms() / 1000.0));
  Line(out, name, "_count", label, Decimal(hist.count()));
}

}  // namespace prometheus
}  // namespace scube

#include "support.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <charconv>
#include <cstdio>

namespace perfbench {

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Summary Summarize(std::vector<double> samples) {
  Summary out;
  out.count = samples.size();
  if (samples.empty()) return out;
  out.median = Median(samples);
  std::sort(samples.begin(), samples.end());
  size_t n = samples.size();
  // Highest rank with at least ten samples above it, never past p95 (p99
  // of a closed-loop query mix did not repeat within a tenth run to run).
  // With too few samples for any such rank above the median, the tail is
  // the median itself.
  size_t p95 = static_cast<size_t>(0.95 * static_cast<double>(n - 1));
  size_t rank = n > 10 ? std::min(n - 11, p95) : 0;
  double percentile =
      n > 1 ? 100.0 * static_cast<double>(rank) / static_cast<double>(n - 1)
            : 0.0;
  if (percentile <= 50.0) {
    out.tail = out.median;
    out.tail_percentile = 50.0;
  } else {
    out.tail = samples[rank];
    out.tail_percentile = percentile;
  }
  return out;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

SpanLog::SpanLog() : epoch_(std::chrono::steady_clock::now()) {}

SpanLog& SpanLog::Get() {
  static SpanLog log;
  return log;
}

double SpanLog::NowMicros() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

uint32_t SpanLog::Open(const char* name, uint32_t parent, double start_us) {
  std::lock_guard<std::mutex> lock(mu_);
  Record rec;
  rec.name = name;
  rec.id = static_cast<uint32_t>(records_.size() + 1);
  rec.parent = parent;
  rec.start_us = start_us;
  rec.end_us = start_us;
  records_.push_back(std::move(rec));
  return records_.back().id;
}

void SpanLog::Close(uint32_t id, double end_us) {
  std::lock_guard<std::mutex> lock(mu_);
  if (id >= 1 && id <= records_.size()) records_[id - 1].end_us = end_us;
}

std::map<std::string, std::vector<double>> SpanLog::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_time(records_.size() + 1, 0.0);
  for (const Record& r : records_) {
    if (r.parent != 0) child_time[r.parent] += r.end_us - r.start_us;
  }
  std::map<std::string, std::vector<double>> out;
  for (const Record& r : records_) {
    out[r.name].push_back(r.end_us - r.start_us - child_time[r.id]);
  }
  return out;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::map<std::string, std::vector<double>> self = SelfTimes();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"self_time_us\":{");
  bool first = true;
  for (const auto& [name, times] : self) {
    double total = 0;
    for (double t : times) total += t;
    std::fprintf(f, "%s\"%s\":{\"count\":%zu,\"median\":%.3f,\"total\":%.3f}",
                 first ? "" : ",", name.c_str(), times.size(), Median(times),
                 total);
    first = false;
  }
  std::fprintf(f, "},\"spans\":[");
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::fprintf(f,
                 "%s\n{\"id\":%u,\"parent\":%u,\"name\":\"%s\","
                 "\"start_us\":%.3f,\"end_us\":%.3f}",
                 i == 0 ? "" : ",", r.id, r.parent, r.name.c_str(), r.start_us,
                 r.end_us);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

namespace {
thread_local uint32_t current_span = 0;
}  // namespace

Span::Span(const char* name) : start_(std::chrono::steady_clock::now()) {
  SpanLog& log = SpanLog::Get();
  if (log.enabled()) {
    prev_parent_ = current_span;
    id_ = log.Open(name, current_span, log.NowMicros());
    current_span = id_;
  }
}

double Span::End() {
  if (!open_) return duration_us_;
  open_ = false;
  duration_us_ = std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - start_)
                     .count();
  if (id_ != 0) {
    SpanLog& log = SpanLog::Get();
    log.Close(id_, log.NowMicros());
    current_span = prev_parent_;
  }
  return duration_us_;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof(buf), metrics[i].value);
    std::string value(buf, res.ptr);
    if (value.find_first_of("0123456789") == std::string::npos) value = "0";
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name +
           "\": {\"value\": " + value + ", \"unit\": \"" + metrics[i].unit +
           "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench

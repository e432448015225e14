// Measurement support for the SCube benchmark: order statistics, process
// clocks, a per-thread allocation counter, and an in-memory span log.

#ifndef SCUBE_PERFBENCH_SUPPORT_H_
#define SCUBE_PERFBENCH_SUPPORT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Median of the samples (mean of the two middle values for even n); 0 when
/// empty.
double Median(std::vector<double> samples);

/// \brief A timing summary: the median, plus the highest percentile that
/// still has at least ten samples beyond it (capped at p95).
struct Summary {
  double median = 0;
  double tail = 0;
  double tail_percentile = 50;  ///< which percentile `tail` is
  size_t count = 0;
};
Summary Summarize(std::vector<double> samples);

/// Seconds on the monotonic clock.
double NowSeconds();

/// CPU seconds consumed by every thread of this process so far.
double ProcessCpuSeconds();

/// Peak resident set size of this process in MiB.
double PeakRssMb();

/// Allocations made so far by the calling thread (the benchmark binary
/// replaces the global operator new; see alloc_hook.cc).
uint64_t ThreadAllocs();

/// \brief Counts the calling thread's allocations between construction and
/// Read(). Only meaningful around single-threaded calls.
class AllocScope {
 public:
  AllocScope() : start_(ThreadAllocs()) {}
  uint64_t Read() const { return ThreadAllocs() - start_; }

 private:
  uint64_t start_;
};

/// \brief Completed spans kept in memory and written out at the end of a
/// traced run. A span names one call into a layer's public function, made
/// from the benchmark's own code; nesting on one thread records the parent.
class SpanLog {
 public:
  struct Record {
    std::string name;
    uint32_t id = 0;
    uint32_t parent = 0;  ///< 0 = root
    double start_us = 0;  ///< offset from the log's epoch
    double end_us = 0;
  };

  /// The process-wide log; disabled (every span a no-op) until Enable().
  static SpanLog& Get();

  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  uint32_t Open(const char* name, uint32_t parent, double start_us);
  void Close(uint32_t id, double end_us);
  double NowMicros() const;

  /// Per-name self time (duration minus the time covered by child spans),
  /// in microseconds, in recording order.
  std::map<std::string, std::vector<double>> SelfTimes() const;

  /// Writes every span plus a per-name self-time summary as JSON.
  bool WriteJson(const std::string& path) const;

 private:
  SpanLog();
  bool enabled_ = false;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

/// \brief RAII span over the global SpanLog. End() returns the duration in
/// microseconds and is measured whether or not the log is enabled, so the
/// same code yields the timing in traced and untraced runs.
class Span {
 public:
  explicit Span(const char* name);
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  double End();

 private:
  std::chrono::steady_clock::time_point start_;
  uint32_t id_ = 0;
  uint32_t prev_parent_ = 0;
  bool open_ = true;
  double duration_us_ = 0;
};

/// \brief The last stdout line the benchmark prints.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // SCUBE_PERFBENCH_SUPPORT_H_

// scube_perfbench: the SCube end-to-end benchmark.
//
//   scube_perfbench --workload build|explore|export|scatter --seed N
//                   --seconds S --trace 0|1 [--spans-out PATH]
//
// --trace 0 sets the workload up several times (setup_s is the median),
// self-checks the oracle, measures for S seconds and prints the end-to-end
// metrics. --trace 1 sets up once, measures S/2 seconds untraced and S/2
// seconds with a span per op (their difference is the tracing overhead),
// then runs the per-layer ledger and prints the per-layer metrics; the
// spans go to PATH. Either way the last stdout line is one JSON object:
// {"correct":..., "attempted":..., "failed":..., "metrics":{...}}.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "ledger.h"
#include "support.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Setups per untraced run; setup_s is their median.
constexpr int kSetupRepeats = 3;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

/// Which percentile a workload's op_tail_ms is, given its sample count.
std::string TailLabel(const Summary& s) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "p%.1f of %zu samples", s.tail_percentile,
                s.count);
  return buf;
}

/// The end-to-end metrics of one phase. The op is the workload's unit of
/// work: one build-and-publish, one buffered query, one streamed export.
std::vector<Metric> EndToEnd(const Phase& phase, double setup_s,
                             bool with_setup) {
  Summary s = Summarize(phase.latency_ms);
  double ops = static_cast<double>(phase.latency_ms.size());
  std::vector<Metric> m;
  if (with_setup) m.push_back({"setup_s", setup_s, "s"});
  m.push_back({"op_p50_ms", s.median, "ms"});
  m.push_back({"op_tail_ms", s.tail, "ms"});
  m.push_back({"ops_per_s", ops / phase.seconds, "1/s"});
  m.push_back({"cpu_ms_per_op", ops > 0 ? phase.cpu_seconds * 1e3 / ops : 0,
               "ms"});
  m.push_back({"peak_rss_mb", PeakRssMb(), "MiB"});
  m.push_back({"ok_ratio",
               phase.attempted > 0
                   ? static_cast<double>(phase.attempted - phase.failed) /
                         static_cast<double>(phase.attempted)
                   : 0,
               "ratio"});
  return m;
}

void PrintInfo(const std::string& workload, const Phase& phase) {
  Summary s = Summarize(phase.latency_ms);
  std::printf("# %s: %llu requests attempted, %llu failed; op latency "
              "median %.3f ms, tail %.3f ms (%s); %.1f rows per op\n",
              workload.c_str(),
              static_cast<unsigned long long>(phase.attempted),
              static_cast<unsigned long long>(phase.failed), s.median, s.tail,
              TailLabel(s).c_str(),
              s.count > 0 ? static_cast<double>(phase.rows) /
                                static_cast<double>(s.count)
                          : 0.0);
  if (!phase.publish_ms.empty()) {
    Summary p = Summarize(phase.publish_ms);
    std::printf("# publish_ms median %.3f, tail %.3f (%s)\n", p.median, p.tail,
                TailLabel(p).c_str());
  }
  if (!phase.ttfb_ms.empty()) {
    Summary t = Summarize(phase.ttfb_ms);
    std::printf("# ttfb_ms median %.3f, tail %.3f (%s)\n", t.median, t.tail,
                TailLabel(t).c_str());
  }
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("# %-40s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

int RunUntraced(const Args& args) {
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  for (int i = 0; i < kSetupRepeats; ++i) {
    workload.reset();
    double t0 = NowSeconds();
    std::unique_ptr<Workload> fresh = MakeWorkload(args.workload);
    fresh->Setup(args.seed);
    setup_s.push_back(NowSeconds() - t0);
    workload = std::move(fresh);
  }
  bool self_check = workload->SelfCheck();
  std::printf("# oracle self-check: %s\n", self_check ? "passed" : "FAILED");
  Phase phase = workload->Run(args.seconds, false);
  PrintInfo(args.workload, phase);
  std::vector<Metric> metrics = EndToEnd(phase, Median(setup_s), true);
  PrintMetrics(metrics);
  std::fflush(stdout);
  workload.reset();
  std::printf("%s\n", ResultJson(self_check && phase.failed == 0,
                                 std::max<uint64_t>(phase.attempted, 1),
                                 phase.failed, metrics)
                          .c_str());
  return 0;
}

int RunTraced(const Args& args) {
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload);
  workload->Setup(args.seed);
  bool self_check = workload->SelfCheck();
  std::printf("# oracle self-check: %s\n", self_check ? "passed" : "FAILED");

  Phase untraced = workload->Run(args.seconds / 2, false);
  std::vector<Metric> plain = EndToEnd(untraced, 0, false);
  SpanLog::Get().Enable();
  Phase traced = workload->Run(args.seconds / 2, true);
  std::vector<Metric> spanned = EndToEnd(traced, 0, false);
  PrintInfo(args.workload + " (untraced half)", untraced);
  PrintInfo(args.workload + " (traced half)", traced);

  Ledger ledger = RunLedger(workload->inputs(), workload->mode(),
                            workload->cube(), args.seed, workload->counters());
  for (size_t i = 0; i < plain.size(); ++i) {
    ledger.metrics.push_back({"trace_overhead." + plain[i].name,
                              spanned[i].value - plain[i].value,
                              plain[i].unit});
  }
  PrintMetrics(ledger.metrics);
  if (!args.spans_out.empty() && !SpanLog::Get().WriteJson(args.spans_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.spans_out.c_str());
  }
  uint64_t attempted = untraced.attempted + traced.attempted;
  uint64_t failed = untraced.failed + traced.failed;
  std::fflush(stdout);
  workload.reset();
  std::printf("%s\n",
              ResultJson(self_check && failed == 0 && ledger.ok,
                         std::max<uint64_t>(attempted, 1), failed,
                         ledger.metrics)
                  .c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args) ||
      perfbench::MakeWorkload(args.workload) == nullptr) {
    std::fprintf(stderr,
                 "usage: scube_perfbench --workload build|explore|export|"
                 "scatter --seed N --seconds S --trace 0|1 "
                 "[--spans-out PATH]\n");
    return 2;
  }
  return args.trace ? perfbench::RunTraced(args) : perfbench::RunUntraced(args);
}

// Prometheus text exposition (format 0.0.4): the one set of helpers every
// /metrics emitter appends through — the server's own series
// (server/metrics.cc), a QueryService's queue and cache series and a
// scatter router's per-shard series.
//
// Numbers render as the exposition has always carried them: integers in
// decimal, doubles as printf("%g"). Labels are passed pre-rendered as the
// text between the braces (`shard="0",backend="h:1"`); "" means an
// unlabelled sample.

#ifndef SCUBE_COMMON_PROMETHEUS_H_
#define SCUBE_COMMON_PROMETHEUS_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/trace.h"

namespace scube {
namespace prometheus {

/// The "# HELP" and "# TYPE" lines of one metric family; emitted once per
/// family no matter how many labelled samples follow.
void FamilyHeader(std::string* out, std::string_view name,
                  std::string_view type, std::string_view help);

/// One sample line: `name{label} value` (no braces when `label` is "").
void Sample(std::string* out, std::string_view name, std::string_view label,
            uint64_t value);

/// An unlabelled counter family: header plus its single sample.
void Counter(std::string* out, std::string_view name, uint64_t value,
             std::string_view help);

/// An unlabelled gauge family: header plus its single sample.
void Gauge(std::string* out, std::string_view name, double value,
           std::string_view help);

/// One labelled series of a histogram family (its header comes from
/// FamilyHeader(..., "histogram", ...)): the cumulative _bucket samples
/// with `le` in seconds and "+Inf" last, then _sum and _count.
void HistogramSeries(std::string* out, std::string_view name,
                     std::string_view label,
                     const trace::LatencyHistogram& hist);

}  // namespace prometheus
}  // namespace scube

#endif  // SCUBE_COMMON_PROMETHEUS_H_

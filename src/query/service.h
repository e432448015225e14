// QueryService: the concurrent SCubeQL serving layer.
//
// One service owns an LRU result cache in front of a CubeStore. Every
// statement runs on its caller's thread through ExecuteStreaming: parse,
// resolve the cube snapshot, then replay a cached answer or walk the
// per-snapshot executor straight into the caller's RowSink. Buffered
// answers (ExecuteOne) are the same stream collected into a VectorSink.
// Publishing new cubes proceeds concurrently: in-flight queries keep
// their snapshot.
//
// Overload safety (the network front-end's contract):
//   - admission control: executions in flight are bounded; a statement
//     arriving while that count is at the bound is shed immediately with
//     Unavailable (scubed turns that into HTTP 503 + Retry-After),
//   - per-query deadlines: a QueryContext deadline (or the configured
//     default) is checked cooperatively during the walk, so expired
//     queries return DeadlineExceeded instead of burning the thread,
//   - graceful shutdown: Shutdown() stops admitting; executions already
//     admitted finish on their callers' threads,
//   - publish-time warming: PublishAndWarm() re-executes the hottest
//     cached query texts against the freshly sealed view, so a publish
//     does not cliff the cache hit rate.

#ifndef SCUBE_QUERY_SERVICE_H_
#define SCUBE_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "query/ast.h"
#include "query/backend.h"
#include "query/context.h"
#include "query/cube_store.h"
#include "query/query_result.h"
#include "query/row_sink.h"

namespace scube {
namespace query {

/// \brief Service tuning knobs.
struct ServiceOptions {
  /// Ignored: statements run on their callers' threads and the service
  /// owns no workers. Kept only because perfbench/ still sets it.
  size_t num_workers = 4;

  /// Result-cache entries across all cubes (0 disables caching).
  size_t cache_capacity = 256;

  /// Cube name used when a query has no FROM clause.
  std::string default_cube = "default";

  /// Admission bound: a statement arriving while this many executions
  /// (buffered or streamed) are in flight is shed with Unavailable. Each
  /// execution pins a cube snapshot and burns its caller's CPU until it
  /// finishes. 0 sheds everything (useful for drain tests); the front-end's
  /// dispatch pool size is the natural floor.
  size_t max_pending = 256;

  /// Deadline applied to requests that carry none (milliseconds);
  /// 0 = unbounded.
  double default_deadline_ms = 0;

  /// Hottest cached query texts re-executed by PublishAndWarm().
  size_t warm_top_n = 8;

  /// Threads sealing a cube at publish time (PublishAndWarm runs the seal
  /// inline on the serving path, so this bounds publish latency):
  /// 1 = sequential, 0 = all hardware threads, N = at most N threads from
  /// the shared pool. The sealed view is identical for every setting.
  size_t seal_threads = 1;

  /// Answers above this many rows are not materialised into the result
  /// cache — a stream's memory stays bounded no matter how large the
  /// answer is. Buffered answers obey the same limit.
  size_t cache_max_rows = 10000;
};

// ServiceStats, QueryResponse and StreamOutcome live in query/backend.h
// (shared with every QueryBackend implementation).

/// \brief Concurrent query server over a CubeStore. Thread-safe.
class QueryService : public QueryBackend {
 public:
  explicit QueryService(CubeStore* store, ServiceOptions options = {});

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Streams one query's answer into `sink` on the caller's thread
  /// (header -> rows -> trailer; the service calls sink.Finish), under
  /// admission control (Unavailable when options().max_pending executions
  /// are in flight), the default deadline and the result cache — hits
  /// replay the materialised result through the sink byte-identically to
  /// a live stream; misses that stay under options().cache_max_rows rows
  /// are materialised into the cache as they stream past.
  ///
  /// `cursor` resumes a previous page: it pins the exact name@version
  /// snapshot the first page walked (NotFound once evicted) and overrides
  /// the query's OFFSET with the saved position, so stitched pages equal
  /// the unpaginated answer. Cursor-resumed requests bypass the cache.
  StreamOutcome ExecuteStreaming(const std::string& text, RowSink& sink,
                                 const QueryContext& ctx = {},
                                 const std::string& cursor = "") override;

  /// \brief Outcome of a PublishAndWarm call.
  struct PublishInfo {
    uint64_t version = 0;  ///< the newly published version
    size_t warmed = 0;     ///< cache entries pre-filled for that version
  };

  /// Publishes `cube` under `name` and immediately re-executes the
  /// hottest cached query texts for that cube (options().warm_top_n)
  /// against the fresh snapshot, pre-filling the result cache under the
  /// live path's rule (an answer over options().cache_max_rows rows is
  /// not warmed). Warming runs on the caller's thread and bypasses
  /// admission control — the publisher pays for it, traffic is not
  /// displaced. Version-pinned texts (`FROM name@v`) are skipped: they do
  /// not target the new version.
  PublishInfo PublishAndWarm(const std::string& name,
                             cube::SegregationCube cube);

  /// Stops admitting: every later statement is shed with Unavailable.
  /// Executions already admitted run to completion on their callers'
  /// threads. Idempotent.
  void Shutdown();

  ResultCache::Stats cache_stats() const { return cache_.stats(); }
  void ClearCache() { cache_.Clear(); }
  const ServiceOptions& options() const { return options_; }

  /// Serving counters snapshot.
  ServiceStats stats() const override;

  /// Published cubes in the underlying store (GET /cubes).
  std::vector<CubeInfo> ListCubes() const override;

  /// In-flight gauge and result-cache counters for /metrics.
  void AppendBackendMetrics(std::string* out) const override;

  /// Executions currently admitted and unfinished (the admission count).
  size_t queue_depth() const;

 private:
  /// OK and one more execution in flight, or the Unavailable shed status.
  Status AdmitOrShed();

  /// Applies the configured default deadline to contexts carrying none.
  QueryContext WithDefaultDeadline(const QueryContext& ctx) const;

  /// The one rule for what enters the result cache, shared by the live
  /// miss path and PublishAndWarm. Runs `query` against `snapshot`
  /// (outcome->cube at outcome->cube_version) into `sink` and finishes the
  /// stream, filling outcome's begun, rows, cells_scanned, next_cursor and
  /// exec_ms. With `cache` (and a non-zero cache capacity) the rows also
  /// flow through a CachingTee, and the answer is Put under
  /// outcome->canonical only when the stream succeeded, was not aborted and
  /// stayed within options().cache_max_rows rows; `cached` (if given) is
  /// set when it was.
  Status ExecuteAndCache(const CubeStore::Snapshot& snapshot,
                         const Query& query, uint64_t query_hash,
                         const QueryContext& ctx, bool cache, RowSink& sink,
                         StreamOutcome* outcome, bool* cached = nullptr);

  CubeStore* store_;
  ServiceOptions options_;
  ResultCache cache_;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> deadline_expired_{0};
  std::atomic<uint64_t> completed_{0};

  /// Admitted executions that have not finished, bounded by max_pending.
  std::atomic<uint64_t> in_flight_{0};
  std::atomic<bool> stopping_{false};
};

}  // namespace query
}  // namespace scube

#endif  // SCUBE_QUERY_SERVICE_H_

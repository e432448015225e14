// QueryBackend: the serving-layer seam between scubed's HTTP surface and
// whatever answers SCubeQL statements behind it.
//
// Two implementations exist:
//   query::QueryService      one process, one CubeStore (the classic path)
//   cluster::ScatterExecutor a router fanning statements out over shard
//                            backends and merging their streams
//
// The router/server stack (server/router.h, server/server.h) programs
// against this interface only, so a scubed binary serves either mode with
// the same HTTP envelope, metrics and streaming contract.
//
// Every statement runs through one primitive, ExecuteStreaming, on the
// caller's thread. ExecuteOne is a base-class adapter that streams into a
// VectorSink and materialises the answer (line protocol, buffered
// POST /query, tests); a multi-statement body is a loop over it.

#ifndef SCUBE_QUERY_BACKEND_H_
#define SCUBE_QUERY_BACKEND_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "query/context.h"
#include "query/query_result.h"
#include "query/row_sink.h"

namespace scube {
namespace query {

/// \brief Monotonic serving counters (exported by scubed's /metrics).
struct ServiceStats {
  uint64_t accepted = 0;          ///< queries admitted past the queue bound
  uint64_t rejected = 0;          ///< queries shed by admission control
  uint64_t deadline_expired = 0;  ///< queries answered DeadlineExceeded
  uint64_t completed = 0;         ///< admitted queries answered (any status)
};

/// \brief The answer to one query text.
struct QueryResponse {
  std::string text;       ///< the query as submitted
  std::string canonical;  ///< normalised form (empty on parse errors)
  std::string cube;       ///< resolved cube name
  std::string verb;       ///< SCubeQL verb ("slice", "topk", …; empty on
                          ///< parse errors) — the per-verb histogram label
  uint64_t cube_version = 0;

  Status status;       ///< parse / resolution / execution outcome
  QueryResult result;  ///< valid iff status.ok()

  bool cache_hit = false;
  /// Execution (or cache-replay) wall time.
  double exec_ms = 0.0;
};

/// \brief Outcome of one streamed execution (ExecuteStreaming).
struct StreamOutcome {
  std::string text;       ///< the query as submitted
  std::string canonical;  ///< normalised form (empty on parse errors)
  std::string cube;       ///< resolved cube name
  std::string verb;       ///< SCubeQL verb (empty on parse errors)
  uint64_t cube_version = 0;

  Status status;  ///< parse / resolution / execution outcome

  /// The sink received Begin (and possibly rows) — bytes may already be
  /// on the wire. False on errors caught before any output, which can
  /// still be answered with a plain (non-streamed) error response.
  bool begun = false;

  bool cache_hit = false;
  uint64_t rows = 0;           ///< rows delivered to the sink
  uint64_t cells_scanned = 0;  ///< scan accounting (pushdown-bounded)

  /// Resume token for the next page; empty when the stream is
  /// exhausted (or the client aborted mid-stream).
  std::string next_cursor;

  double exec_ms = 0.0;
};

/// \brief One published cube as reported by GET /cubes and /healthz.
struct CubeInfo {
  std::string name;
  uint64_t version = 0;
  std::vector<uint64_t> retained;
  uint64_t cells = 0;
  uint64_t defined_cells = 0;
};

/// \brief Anything that answers SCubeQL statements for the HTTP surface.
/// Implementations must be thread-safe: the server calls concurrently
/// from every dispatch thread.
class QueryBackend {
 public:
  virtual ~QueryBackend() = default;

  /// Streams one query's answer into `sink` on the caller's thread
  /// (Begin -> rows -> Finish). `cursor` resumes a previous page. The one
  /// execution primitive: everything else adapts it.
  virtual StreamOutcome ExecuteStreaming(const std::string& text,
                                         RowSink& sink,
                                         const QueryContext& ctx,
                                         const std::string& cursor) = 0;

  /// Parses and executes one query, materialised: ExecuteStreaming into a
  /// VectorSink, the outcome copied into a QueryResponse (the result's
  /// next_cursor is the trailer's).
  QueryResponse ExecuteOne(const std::string& text,
                           const QueryContext& ctx = {});

  /// Serving counters snapshot (the scubed_queries_* series).
  virtual ServiceStats stats() const = 0;

  /// Published cubes as seen by this backend (GET /cubes). A scatter
  /// backend reports the intersection its shards agree on.
  virtual std::vector<CubeInfo> ListCubes() const = 0;

  /// Appends backend-specific Prometheus series to the shared /metrics
  /// exposition (queue depth and cache counters for a QueryService,
  /// per-shard fanout series for a scatter router).
  virtual void AppendBackendMetrics(std::string* out) const {
    (void)out;
  }
};

}  // namespace query
}  // namespace scube

#endif  // SCUBE_QUERY_BACKEND_H_

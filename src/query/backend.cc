#include "query/backend.h"

#include <utility>

namespace scube {
namespace query {

QueryResponse QueryBackend::ExecuteOne(const std::string& text,
                                       const QueryContext& ctx) {
  VectorSink sink;
  StreamOutcome outcome = ExecuteStreaming(text, sink, ctx, "");
  QueryResponse response;
  response.text = std::move(outcome.text);
  response.canonical = std::move(outcome.canonical);
  response.cube = std::move(outcome.cube);
  response.verb = std::move(outcome.verb);
  response.cube_version = outcome.cube_version;
  response.status = std::move(outcome.status);
  response.cache_hit = outcome.cache_hit;
  response.exec_ms = outcome.exec_ms;
  if (response.status.ok()) {
    response.result = sink.TakeResult();
    // The trailer carries the resume token; no token means no next page.
    response.result.exhausted = response.result.next_cursor.empty();
  }
  return response;
}

}  // namespace query
}  // namespace scube

#include "query/service.h"

#include <memory>

#include "common/logging.h"
#include "common/prometheus.h"
#include "common/timer.h"
#include "common/trace.h"
#include "query/executor.h"
#include "query/parser.h"

namespace scube {
namespace query {

namespace {

/// A cached answer stamped with merge keys serves any request; a keyless
/// one cannot answer a merge-keys request (the shard wire path) — that
/// request must re-execute so its rows carry keys, and the re-execution's
/// Put upgrades the entry.
bool UsableFromCache(const QueryResult& result, const QueryContext& ctx) {
  return !ctx.merge_keys || result.rows.empty() ||
         !result.rows.front().skey.empty();
}

/// Forwards a stream to `out` while materialising a copy for the result
/// cache — up to `max_rows` rows, beyond which the copy is dropped and the
/// stream stays O(1): giant answers flow through uncached.
class CachingTee : public RowSink {
 public:
  CachingTee(RowSink& out, size_t max_rows)
      : out_(out), max_rows_(max_rows) {}

  bool Begin(const ResultHeader& header) override {
    vec_.Begin(header);
    return out_.Begin(header);
  }

  bool Row(const ResultRow& row) override {
    CollectForCache(row);
    return out_.Row(row);
  }

  bool Row(ResultRow&& row) override {
    CollectForCache(row);  // the cache copy; the original moves onward
    return out_.Row(std::move(row));
  }

  void Finish(const ResultTrailer& trailer) override {
    vec_.Finish(trailer);
    out_.Finish(trailer);
  }

  bool cacheable() const { return cacheable_; }
  VectorSink& collected() { return vec_; }

 private:
  void CollectForCache(const ResultRow& row) {
    if (!cacheable_) return;
    if (vec_.result().rows.size() >= max_rows_) {
      cacheable_ = false;
      vec_ = VectorSink();  // free what was collected
    } else {
      vec_.Row(row);
    }
  }

  RowSink& out_;
  size_t max_rows_;
  VectorSink vec_;
  bool cacheable_ = true;
};

}  // namespace

QueryService::QueryService(CubeStore* store, ServiceOptions options)
    : store_(store),
      options_(std::move(options)),
      cache_(options_.cache_capacity) {}

void QueryService::Shutdown() {
  stopping_.store(true, std::memory_order_relaxed);
}

ServiceStats QueryService::stats() const {
  ServiceStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.deadline_expired = deadline_expired_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  return s;
}

size_t QueryService::queue_depth() const {
  return in_flight_.load(std::memory_order_relaxed);
}

Status QueryService::AdmitOrShed() {
  if (stopping_.load(std::memory_order_relaxed)) {
    return Status::Unavailable("service is shutting down");
  }
  uint64_t in_flight = in_flight_.load(std::memory_order_relaxed);
  do {
    if (in_flight >= options_.max_pending) {
      return Status::Unavailable(
          "admission queue full (" + std::to_string(in_flight) +
          " pending >= " + std::to_string(options_.max_pending) +
          "); retry later");
    }
  } while (!in_flight_.compare_exchange_weak(in_flight, in_flight + 1,
                                             std::memory_order_relaxed));
  return Status::OK();
}

QueryContext QueryService::WithDefaultDeadline(const QueryContext& ctx) const {
  if (ctx.has_deadline() || options_.default_deadline_ms <= 0) return ctx;
  // Copy, don't rebuild: the context carries more than the deadline now
  // (the trace pointer), and all of it must survive defaulting.
  QueryContext with_deadline = ctx;
  with_deadline.deadline =
      QueryContext::WithTimeout(options_.default_deadline_ms).deadline;
  return with_deadline;
}

StreamOutcome QueryService::ExecuteStreaming(
    const std::string& text, RowSink& sink, const QueryContext& ctx,
    const std::string& cursor) {
  StreamOutcome outcome;
  outcome.text = text;

  // --- admission control: shedding must be cheap, so it comes before any
  // parse or cache work. Each execution holds a cube snapshot and burns
  // its caller's CPU, so it occupies an admission slot for its whole
  // lifetime (in_flight_); the front-end maps Unavailable to 503 +
  // Retry-After.
  trace::Span admit_span(ctx.trace, "admit");
  Status admitted = AdmitOrShed();
  admit_span.End();
  if (!admitted.ok()) {
    outcome.status = std::move(admitted);
    rejected_.fetch_add(1, std::memory_order_relaxed);
    return outcome;
  }
  accepted_.fetch_add(1, std::memory_order_relaxed);

  QueryContext context = WithDefaultDeadline(ctx);

  // Every post-admission exit funnels through here: the admission slot is
  // released exactly once, when the stream is done.
  auto finish = [this, &outcome](Status status) -> StreamOutcome& {
    in_flight_.fetch_sub(1, std::memory_order_relaxed);
    outcome.status = std::move(status);
    if (outcome.status.code() == StatusCode::kDeadlineExceeded) {
      deadline_expired_.fetch_add(1, std::memory_order_relaxed);
    }
    completed_.fetch_add(1, std::memory_order_relaxed);
    return outcome;
  };

  // --- parse and resolve the snapshot -------------------------------------
  trace::Span prepare_span(context.trace, "prepare");
  auto parsed = Parse(text);
  if (!parsed.ok()) return finish(parsed.status());
  Query query = std::move(parsed).value();
  outcome.canonical = Canonical(query);
  outcome.cube = query.cube.empty() ? options_.default_cube : query.cube;
  outcome.verb = VerbToString(query.verb);
  const uint64_t query_hash = CursorQueryHash(query);

  CubeStore::Snapshot snapshot;
  uint64_t version = 0;
  if (!cursor.empty()) {
    // Resume: the token pins the snapshot the previous page walked, so the
    // stitched stream is deterministic even across publishes.
    auto decoded = DecodeCursor(cursor);
    if (!decoded.ok()) return finish(decoded.status());
    if (decoded->cube != outcome.cube) {
      return finish(Status::InvalidArgument(
          "cursor belongs to cube '" + decoded->cube +
          "', but the query addresses '" + outcome.cube + "'"));
    }
    if (decoded->query_hash != query_hash) {
      // A cursor resumes the stream that issued it; offsetting into a
      // different statement's stream would silently return wrong rows.
      return finish(Status::InvalidArgument(
          "cursor was issued for a different query; resend the original "
          "statement (the page size may change, the rest may not)"));
    }
    if (query.cube_version && *query.cube_version != decoded->version) {
      return finish(Status::InvalidArgument(
          "cursor pins version " + std::to_string(decoded->version) +
          ", but the query pins @" + std::to_string(*query.cube_version)));
    }
    version = decoded->version;
    snapshot = store_->GetVersion(outcome.cube, version);
    if (snapshot == nullptr) {
      return finish(Status::NotFound(
          "cursor version " + std::to_string(version) + " of cube '" +
          outcome.cube + "' is gone (evicted); restart the scan"));
    }
    query.offset = decoded->position;
  } else if (query.cube_version) {
    version = *query.cube_version;
    snapshot = store_->GetVersion(outcome.cube, version);
    if (snapshot == nullptr) {
      return finish(Status::NotFound(
          "no version " + std::to_string(version) + " of cube '" +
          outcome.cube + "' (evicted or never published)"));
    }
  } else {
    snapshot = store_->Get(outcome.cube, &version);
    if (snapshot == nullptr) {
      return finish(Status::NotFound("no cube published under '" +
                                     outcome.cube + "'"));
    }
  }
  outcome.cube_version = version;
  prepare_span.End();

  // --- cache: hits replay through the sink, byte-identical to a live
  // stream (cursor-resumed pages are never cached or served from cache).
  if (cursor.empty()) {
    if (auto cached = cache_.Get(outcome.cube, version, outcome.canonical);
        cached && UsableFromCache(*cached, context)) {
      outcome.cache_hit = true;
      outcome.begun = true;
      ResultTrailer trailer;
      trailer.cells_scanned = cached->cells_scanned;
      if (!cached->exhausted) {
        trailer.next_cursor = EncodeCursor(Cursor{
            outcome.cube, version, cached->next_offset, query_hash});
      }
      WallTimer timer;
      // ReplayResult suppresses the cursor when the sink aborts
      // mid-replay: a partial stream has no resume point, exactly as on
      // the live path below.
      bool aborted = false;
      trace::Span replay_span(context.trace, "cache_replay");
      outcome.rows = ReplayResult(*cached, sink, &trailer, &aborted);
      replay_span.End();
      outcome.exec_ms = timer.Millis();
      outcome.cells_scanned = cached->cells_scanned;
      outcome.next_cursor = aborted ? "" : trailer.next_cursor;
      return finish(Status::OK());
    }
  }

  // --- execute on the caller's thread, streaming as the walks produce ----
  const bool try_cache =
      cursor.empty() && options_.cache_capacity > 0;
  CachingTee tee(sink, options_.cache_max_rows);
  RowSink& target = try_cache ? static_cast<RowSink&>(tee) : sink;

  WallTimer timer;
  std::shared_ptr<const Executor> executor =
      store_->GetExecutor(outcome.cube, version);
  if (executor == nullptr) {
    // The version was evicted between snapshot resolution and here (or the
    // snapshot came from a cursor pin that outlived retention).
    executor = std::make_shared<const Executor>(*snapshot);
  }
  StreamStats stats;
  trace::Span execute_span(context.trace, "execute");
  Status status = executor->ExecuteToSink(query, context, target, &stats);
  execute_span.End();
  outcome.exec_ms = timer.Millis();
  outcome.begun = stats.begun;
  outcome.rows = stats.rows_emitted;
  outcome.cells_scanned = stats.cells_scanned;

  if (!status.ok()) {
    // A stream that failed after Begin (deadline mid-walk) is still closed
    // properly — the writer can terminate its output — but never gets a
    // resume cursor and never enters the cache.
    if (stats.begun) {
      ResultTrailer trailer;
      trailer.cells_scanned = stats.cells_scanned;
      target.Finish(trailer);
    }
    return finish(std::move(status));
  }

  ResultTrailer trailer;
  trailer.cells_scanned = stats.cells_scanned;
  if (!stats.exhausted && !stats.aborted) {
    trailer.next_cursor = EncodeCursor(
        Cursor{outcome.cube, version, stats.next_offset, query_hash});
  }
  outcome.next_cursor = trailer.next_cursor;
  target.Finish(trailer);

  if (try_cache && !stats.aborted && tee.cacheable()) {
    tee.collected().SetPagination(stats.exhausted, stats.next_offset);
    cache_.Put(outcome.cube, version, outcome.canonical,
               tee.collected().TakeResult());
  }
  return finish(Status::OK());
}

QueryService::PublishInfo QueryService::PublishAndWarm(
    const std::string& name, cube::SegregationCube cube) {
  PublishInfo info;
  // Publishes are rare and expensive enough to always trace: the span
  // summary (build.seal + warm phases) goes to the log so publish latency
  // regressions are attributable without flipping any flag.
  trace::TraceContext tc;
  // The warming set is decided by traffic up to now: the hottest cached
  // texts for this cube, across the versions currently in cache.
  std::vector<std::string> hottest = cache_.Hottest(name, options_.warm_top_n);
  info.version =
      store_->Publish(name, std::move(cube), options_.seal_threads, &tc);
  auto log_summary = [&] {
    SCUBE_LOG(Info) << "published '" << name << "' v" << info.version
                    << " warmed=" << info.warmed << " [" << tc.Summary()
                    << "]";
  };
  if (hottest.empty()) {
    log_summary();
    return info;
  }

  CubeStore::Snapshot snapshot = store_->GetVersion(name, info.version);
  if (snapshot == nullptr) {
    log_summary();
    return info;
  }

  std::vector<Query> queries;
  std::vector<std::string> canonicals;
  for (const std::string& text : hottest) {
    auto parsed = Parse(text);
    if (!parsed.ok()) continue;
    Query q = std::move(parsed).value();
    // Version-pinned texts target their old snapshot, not the new one.
    if (q.cube_version) continue;
    canonicals.push_back(Canonical(q));
    queries.push_back(std::move(q));
  }
  if (queries.empty()) {
    log_summary();
    return info;
  }

  // Warming runs on the publisher's thread, outside admission control: it
  // cannot be shed by the very overload it exists to soften. The batch
  // shares one scan across the warmed texts.
  trace::Span warm_span(&tc, "warm");
  std::shared_ptr<const Executor> executor =
      store_->GetExecutor(name, info.version);
  if (executor == nullptr) {
    executor = std::make_shared<const Executor>(*snapshot);
  }
  auto results = executor->ExecuteBatch(queries);
  for (size_t i = 0; i < results.size(); ++i) {
    if (!results[i].ok()) continue;
    cache_.Put(name, info.version, canonicals[i],
               std::move(results[i]).value());
    ++info.warmed;
  }
  warm_span.End();
  log_summary();
  return info;
}

std::vector<CubeInfo> QueryService::ListCubes() const {
  std::vector<CubeInfo> out;
  for (const std::string& name : store_->Names()) {
    uint64_t version = 0;
    CubeStore::Snapshot snapshot = store_->Get(name, &version);
    if (snapshot == nullptr) continue;
    CubeInfo info;
    info.name = name;
    info.version = version;
    info.retained = store_->RetainedVersions(name);
    info.cells = snapshot->NumCells();
    info.defined_cells = snapshot->NumDefinedCells();
    out.push_back(std::move(info));
  }
  return out;
}

void QueryService::AppendBackendMetrics(std::string* out) const {
  using prometheus::Counter;
  using prometheus::Gauge;
  Gauge(out, "scubed_queue_depth", static_cast<double>(queue_depth()),
        "Query executions in flight (the admission-controlled count)");
  ResultCache::Stats cache = cache_.stats();
  Counter(out, "scubed_cache_hits_total", cache.hits, "Result-cache hits");
  Counter(out, "scubed_cache_misses_total", cache.misses,
          "Result-cache misses");
  Counter(out, "scubed_cache_evictions_total", cache.evictions,
          "Result-cache LRU evictions");
  uint64_t lookups = cache.hits + cache.misses;
  Gauge(out, "scubed_cache_hit_rate",
        lookups == 0 ? 0.0
                     : static_cast<double>(cache.hits) /
                           static_cast<double>(lookups),
        "Result-cache hit fraction since start");
}

}  // namespace query
}  // namespace scube

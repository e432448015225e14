#include "common/trace.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

namespace scube {
namespace trace {
namespace {

TEST(TraceContextTest, FreshContextHasIdAndNoSpans) {
  TraceContext tc;
  EXPECT_NE(tc.trace_id(), 0u);
  EXPECT_EQ(tc.trace_id_hex().size(), 16u);
  EXPECT_EQ(tc.spans_recorded(), 0u);
  EXPECT_EQ(tc.spans_dropped(), 0u);
  EXPECT_TRUE(tc.Spans().empty());
}

TEST(TraceContextTest, TraceIdsAreDistinct) {
  TraceContext a, b;
  EXPECT_NE(a.trace_id(), b.trace_id());
}

TEST(TraceContextTest, SpanNestingFollowsScopeOnOneThread) {
  TraceContext tc;
  {
    Span outer(&tc, "outer");
    {
      Span inner(&tc, "inner");
      Span sibling_of_nothing(&tc, "innermost");
    }
    Span second(&tc, "second");
  }
  auto spans = tc.Spans();
  ASSERT_EQ(spans.size(), 4u);
  // Start order: outer, inner, innermost, second.
  EXPECT_STREQ(spans[0].name, "outer");
  EXPECT_STREQ(spans[1].name, "inner");
  EXPECT_STREQ(spans[2].name, "innermost");
  EXPECT_STREQ(spans[3].name, "second");
  EXPECT_EQ(spans[0].parent, TraceContext::kNoParent);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[2].parent, spans[1].id);
  // "second" opened after inner/innermost closed: child of outer again.
  EXPECT_EQ(spans[3].parent, spans[0].id);
  for (const auto& s : spans) EXPECT_FALSE(s.open);
}

TEST(TraceContextTest, EndIsIdempotentAndStopsTheClock) {
  TraceContext tc;
  Span span(&tc, "work");
  span.End();
  auto first = tc.Spans();
  ASSERT_EQ(first.size(), 1u);
  double duration = first[0].duration_ms;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  span.End();  // no-op
  auto second = tc.Spans();
  EXPECT_EQ(second[0].duration_ms, duration);
}

TEST(TraceContextTest, NullTraceSpanIsANoOp) {
  // The disabled-tracing path: constructing against nullptr records
  // nothing and leaves no thread-local cursor behind.
  {
    Span span(nullptr, "ghost");
    EXPECT_EQ(CurrentTraceId(), 0u);
    span.End();
  }
  EXPECT_EQ(CurrentTraceId(), 0u);
}

TEST(TraceContextTest, CurrentTraceIdTracksInnermostOpenSpan) {
  EXPECT_EQ(CurrentTraceId(), 0u);
  TraceContext tc;
  {
    Span span(&tc, "scope");
    EXPECT_EQ(CurrentTraceId(), tc.trace_id());
  }
  EXPECT_EQ(CurrentTraceId(), 0u);
}

TEST(TraceContextTest, CrossThreadSpansAreRootsOfTheSameTrace) {
  TraceContext tc;
  Span request(&tc, "request");
  std::thread worker([&tc] {
    // The worker's cursor points at no trace, so its span is a root of
    // tc, not a child of "request" (parentage is per-thread).
    Span span(&tc, "worker");
  });
  worker.join();
  request.End();
  auto spans = tc.Spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[1].parent, TraceContext::kNoParent);
}

TEST(TraceContextTest, RetroactiveRecordAndOverflowCounting) {
  TraceContext tc;
  auto start = TraceContext::Clock::now();
  auto end = start + std::chrono::milliseconds(7);
  uint32_t slot = tc.Record("queue_wait", start, end);
  EXPECT_NE(slot, 0u);
  auto spans = tc.Spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "queue_wait");
  EXPECT_NEAR(spans[0].duration_ms, 7.0, 0.5);

  // Fill the buffer; the overflow is counted, not grown.
  for (uint32_t i = 0; i < TraceContext::kMaxSpans + 5; ++i) {
    tc.Record("filler", start, end);
  }
  EXPECT_EQ(tc.spans_recorded(), TraceContext::kMaxSpans);
  EXPECT_EQ(tc.spans_dropped(), 6u);
  // Dropped spans do not crash rendering.
  EXPECT_NE(tc.ToJson().find("\"spans_dropped\":6"), std::string::npos);
}

TEST(TraceContextTest, ToJsonNestsChildSpans) {
  TraceContext tc;
  {
    Span outer(&tc, "serialize");
    Span inner(&tc, "wire.flush");
  }
  std::string json = tc.ToJson();
  EXPECT_NE(json.find("\"trace_id\":\"" + tc.trace_id_hex() + "\""),
            std::string::npos)
      << json;
  // The child rides inside the parent's "spans" array.
  size_t outer_at = json.find("\"name\":\"serialize\"");
  size_t inner_at = json.find("\"name\":\"wire.flush\"");
  ASSERT_NE(outer_at, std::string::npos);
  ASSERT_NE(inner_at, std::string::npos);
  EXPECT_LT(outer_at, inner_at);
  EXPECT_NE(json.find("\"total_ms\":"), std::string::npos);
}

TEST(TraceContextTest, SummaryListsRootSpans) {
  TraceContext tc;
  {
    Span seal(&tc, "build.seal");
    Span nested(&tc, "nested");  // hidden from the one-line summary
  }
  { Span warm(&tc, "warm"); }
  std::string summary = tc.Summary();
  EXPECT_NE(summary.find("build.seal="), std::string::npos) << summary;
  EXPECT_NE(summary.find("warm="), std::string::npos) << summary;
  EXPECT_EQ(summary.find("nested"), std::string::npos) << summary;
}

TEST(LatencyHistogramTest, BucketBoundariesAreInclusive) {
  LatencyHistogram hist;
  hist.Observe(0.01);   // exactly the first bound -> bucket 0
  hist.Observe(0.011);  // just past it -> bucket 1
  hist.Observe(10000.0);  // the last finite bound
  hist.Observe(10000.1);  // beyond every bound -> +Inf bucket
  EXPECT_EQ(hist.bucket(0), 1u);
  EXPECT_EQ(hist.bucket(1), 1u);
  EXPECT_EQ(hist.bucket(LatencyHistogram::kNumBuckets - 2), 1u);
  EXPECT_EQ(hist.bucket(LatencyHistogram::kNumBuckets - 1), 1u);
  EXPECT_EQ(hist.count(), 4u);
}

TEST(LatencyHistogramTest, NegativeObservationsClampToZero) {
  LatencyHistogram hist;
  hist.Observe(-3.0);
  EXPECT_EQ(hist.bucket(0), 1u);
  EXPECT_EQ(hist.sum_ms(), 0.0);
}

TEST(LatencyHistogramTest, SumIsExactInMicroseconds) {
  LatencyHistogram hist;
  hist.Observe(1.5);
  hist.Observe(2.25);
  EXPECT_DOUBLE_EQ(hist.sum_ms(), 3.75);
}

TEST(LatencyHistogramTest, QuantileInterpolatesAndClampsAtTheTop) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.Quantile(0.5), 0.0);  // empty
  for (int i = 0; i < 100; ++i) hist.Observe(0.7);  // bucket (0.5, 1.0]
  double p50 = hist.Quantile(0.50);
  EXPECT_GT(p50, 0.5);
  EXPECT_LE(p50, 1.0);
  LatencyHistogram top;
  top.Observe(99999.0);  // +Inf bucket reports the last finite bound
  EXPECT_EQ(top.Quantile(0.99),
            LatencyHistogram::kBucketBoundsMs.back());
}

TEST(LatencyHistogramTest, ConcurrentObserveLosesNothing) {
  LatencyHistogram hist;
  constexpr int kNumThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kNumThreads; ++t) {
    threads.emplace_back([&hist] {
      for (int i = 0; i < kPerThread; ++i) hist.Observe(1.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(hist.count(),
            static_cast<uint64_t>(kNumThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(hist.sum_ms(), kNumThreads * kPerThread * 1.0);
  uint64_t bucket_total = 0;
  for (size_t i = 0; i < LatencyHistogram::kNumBuckets; ++i) {
    bucket_total += hist.bucket(i);
  }
  EXPECT_EQ(bucket_total, hist.count());
}

TEST(TraceOverheadTest, DisabledSpansAreEffectivelyFree) {
  // A null-trace span must not read the clock: a million of them should
  // complete near-instantly even on a loaded single-core machine. The
  // bound is deliberately enormous — this guards against accidentally
  // adding per-span work to the disabled path, not against scheduler
  // noise.
  auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 1000000; ++i) {
    Span span(nullptr, "noop");
  }
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  EXPECT_LT(ms, 500.0);
}

}  // namespace
}  // namespace trace
}  // namespace scube

// Concurrency edges of the QueryService serving contract: admission
// rejection at the in-flight bound, deadline expiry, shutdown under
// concurrent traffic without deadlock, and publish-time cache warming.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "query/service.h"

namespace scube {
namespace query {
namespace {

// Small hand-built cube: sex=F (SA), region=north/south (CA).
cube::SegregationCube MakeCube(double f_north_dissimilarity) {
  relational::ItemCatalog catalog;
  using relational::AttributeKind;
  catalog.GetOrAdd(0, "sex", "F", AttributeKind::kSegregation);     // id 0
  catalog.GetOrAdd(1, "region", "north", AttributeKind::kContext);  // id 1
  catalog.GetOrAdd(2, "region", "south", AttributeKind::kContext);  // id 2

  auto make_cell = [](std::vector<fpm::ItemId> sa,
                      std::vector<fpm::ItemId> ca, uint64_t t, uint64_t m,
                      double d) {
    cube::CubeCell cell;
    cell.coords = cube::CellCoordinates{fpm::Itemset(std::move(sa)),
                                        fpm::Itemset(std::move(ca))};
    cell.context_size = t;
    cell.minority_size = m;
    cell.num_units = 2;
    cell.indexes.defined = true;
    cell.indexes.values[static_cast<size_t>(
        indexes::IndexKind::kDissimilarity)] = d;
    return cell;
  };
  cube::SegregationCube cube(std::move(catalog), {"u0", "u1"});
  cube.Insert(make_cell({0}, {}, 100, 40, 0.10));
  cube.Insert(make_cell({0}, {1}, 60, 25, f_north_dissimilarity));
  cube.Insert(make_cell({0}, {2}, 40, 15, 0.20));
  return cube;
}

TEST(ServiceAdmissionTest, ShedsWhenQueueBoundIsZero) {
  CubeStore store;
  store.Publish("default", MakeCube(0.5));
  ServiceOptions options;
  options.max_pending = 0;  // bound 0: every statement sheds
  QueryService service(&store, options);

  for (const char* text : {"TOPK 1 BY dissimilarity", "SLICE sa=sex=F"}) {
    auto resp = service.ExecuteOne(text);
    EXPECT_EQ(resp.status.code(), StatusCode::kUnavailable) << resp.status;
    EXPECT_NE(resp.status.message().find("admission queue full"),
              std::string::npos);
  }
  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.rejected, 2u);
  EXPECT_EQ(stats.accepted, 0u);
}

TEST(ServiceAdmissionTest, BufferedAndStreamedShareOneInFlightBound) {
  CubeStore store;
  store.Publish("default", MakeCube(0.5));
  ServiceOptions options;
  options.max_pending = 1;
  options.cache_capacity = 0;
  QueryService service(&store, options);

  // A stream whose sink issues a buffered statement mid-row: the stream
  // holds the only slot, so the buffered one sheds, and the in-flight
  // count (the scubed_queue_depth gauge) reads 1 meanwhile.
  struct NestedSink : RowSink {
    QueryService* service = nullptr;
    Status nested_status;
    size_t depth_inside = 0;
    bool Begin(const ResultHeader&) override { return true; }
    bool Row(const ResultRow&) override {
      depth_inside = service->queue_depth();
      nested_status = service->ExecuteOne("SLICE sa=sex=F").status;
      return true;
    }
    void Finish(const ResultTrailer&) override {}
  } sink;
  sink.service = &service;

  auto outer = service.ExecuteStreaming("SLICE sa=sex=F", sink);
  EXPECT_TRUE(outer.status.ok()) << outer.status;
  EXPECT_EQ(sink.depth_inside, 1u);
  EXPECT_EQ(sink.nested_status.code(), StatusCode::kUnavailable);
  EXPECT_NE(sink.nested_status.message().find("1 pending >= 1"),
            std::string::npos)
      << sink.nested_status;

  // Both slots' owners are done: the count is back to zero and the next
  // buffered statement is admitted.
  EXPECT_EQ(service.queue_depth(), 0u);
  EXPECT_TRUE(service.ExecuteOne("SLICE sa=sex=F").status.ok());
  EXPECT_EQ(service.queue_depth(), 0u);
}

TEST(ServiceAdmissionTest, AdmitsAgainOnceIdle) {
  CubeStore store;
  store.Publish("default", MakeCube(0.5));
  ServiceOptions options;
  options.max_pending = 8;
  QueryService service(&store, options);

  auto ok = service.ExecuteOne("TOPK 1 BY dissimilarity WHERE M >= 1");
  EXPECT_TRUE(ok.status.ok()) << ok.status;
  EXPECT_EQ(service.stats().accepted, 1u);
  EXPECT_EQ(service.stats().rejected, 0u);
}

TEST(ServiceDeadlineTest, AlreadyExpiredDeadlineAnswersDeadlineExceeded) {
  CubeStore store;
  store.Publish("default", MakeCube(0.5));
  QueryService service(&store, ServiceOptions{});

  QueryContext expired = QueryContext::WithTimeout(-1);
  ASSERT_TRUE(expired.Expired());
  for (const char* text :
       {"TOPK 1 BY dissimilarity WHERE M >= 1",
        "SURPRISES BY dissimilarity MINDELTA 0.01 WHERE T >= 1 AND M >= 1"}) {
    auto resp = service.ExecuteOne(text, expired);
    EXPECT_EQ(resp.status.code(), StatusCode::kDeadlineExceeded)
        << resp.status;
  }
  EXPECT_EQ(service.stats().deadline_expired, 2u);
}

TEST(ServiceDeadlineTest, GenerousDeadlinePasses) {
  CubeStore store;
  store.Publish("default", MakeCube(0.5));
  QueryService service(&store, ServiceOptions{});

  auto resp = service.ExecuteOne("TOPK 2 BY dissimilarity WHERE M >= 1",
                                 QueryContext::WithTimeout(60'000));
  EXPECT_TRUE(resp.status.ok()) << resp.status;
  EXPECT_EQ(service.stats().deadline_expired, 0u);
}

TEST(ServiceDeadlineTest, DefaultDeadlineFromOptionsApplies) {
  CubeStore store;
  store.Publish("default", MakeCube(0.5));
  ServiceOptions options;
  options.default_deadline_ms = 0.0001;  // expires before the walk starts
  QueryService service(&store, options);

  auto resp = service.ExecuteOne("SLICE sa=sex=F | ca=region=north");
  EXPECT_EQ(resp.status.code(), StatusCode::kDeadlineExceeded) << resp.status;
}

TEST(ServiceShutdownTest, ShutdownUnderTrafficShedsWithoutDeadlock) {
  CubeStore store;
  store.Publish("default", MakeCube(0.5));
  ServiceOptions options;
  options.cache_capacity = 0;  // every query executes
  QueryService service(&store, options);

  // Several threads keep submitting scan-heavy statements while the main
  // thread shuts the service down; every call must return (finished or
  // shed), never hang.
  std::atomic<bool> go{true};
  std::atomic<uint64_t> returned{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      std::vector<std::string> statements;
      for (int i = 0; i < 8; ++i) {
        statements.push_back("SURPRISES BY dissimilarity MINDELTA 0.0" +
                        std::to_string(i + 1) + " WHERE T >= 1 AND M >= 1");
      }
      while (go.load()) {
        for (const std::string& text : statements) {
          auto resp = service.ExecuteOne(text);
          EXPECT_TRUE(resp.status.ok() ||
                      resp.status.code() == StatusCode::kUnavailable)
              << resp.status;
        }
        returned.fetch_add(1);
      }
    });
  }
  // Let some rounds through, then shut down concurrently with traffic.
  while (returned.load() < 4) std::this_thread::yield();
  service.Shutdown();
  go.store(false);
  for (auto& client : clients) client.join();

  // After shutdown everything is shed.
  auto post = service.ExecuteOne("TOPK 1 BY dissimilarity");
  EXPECT_EQ(post.status.code(), StatusCode::kUnavailable);
  EXPECT_NE(post.status.message().find("shutting down"), std::string::npos);
}

TEST(ServiceShutdownTest, ShutdownIsIdempotent) {
  CubeStore store;
  store.Publish("default", MakeCube(0.5));
  QueryService service(&store, ServiceOptions{});
  service.Shutdown();
  service.Shutdown();  // second call is a no-op
}

TEST(ServiceWarmingTest, PublishAndWarmPrefillsTheNewVersion) {
  CubeStore store;
  QueryService service(&store, ServiceOptions{});
  service.PublishAndWarm("default", MakeCube(0.5));  // nothing cached yet

  // Establish traffic: two distinct queries, one repeated (hotter).
  const std::string hot = "TOPK 2 BY dissimilarity WHERE M >= 1";
  const std::string cold = "SLICE sa=sex=F | ca=region=north";
  EXPECT_FALSE(service.ExecuteOne(hot).cache_hit);
  EXPECT_TRUE(service.ExecuteOne(hot).cache_hit);
  EXPECT_FALSE(service.ExecuteOne(cold).cache_hit);

  auto info = service.PublishAndWarm("default", MakeCube(0.9));
  EXPECT_EQ(info.version, 2u);
  EXPECT_EQ(info.warmed, 2u);  // both texts re-executed against v2

  // The very first post-publish request is already a hit — and carries
  // the *new* version's data.
  auto warmed = service.ExecuteOne(hot);
  ASSERT_TRUE(warmed.status.ok()) << warmed.status;
  EXPECT_TRUE(warmed.cache_hit);
  EXPECT_EQ(warmed.cube_version, 2u);
  EXPECT_DOUBLE_EQ(warmed.result.rows[0].value, 0.9);
}

TEST(ServiceWarmingTest, VersionPinnedTextsAreNotWarmed) {
  CubeStore store;
  QueryService service(&store, ServiceOptions{});
  service.PublishAndWarm("default", MakeCube(0.5));

  auto pinned = service.ExecuteOne("TOPK 1 BY dissimilarity FROM default@1");
  ASSERT_TRUE(pinned.status.ok()) << pinned.status;

  auto info = service.PublishAndWarm("default", MakeCube(0.9));
  EXPECT_EQ(info.version, 2u);
  EXPECT_EQ(info.warmed, 0u);  // the only cached text is pinned to v1
}

}  // namespace
}  // namespace query
}  // namespace scube

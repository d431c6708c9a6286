// Serving-level DAG compression: /query bodies are byte-identical with the
// optimization on or off (after stripping wall-clock and the physical dag
// counters whose whole purpose is to report compression work), duplicate
// documents are served by replay, and GET /metrics exposes the class table
// and replay statistics.

#include <gtest/gtest.h>

#include <string>

#include "collection/collection.h"
#include "common/json.h"
#include "server/service.h"

namespace xfrag::server {
namespace {

// Six documents: three copies of A, two of B, one unique C.
collection::Collection MakeDuplicatedCollection() {
  collection::Collection collection;
  const char* kDocA =
      "<doc><sec><par>apples and oranges</par><par>oranges too</par></sec>"
      "<sec><par>apples again</par></sec></doc>";
  const char* kDocB =
      "<doc><sec>apples<par>deep oranges</par></sec><par>tail</par></doc>";
  const char* kDocC = "<doc><par>apples beside oranges</par></doc>";
  EXPECT_TRUE(collection.AddXml("a0.xml", kDocA).ok());
  EXPECT_TRUE(collection.AddXml("a1.xml", kDocA).ok());
  EXPECT_TRUE(collection.AddXml("b0.xml", kDocB).ok());
  EXPECT_TRUE(collection.AddXml("c0.xml", kDocC).ok());
  EXPECT_TRUE(collection.AddXml("a2.xml", kDocA).ok());
  EXPECT_TRUE(collection.AddXml("b1.xml", kDocB).ok());
  return collection;
}

// Strips the fields that legitimately differ between a compressed and an
// uncompressed run (mirrors bench/bench_dag.cc).
json::Value Normalized(const json::Value& body) {
  json::Value v = body;
  v.Remove("elapsed_ms");
  if (const json::Value* metrics = v.Find("metrics")) {
    json::Value m = *metrics;
    m.Set("classes_total", uint64_t{0});
    m.Set("class_pairs_considered", uint64_t{0});
    m.Set("answers_multiplied_out", uint64_t{0});
    v.Set("metrics", std::move(m));
  }
  return v;
}

TEST(ServiceDagTest, BodiesByteIdenticalAcrossTheSwitch) {
  collection::Collection collection = MakeDuplicatedCollection();
  // Floor off: with it on, per-document metrics depend on the evaluation
  // partition (documented precedent), which would break the byte-compare.
  ServiceOptions on_options;
  on_options.enable_cross_document_floor = false;
  ServiceOptions off_options = on_options;
  off_options.enable_dag_compression = false;
  const char* kRequests[] = {
      R"({"terms":["apples","oranges"]})",
      R"({"terms":["apples","oranges"],"filter":"size<=4",)"
      R"("strategy":"pushdown"})",
      R"({"terms":["apples","oranges"],"top_k":3})",
      R"({"terms":["apples","oranges"],"rank":true,"xml":true})",
  };
  for (const char* request : kRequests) {
    // Fresh services per mode so neither warms the other's caches.
    QueryService service_off(collection, off_options);
    QueryService service_on(collection, on_options);
    json::Value body_off = service_off.HandleQuery(request).body;
    json::Value body_on = service_on.HandleQuery(request).body;
    EXPECT_TRUE(Normalized(body_off) == Normalized(body_on))
        << request << "\noff: " << Normalized(body_off).Dump()
        << "\non:  " << Normalized(body_on).Dump();
  }
}

TEST(ServiceDagTest, MetricsExposeClassTableAndReplays) {
  collection::Collection collection = MakeDuplicatedCollection();
  ServiceOptions options;
  options.enable_cross_document_floor = false;
  QueryService service(collection, options);

  json::Value before = service.DagStatsJson();
  ASSERT_NE(before.Find("enabled"), nullptr);
  EXPECT_TRUE(before.Find("enabled")->AsBool());
  EXPECT_GT(before.Find("classes")->AsInt(), 0);
  EXPECT_EQ(before.Find("documents")->AsInt(), 6);
  // Three distinct root classes among six documents.
  EXPECT_EQ(before.Find("distinct_documents")->AsInt(), 3);
  EXPECT_GE(before.Find("compression_ratio")->AsDouble(), 1.0);
  EXPECT_EQ(before.Find("documents_deduplicated")->AsInt(), 0);

  QueryOutcome outcome =
      service.HandleQuery(R"({"terms":["apples","oranges"]})");
  ASSERT_EQ(outcome.http_status, 200);
  json::Value after = service.DagStatsJson();
  // Of the 3+2 duplicate-class documents, one representative each was
  // evaluated; the other three were replayed.
  EXPECT_EQ(after.Find("documents_deduplicated")->AsInt(), 3);
}

TEST(ServiceDagTest, ExplainRequestsSkipDedupButStillSucceed) {
  collection::Collection collection = MakeDuplicatedCollection();
  ServiceOptions options;
  options.enable_cross_document_floor = false;
  QueryService service(collection, options);
  QueryOutcome outcome = service.HandleQuery(
      R"({"terms":["apples","oranges"],"explain":true})");
  ASSERT_EQ(outcome.http_status, 200);
  // Per-document EXPLAIN entries force every document through its own
  // evaluation — no replays recorded.
  EXPECT_EQ(service.DagStatsJson().Find("documents_deduplicated")->AsInt(),
            0);
  // The explain text surfaces the dag line for evaluated documents.
  EXPECT_NE(outcome.body.Dump().find("dag:"), std::string::npos);
}

TEST(ServiceDagTest, SwitchOffDisablesReplayEntirely) {
  collection::Collection collection = MakeDuplicatedCollection();
  ServiceOptions options;
  options.enable_cross_document_floor = false;
  options.enable_dag_compression = false;
  QueryService service(collection, options);
  QueryOutcome outcome =
      service.HandleQuery(R"({"terms":["apples","oranges"]})");
  ASSERT_EQ(outcome.http_status, 200);
  json::Value stats = service.DagStatsJson();
  EXPECT_FALSE(stats.Find("enabled")->AsBool());
  EXPECT_EQ(stats.Find("documents_deduplicated")->AsInt(), 0);
}

}  // namespace
}  // namespace xfrag::server

// /query_batch equivalence: every item of a batch must come back
// byte-identical — INCLUDING metrics — to what a sequential POST /query of
// the same items against a fresh service would have returned, across
// strategies, top-k, batch parallelism, the DAG-compression switch, and the
// result cache. Also covers per-item 400s, per-item deadline 504s,
// result-cache hit stamping for duplicate items, envelope-level 400s, the
// size cap, and the /metrics "batch" section over real loopback sockets.

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "algebra/ops.h"
#include "collection/collection.h"
#include "common/json.h"
#include "common/strings.h"
#include "server/http.h"
#include "server/net.h"
#include "server/server.h"
#include "server/service.h"

namespace xfrag::server {
namespace {

struct DagSwitchGuard {
  explicit DagSwitchGuard(bool enabled) {
    algebra::SetDagCompressionEnabled(enabled);
  }
  ~DagSwitchGuard() { algebra::SetDagCompressionEnabled(true); }
};

collection::Collection MakeCollection() {
  collection::Collection collection;
  EXPECT_TRUE(collection
                  .AddXml("a.xml",
                          "<paper><title>xquery optimization</title>"
                          "<section>algebra for fragments"
                          "<par>query algebra</par>"
                          "<par>optimization rules</par></section></paper>")
                  .ok());
  EXPECT_TRUE(collection
                  .AddXml("b.xml",
                          "<book><chapter>fragment retrieval"
                          "<par>xquery engines</par>"
                          "<par>ranking fragments</par></chapter>"
                          "<chapter>cost models"
                          "<par>optimization of joins</par></chapter></book>")
                  .ok());
  EXPECT_TRUE(collection
                  .AddXml("c.xml",
                          "<notes><entry>unrelated vocabulary</entry>"
                          "<entry>nothing to see</entry></notes>")
                  .ok());
  return collection;
}

// The only legitimate per-item difference between the two paths.
json::Value Normalized(const json::Value& body) {
  json::Value v = body;
  v.Remove("elapsed_ms");
  return v;
}

// A mixed workload: shared terms (one group), disjoint terms (separate
// groups), strategies, filters, top-k, ranking, xml rendering, an exact
// duplicate, and a per-item validation error.
const char* const kMixedItems[] = {
    R"({"terms":["xquery","optimization"]})",
    R"({"terms":["xquery"],"filter":"size<=2","strategy":"pushdown"})",
    R"({"terms":["fragment","ranking"],"top_k":3})",
    R"({"terms":["unrelated"],"rank":true,"xml":true})",
    R"({"terms":["xquery","optimization"]})",  // duplicate of item 0
    R"({"terms":["algebra"],"strategy":"reduced","max_answers":2})",
};

std::string MixedBatchBody() {
  std::string body = "[";
  for (size_t i = 0; i < std::size(kMixedItems); ++i) {
    if (i > 0) body += ",";
    body += kMixedItems[i];
  }
  body += "]";
  return body;
}

// Runs the items sequentially through one fresh service and as one batch
// through another fresh service, asserting per-item byte identity.
void ExpectBatchMatchesSequential(const collection::Collection& collection,
                                  ServiceOptions options,
                                  const std::string& context) {
  QueryService sequential(collection, options);
  QueryService batched(collection, options);
  std::vector<json::Value> expected;
  for (const char* item : kMixedItems) {
    expected.push_back(sequential.HandleQuery(item).body);
  }
  QueryOutcome outcome = batched.HandleQueryBatch(MixedBatchBody());
  ASSERT_EQ(outcome.http_status, 200) << context << outcome.body.Dump();
  const json::Value* results = outcome.body.Find("results");
  ASSERT_NE(results, nullptr) << context;
  ASSERT_EQ(results->size(), expected.size()) << context;
  for (size_t i = 0; i < expected.size(); ++i) {
    const json::Value& entry = (*results)[i];
    ASSERT_NE(entry.Find("status"), nullptr) << context;
    EXPECT_EQ(entry.Find("status")->AsInt(), 200) << context << " item " << i;
    const json::Value* body = entry.Find("body");
    ASSERT_NE(body, nullptr) << context;
    EXPECT_TRUE(Normalized(*body) == Normalized(expected[i]))
        << context << " item " << i << "\nbatch: " << body->Dump()
        << "\nsequential: " << expected[i].Dump();
  }
}

TEST(BatchEquivalenceTest, ItemsMatchSequentialAcrossConfigurations) {
  collection::Collection collection = MakeCollection();
  for (unsigned parallelism : {1u, 3u}) {
    for (size_t cache_bytes : {size_t{0}, size_t{1} << 20}) {
      for (bool dag : {false, true}) {
        DagSwitchGuard guard(dag);
        ServiceOptions options;
        options.batch_parallelism = parallelism;
        options.result_cache_bytes = cache_bytes;
        ExpectBatchMatchesSequential(
            collection, options,
            StrFormat("parallelism=%u cache=%zu dag=%d ", parallelism,
                      cache_bytes, dag ? 1 : 0));
      }
    }
  }
}

TEST(BatchEquivalenceTest, BadItemGetsItsOwn400WithoutPoisoningTheBatch) {
  collection::Collection collection = MakeCollection();
  QueryService service(collection, {});
  QueryService sequential(collection, {});
  const std::string bad = R"({"terms":[],"bogus":1})";
  QueryOutcome outcome = service.HandleQueryBatch(
      "[" + std::string(kMixedItems[0]) + "," + bad + "," +
      std::string(kMixedItems[1]) + "]");
  ASSERT_EQ(outcome.http_status, 200);
  const json::Value* results = outcome.body.Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->size(), 3u);
  EXPECT_EQ((*results)[0].Find("status")->AsInt(), 200);
  EXPECT_EQ((*results)[2].Find("status")->AsInt(), 200);
  // The bad item's status and body match what sequential /query answers.
  QueryOutcome alone = sequential.HandleQuery(bad);
  EXPECT_EQ((*results)[1].Find("status")->AsInt(), alone.http_status);
  EXPECT_EQ(alone.http_status, 400);
  EXPECT_TRUE(Normalized(*(*results)[1].Find("body")) ==
              Normalized(alone.body))
      << (*results)[1].Find("body")->Dump() << "\nvs " << alone.body.Dump();
}

TEST(BatchEquivalenceTest, ExpiredItemDeadlineIsAPerItem504) {
  collection::Collection collection = MakeCollection();
  ServiceOptions options;
  options.enable_debug_sleep = true;
  QueryService service(collection, options);
  QueryOutcome outcome = service.HandleQueryBatch(StrFormat(
      R"([%s,{"terms":["xquery"],"deadline_ms":1,"debug_sleep_ms":50}])",
      kMixedItems[0]));
  ASSERT_EQ(outcome.http_status, 200);
  const json::Value* results = outcome.body.Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->size(), 2u);
  EXPECT_EQ((*results)[0].Find("status")->AsInt(), 200);
  EXPECT_EQ((*results)[1].Find("status")->AsInt(), 504);
  const json::Value* error = (*results)[1].Find("body")->Find("error");
  ASSERT_NE(error, nullptr);
}

TEST(BatchEquivalenceTest, DuplicateItemsHitTheResultCacheInsideOneBatch) {
  collection::Collection collection = MakeCollection();
  ServiceOptions options;
  options.result_cache_bytes = 1 << 20;
  QueryService service(collection, options);
  QueryOutcome outcome = service.HandleQueryBatch(StrFormat(
      "[%s,%s]", kMixedItems[0], kMixedItems[0]));
  ASSERT_EQ(outcome.http_status, 200);
  const json::Value* results = outcome.body.Find("results");
  ASSERT_EQ(results->size(), 2u);
  const json::Value* first = (*results)[0].Find("body");
  const json::Value* second = (*results)[1].Find("body");
  EXPECT_EQ(first->Find("result_cache"), nullptr);
  ASSERT_NE(second->Find("result_cache"), nullptr);
  EXPECT_EQ(second->Find("result_cache")->AsString(), "hit");
  const json::Value* batch = outcome.body.Find("batch");
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->Find("items")->AsInt(), 2);
  EXPECT_EQ(batch->Find("result_cache_hits")->AsInt(), 1);
  EXPECT_EQ(batch->Find("evaluated")->AsInt(), 1);
}

TEST(BatchEquivalenceTest, BatchSectionReportsGroupsAndSharing) {
  collection::Collection collection = MakeCollection();
  QueryService service(collection, {});
  // Items 0 and 1 share "xquery"; item 2 is term-disjoint.
  QueryOutcome outcome = service.HandleQueryBatch(
      R"([{"terms":["xquery","optimization"]},)"
      R"({"terms":["xquery"]},{"terms":["unrelated"]}])");
  ASSERT_EQ(outcome.http_status, 200);
  const json::Value* batch = outcome.body.Find("batch");
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->Find("items")->AsInt(), 3);
  EXPECT_EQ(batch->Find("groups")->AsInt(), 2);
  EXPECT_EQ(batch->Find("evaluated")->AsInt(), 3);
  // "xquery" is scanned once per document instead of twice.
  EXPECT_GT(batch->Find("subplans_shared")->AsInt(), 0);
}

TEST(BatchEquivalenceTest, EnvelopeErrorsAreWholeRequest400s) {
  collection::Collection collection = MakeCollection();
  ServiceOptions options;
  options.batch_max_items = 2;
  QueryService service(collection, options);
  EXPECT_EQ(service.HandleQueryBatch("not json").http_status, 400);
  EXPECT_EQ(service.HandleQueryBatch("42").http_status, 400);
  EXPECT_EQ(service.HandleQueryBatch("[]").http_status, 400);
  EXPECT_EQ(service.HandleQueryBatch(R"({"queries":[]})").http_status, 400);
  EXPECT_EQ(
      service.HandleQueryBatch(R"({"nope":[{"terms":["x"]}]})").http_status,
      400);
  // Three items against a two-item cap: rejected whole, no partial results.
  QueryOutcome capped = service.HandleQueryBatch(
      R"([{"terms":["a"]},{"terms":["b"]},{"terms":["c"]}])");
  EXPECT_EQ(capped.http_status, 400);
  EXPECT_EQ(capped.body.Find("results"), nullptr);
  // The {"queries": [...]} envelope form works.
  QueryOutcome wrapped = service.HandleQueryBatch(
      R"({"queries":[{"terms":["xquery"]}]})");
  EXPECT_EQ(wrapped.http_status, 200);
  ASSERT_NE(wrapped.body.Find("results"), nullptr);
  EXPECT_EQ(wrapped.body.Find("results")->size(), 1u);
}

TEST(BatchEquivalenceTest, HttpEndpointAndMetricsSection) {
  collection::Collection collection = MakeCollection();
  ServerOptions options;
  options.workers = 2;
  Server server(collection, options);
  ASSERT_TRUE(server.Start().ok());

  const std::string body = MixedBatchBody();
  std::string request = StrFormat(
      "POST /query_batch HTTP/1.1\r\nHost: t\r\nContent-Length: %zu\r\n"
      "Connection: close\r\n\r\n",
      body.size());
  request += body;
  auto raw = HttpRoundTrip("127.0.0.1", server.port(), request);
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  auto response = ParseHttpResponse(*raw);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 200);
  auto parsed = json::Parse(response->body);
  ASSERT_TRUE(parsed.ok());
  ASSERT_NE(parsed->Find("results"), nullptr);
  EXPECT_EQ(parsed->Find("results")->size(), std::size(kMixedItems));

  // GET is refused with Allow: POST.
  auto bad = HttpRoundTrip(
      "127.0.0.1", server.port(),
      "GET /query_batch HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
  ASSERT_TRUE(bad.ok());
  auto bad_response = ParseHttpResponse(*bad);
  ASSERT_TRUE(bad_response.ok());
  EXPECT_EQ(bad_response->status, 405);

  // /metrics exposes the batch section with this batch recorded.
  auto metrics_raw = HttpRoundTrip(
      "127.0.0.1", server.port(),
      "GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
  ASSERT_TRUE(metrics_raw.ok());
  auto metrics_response = ParseHttpResponse(*metrics_raw);
  ASSERT_TRUE(metrics_response.ok());
  auto metrics = json::Parse(metrics_response->body);
  ASSERT_TRUE(metrics.ok());
  const json::Value* batch = metrics->Find("batch");
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->Find("batches")->AsInt(), 1);
  EXPECT_EQ(batch->Find("items")->AsInt(),
            static_cast<int64_t>(std::size(kMixedItems)));
  const json::Value* sizes = batch->Find("size");
  ASSERT_NE(sizes, nullptr);
  EXPECT_EQ(sizes->Find("count")->AsInt(), 1);
  server.Shutdown();
}

}  // namespace
}  // namespace xfrag::server

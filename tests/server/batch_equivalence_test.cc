// /query_batch equivalence: a batch is N sequential /query runs. Every item
// must come back byte-identical — INCLUDING metrics — to what a sequential
// POST /query of the same items against a fresh service would have
// returned, across strategies, top-k, a bounded fixed-point cache, the
// DAG-compression switch, and the result cache; and the caches must end in
// the same state. Also covers per-item 400s, per-item deadline 504s, one
// deadline for the whole batch, result-cache hit stamping for duplicate
// items, envelope-level 400s, the size cap at and above its boundary, and
// the /metrics "batch" section over real loopback sockets.

#include <gtest/gtest.h>

#include <chrono>
#include <iterator>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "collection/collection.h"
#include "common/json.h"
#include "common/strings.h"
#include "server/http.h"
#include "server/net.h"
#include "server/server.h"
#include "server/service.h"

namespace xfrag::server {
namespace {

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

// A mixed workload: shared and disjoint terms, strategies, filters, top-k,
// ranking, xml rendering, and an exact duplicate.
const char* const kMixedItems[] = {
    R"({"terms":["xquery","optimization"]})",
    R"({"terms":["xquery"],"filter":"size<=2","strategy":"pushdown"})",
    R"({"terms":["fragment","ranking"],"top_k":3})",
    R"({"terms":["unrelated"],"rank":true,"xml":true})",
    R"({"terms":["xquery","optimization"]})",  // duplicate of item 0
    R"({"terms":["algebra"],"strategy":"reduced","max_answers":2})",
};

// The /query_batch body carrying `items` as a bare JSON array.
std::string BatchBody(std::span<const char* const> items) {
  std::string body = "[";
  for (size_t i = 0; i < items.size(); ++i) {
    if (i > 0) body += ",";
    body += items[i];
  }
  body += "]";
  return body;
}

// Runs the items sequentially through one fresh service and as one batch
// through another fresh service, asserting per-item byte identity and the
// same end state of the fixed-point caches.
void ExpectBatchMatchesSequential(const collection::Collection& collection,
                                  ServiceOptions options,
                                  std::span<const char* const> items,
                                  const std::string& context) {
  QueryService sequential(collection, options);
  QueryService batched(collection, options);
  std::vector<json::Value> expected;
  for (const char* item : items) {
    expected.push_back(sequential.HandleQuery(item).body);
  }
  QueryOutcome outcome = batched.HandleQueryBatch(BatchBody(items));
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
  EXPECT_EQ(batched.CacheStatsJson().Dump(),
            sequential.CacheStatsJson().Dump())
      << context;
}

TEST(BatchEquivalenceTest, ItemsMatchSequentialAcrossConfigurations) {
  collection::Collection collection = MakeCollection();
  // 0 = unlimited; 1 keeps a single closure per document, so any
  // reordering of the items would change which closures hit or evict.
  for (size_t fp_entries : {size_t{0}, size_t{1}}) {
    for (size_t cache_bytes : {size_t{0}, size_t{1} << 20}) {
      for (bool dag : {false, true}) {
        ServiceOptions options;
        options.enable_dag_compression = dag;
        options.fixed_point_cache.max_entries = fp_entries;
        options.result_cache_bytes = cache_bytes;
        ExpectBatchMatchesSequential(
            collection, options, kMixedItems,
            StrFormat("fp_entries=%zu cache=%zu dag=%d ", fp_entries,
                      cache_bytes, dag ? 1 : 0));
      }
    }
  }
}

TEST(BatchEquivalenceTest, BoundedCacheEndsInTheSequentialState) {
  ServiceOptions options;
  options.fixed_point_cache.max_entries = 1;
  options.result_cache_bytes = 0;
  // Items 0 and 2 share the "xquery" closure; item 1 evicts it in between
  // when the items run in submission order.
  const char* const items[] = {
      R"({"terms":["xquery"],"strategy":"reduced"})",
      R"({"terms":["optimization"],"strategy":"reduced"})",
      R"({"terms":["xquery"],"strategy":"reduced","max_answers":1})",
  };
  ExpectBatchMatchesSequential(MakeCollection(), options, items, "");
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

// max_deadline_ms bounds the whole batch, not each item: three items that
// each ask to stall 300 ms share one 100 ms deadline armed when the batch
// starts. The first item's stall is cut at the deadline, and the two after
// it are 504s without being evaluated, so the batch ends well before a
// single item's full stall.
TEST(BatchEquivalenceTest, OneDeadlineBoundsTheWholeBatch) {
  collection::Collection collection = MakeCollection();
  ServiceOptions options;
  options.enable_debug_sleep = true;
  options.max_deadline_ms = 100;
  QueryService service(collection, options);
  const auto start = std::chrono::steady_clock::now();
  QueryOutcome outcome = service.HandleQueryBatch(
      R"([{"terms":["xquery"],"debug_sleep_ms":300},)"
      R"({"terms":["optimization"],"debug_sleep_ms":300},)"
      R"({"terms":["algebra"],"debug_sleep_ms":300}])");
  const auto elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_EQ(outcome.http_status, 200);
  const json::Value* results = outcome.body.Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->size(), 3u);
  for (const json::Value& item : results->items()) {
    EXPECT_EQ(item.Find("status")->AsInt(), 504) << outcome.body.Dump();
    const json::Value* body = item.Find("body");
    EXPECT_EQ(body->Find("code")->AsString(), "DeadlineExceeded");
    EXPECT_TRUE(body->Find("partial")->AsBool());
  }
  // The items after the first never reached the engine.
  for (size_t i = 1; i < 3; ++i) {
    const json::Value* metrics = (*results)[i].Find("body")->Find("metrics");
    ASSERT_NE(metrics, nullptr);
    EXPECT_EQ(metrics->Find("pairs_considered")->AsInt(), 0);
    EXPECT_EQ(metrics->Find("fragment_joins")->AsInt(), 0);
  }
  EXPECT_EQ(outcome.body.Find("batch")->Find("evaluated")->AsInt(), 1);
  EXPECT_LT(elapsed_ms, 250) << "the batch outlived its 100 ms deadline";
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
  ServiceOptions options;
  options.result_cache_bytes = 1 << 20;
  QueryService service(collection, options);
  // Item 2 repeats item 0 (a result-cache hit); item 3 is malformed (a
  // per-item 400, neither evaluated nor a hit).
  QueryOutcome outcome = service.HandleQueryBatch(
      R"([{"terms":["xquery","optimization"]},{"terms":["unrelated"]},)"
      R"({"terms":["optimization","xquery"]},{"terms":[]}])");
  ASSERT_EQ(outcome.http_status, 200);
  const json::Value* batch = outcome.body.Find("batch");
  ASSERT_NE(batch, nullptr);
  std::vector<std::string> keys;
  for (const auto& [key, value] : batch->members()) keys.push_back(key);
  EXPECT_EQ(keys, (std::vector<std::string>{"items", "evaluated",
                                            "result_cache_hits"}));
  EXPECT_EQ(batch->Find("items")->AsInt(), 4);
  EXPECT_EQ(batch->Find("evaluated")->AsInt(), 2);
  EXPECT_EQ(batch->Find("result_cache_hits")->AsInt(), 1);
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
  // Exactly at the cap: accepted, one result per item.
  QueryOutcome at_cap = service.HandleQueryBatch(
      R"([{"terms":["xquery"]},{"terms":["optimization"]}])");
  EXPECT_EQ(at_cap.http_status, 200);
  ASSERT_NE(at_cap.body.Find("results"), nullptr);
  EXPECT_EQ(at_cap.body.Find("results")->size(), 2u);
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

  const std::string body = BatchBody(kMixedItems);
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

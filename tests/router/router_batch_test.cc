// Router batch scatter (/query_batch): an in-process Router fronting three
// xfragd shards must answer every batch item byte-identically — including
// the work metrics — to a single combined xfragd answering the same items
// as sequential /query requests. Also covers per-item and envelope-level
// validation, the require_complete batch envelope, degraded mode with a
// dead shard (per-item partial / 504), and the router /metrics "batch"
// section. Hermetic loopback, runs under TSan (`ctest -L router`).

#include "router/router.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "collection/collection.h"
#include "common/json.h"
#include "common/strings.h"
#include "server/http.h"
#include "server/net.h"
#include "server/server.h"

namespace xfrag::router {
namespace {

constexpr size_t kDocsPerShard = 4;
constexpr size_t kShards = 3;
constexpr size_t kTotalDocs = kDocsPerShard * kShards;

const char* Word(size_t n) {
  static const char* vocab[] = {"algebra",   "query",   "fragment",
                                "retrieval", "ranking", "optimization",
                                "index",     "xml",     "join",
                                "cost"};
  return vocab[n % (sizeof(vocab) / sizeof(vocab[0]))];
}

std::string MakeDoc(size_t i) {
  std::string xml =
      StrFormat("<paper><title>%s %s</title>", Word(i), Word(i + 3));
  for (size_t s = 0; s < 2 + i % 2; ++s) {
    xml += StrFormat("<section>%s", Word(i + s));
    for (size_t p = 0; p < 2 + s % 2; ++p) {
      xml += StrFormat("<par>%s %s %s</par>", Word(i * 2 + s + p),
                       Word(i + s * 3 + p), Word(p + 1));
    }
    xml += "</section>";
  }
  xml += "</paper>";
  return xml;
}

// A fixed mixed batch: a shared-term pair, term-disjoint items,
// top-k, ranking, a filter, an exact duplicate, and one invalid item whose
// per-item 400 must match the combined node's /query 400.
const char* const kBatchItems[] = {
    R"({"terms":["algebra","query"]})",
    R"({"terms":["algebra"],"filter":"size<=3","strategy":"pushdown"})",
    R"({"terms":["ranking","fragment"],"top_k":3})",
    R"({"terms":["cost"],"rank":true,"max_answers":4})",
    R"({"terms":["algebra","query"]})",  // duplicate of item 0
    R"({"terms":["index"],"frobnicate":true})",  // per-item 400
};

std::string BatchBody() {
  std::string body = "[";
  for (size_t i = 0; i < std::size(kBatchItems); ++i) {
    if (i > 0) body += ",";
    body += kBatchItems[i];
  }
  body += "]";
  return body;
}

class RouterBatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    combined_ = std::make_unique<collection::Collection>();
    for (size_t s = 0; s < kShards; ++s) {
      shard_collections_.push_back(std::make_unique<collection::Collection>());
    }
    for (size_t i = 0; i < kTotalDocs; ++i) {
      std::string name = StrFormat("d%02zu.xml", i);
      std::string xml = MakeDoc(i);
      ASSERT_TRUE(combined_->AddXml(name, xml).ok());
      ASSERT_TRUE(
          shard_collections_[i / kDocsPerShard]->AddXml(name, xml).ok());
    }
  }

  std::unique_ptr<server::Server> StartNode(
      const collection::Collection& collection,
      server::ServerOptions options = {}) {
    auto node = std::make_unique<server::Server>(collection, options);
    EXPECT_TRUE(node->Start().ok());
    return node;
  }

  std::vector<std::unique_ptr<server::Server>> StartShards(
      server::ServerOptions options = {}) {
    std::vector<std::unique_ptr<server::Server>> shards;
    for (size_t s = 0; s < kShards; ++s) {
      shards.push_back(StartNode(*shard_collections_[s], options));
    }
    return shards;
  }

  static ShardMap MapFor(
      const std::vector<std::unique_ptr<server::Server>>& shards) {
    ShardMap map;
    for (size_t s = 0; s < shards.size(); ++s) {
      ShardInfo info;
      info.host = "127.0.0.1";
      info.port = shards[s]->port();
      info.doc_begin = s * kDocsPerShard;
      info.doc_count = kDocsPerShard;
      map.shards.push_back(std::move(info));
    }
    map.total_documents = kTotalDocs;
    return map;
  }

  static std::unique_ptr<Router> StartRouter(ShardMap map,
                                             RouterOptions options) {
    auto router = std::make_unique<Router>(std::move(map), options);
    EXPECT_TRUE(router->Start().ok());
    return router;
  }

  static RouterOptions QuietRouterOptions() {
    RouterOptions options;
    options.enable_hedging = false;
    options.health_check_interval_ms = 0;
    return options;
  }

  /// Metric-strict comparisons need the same switches the single-query
  /// byte-identity test uses: cross-document floor seeding and DAG dedup
  /// change work counters between a sharded and a combined evaluation.
  static server::ServerOptions StrictNodeOptions() {
    server::ServerOptions options;
    options.service.enable_cross_document_floor = false;
    options.service.enable_dag_compression = false;
    return options;
  }

  static StatusOr<server::HttpResponse> Post(uint16_t port,
                                             const std::string& target,
                                             const std::string& body,
                                             int timeout_ms = 30000) {
    std::string request = StrFormat(
        "POST %s HTTP/1.1\r\nHost: t\r\nContent-Length: %zu\r\n"
        "Connection: close\r\n\r\n",
        target.c_str(), body.size());
    request += body;
    auto raw = server::HttpRoundTrip("127.0.0.1", port, request, timeout_ms);
    if (!raw.ok()) return raw.status();
    return server::ParseHttpResponse(*raw);
  }

  static json::Value Normalized(const json::Value& body) {
    json::Value v = body;
    v.Set("elapsed_ms", 0);
    return v;
  }

  std::unique_ptr<collection::Collection> combined_;
  std::vector<std::unique_ptr<collection::Collection>> shard_collections_;
};

TEST_F(RouterBatchTest, BatchItemsByteIdenticalToCombinedSequential) {
  auto combined_node = StartNode(*combined_, StrictNodeOptions());
  auto shards = StartShards(StrictNodeOptions());
  auto router = StartRouter(MapFor(shards), QuietRouterOptions());

  auto response = Post(router->port(), "/query_batch", BatchBody());
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  ASSERT_EQ(response->status, 200) << response->body;
  auto parsed = json::Parse(response->body);
  ASSERT_TRUE(parsed.ok());
  const json::Value* results = parsed->Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->size(), std::size(kBatchItems));

  for (size_t i = 0; i < std::size(kBatchItems); ++i) {
    auto sequential = Post(combined_node->port(), "/query", kBatchItems[i]);
    ASSERT_TRUE(sequential.ok());
    const json::Value& entry = (*results)[i];
    EXPECT_EQ(entry.Find("status")->AsInt(), sequential->status)
        << "item " << i;
    auto expected = json::Parse(sequential->body);
    ASSERT_TRUE(expected.ok());
    EXPECT_TRUE(Normalized(*entry.Find("body")) == Normalized(*expected))
        << "item " << i << "\nrouter: " << entry.Find("body")->Dump()
        << "\ncombined: " << expected->Dump();
  }
  EXPECT_EQ(router->partials_served(), 0u);

  // The fleet-wide top-k pruning counter counts batch items too: it holds
  // the merged "pairs_rejected_score" of the one top-k item (item 2).
  const json::Value* topk_metrics =
      (*results)[2].Find("body")->Find("metrics");
  ASSERT_NE(topk_metrics, nullptr);
  const int64_t topk_rejected =
      topk_metrics->Find("pairs_rejected_score")->AsInt();
  EXPECT_GT(topk_rejected, 0);
  EXPECT_EQ(router->topk_pairs_rejected(),
            static_cast<uint64_t>(topk_rejected));

  // The router /metrics "batch" section saw this batch.
  auto raw = server::HttpRoundTrip(
      "127.0.0.1", router->port(),
      "GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
  ASSERT_TRUE(raw.ok());
  auto metrics_response = server::ParseHttpResponse(*raw);
  ASSERT_TRUE(metrics_response.ok());
  auto metrics = json::Parse(metrics_response->body);
  ASSERT_TRUE(metrics.ok());
  const json::Value* router_metrics = metrics->Find("router");
  ASSERT_NE(router_metrics, nullptr);
  const json::Value* batch = router_metrics->Find("batch");
  ASSERT_NE(batch, nullptr);
  EXPECT_EQ(batch->Find("batches")->AsInt(), 1);
  EXPECT_EQ(batch->Find("items")->AsInt(),
            static_cast<int64_t>(std::size(kBatchItems)));

  router->Shutdown();
  for (auto& shard : shards) shard->Shutdown();
  combined_node->Shutdown();
}

TEST_F(RouterBatchTest, EnvelopeAndPerItemValidation) {
  auto combined_node = StartNode(*combined_);
  auto shards = StartShards();
  RouterOptions options = QuietRouterOptions();
  options.batch_max_items = 2;
  auto router = StartRouter(MapFor(shards), options);

  // Envelope errors: whole-request 400s.
  EXPECT_EQ(Post(router->port(), "/query_batch", "nonsense")->status, 400);
  EXPECT_EQ(Post(router->port(), "/query_batch", "[]")->status, 400);
  EXPECT_EQ(Post(router->port(), "/query_batch", R"({"nope":1})")->status,
            400);
  EXPECT_EQ(Post(router->port(), "/query_batch",
                 R"([{"terms":["a"]},{"terms":["b"]},{"terms":["c"]}])")
                ->status,
            400);

  // Per-item errors come back per item: router-internal protocol fields
  // and batch-envelope switches on an item.
  auto response = Post(
      router->port(), "/query_batch",
      R"([{"terms":["algebra"],"score_floor":1.5},)"
      R"({"terms":["algebra"],"require_complete":true}])");
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200);
  auto parsed = json::Parse(response->body);
  ASSERT_TRUE(parsed.ok());
  const json::Value* results = parsed->Find("results");
  ASSERT_EQ(results->size(), 2u);
  EXPECT_EQ((*results)[0].Find("status")->AsInt(), 400);
  EXPECT_EQ((*results)[1].Find("status")->AsInt(), 400);

  // Non-object items reach the shards' decoder like any other item: each
  // 400 body is byte-identical to the combined node's for the same batch.
  const std::string scalars = R"([5,"x"])";
  auto routed = Post(router->port(), "/query_batch", scalars);
  auto combined = Post(combined_node->port(), "/query_batch", scalars);
  ASSERT_TRUE(routed.ok());
  ASSERT_TRUE(combined.ok());
  ASSERT_EQ(routed->status, 200) << routed->body;
  ASSERT_EQ(combined->status, 200) << combined->body;
  auto routed_body = json::Parse(routed->body);
  auto combined_body = json::Parse(combined->body);
  ASSERT_TRUE(routed_body.ok());
  ASSERT_TRUE(combined_body.ok());
  const json::Value* routed_results = routed_body->Find("results");
  const json::Value* combined_results = combined_body->Find("results");
  ASSERT_EQ(routed_results->size(), 2u);
  ASSERT_EQ(combined_results->size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    const json::Value& item = (*routed_results)[i];
    EXPECT_EQ(item.Find("status")->AsInt(), 400) << "item " << i;
    EXPECT_EQ(item.Find("status")->AsInt(),
              (*combined_results)[i].Find("status")->AsInt())
        << "item " << i;
    EXPECT_EQ(item.Find("body")->Dump(),
              (*combined_results)[i].Find("body")->Dump())
        << "item " << i;
  }

  // Every field of the retired top-k bound exchange is an unknown field to
  // the shards' decoder: a per-item 400 that leaves its neighbour intact.
  for (const char* field : {"score_floor", "probe_documents",
                            "skip_documents", "query_id", "bound_exchange"}) {
    auto retired = Post(
        router->port(), "/query_batch",
        StrFormat(R"([{"terms":["algebra"],"top_k":3,"%s":1},)"
                  R"({"terms":["algebra"]}])",
                  field));
    ASSERT_TRUE(retired.ok()) << field;
    ASSERT_EQ(retired->status, 200) << field;
    auto retired_body = json::Parse(retired->body);
    ASSERT_TRUE(retired_body.ok()) << field;
    const json::Value* retired_results = retired_body->Find("results");
    ASSERT_EQ(retired_results->size(), 2u) << field;
    EXPECT_EQ((*retired_results)[0].Find("status")->AsInt(), 400) << field;
    EXPECT_EQ((*retired_results)[1].Find("status")->AsInt(), 200) << field;
  }

  // GET is refused with 405.
  auto raw = server::HttpRoundTrip(
      "127.0.0.1", router->port(),
      "GET /query_batch HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n");
  ASSERT_TRUE(raw.ok());
  auto bad = server::ParseHttpResponse(*raw);
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(bad->status, 405);

  router->Shutdown();
  for (auto& shard : shards) shard->Shutdown();
  combined_node->Shutdown();
}

TEST_F(RouterBatchTest, DeadShardDegradesPerItem) {
  auto shards = StartShards();
  RouterOptions options = QuietRouterOptions();
  options.default_shard_deadline_ms = 2000;
  options.backend.connect_timeout_ms = 200;
  auto router = StartRouter(MapFor(shards), options);
  shards[1]->Shutdown();  // shard 1 refuses connections from here on

  const std::string batch =
      R"([{"terms":["algebra","query"]},{"terms":["ranking"],"top_k":2}])";

  // Default semantics: every item answers 200 with a per-item partial.
  auto response = Post(router->port(), "/query_batch", batch);
  ASSERT_TRUE(response.ok());
  ASSERT_EQ(response->status, 200) << response->body;
  auto parsed = json::Parse(response->body);
  ASSERT_TRUE(parsed.ok());
  const json::Value* results = parsed->Find("results");
  ASSERT_EQ(results->size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    const json::Value& entry = (*results)[i];
    EXPECT_EQ(entry.Find("status")->AsInt(), 200) << "item " << i;
    const json::Value* partial = entry.Find("body")->Find("partial");
    ASSERT_NE(partial, nullptr) << "item " << i;
    const json::Value* missing = partial->Find("missing_shards");
    ASSERT_NE(missing, nullptr);
    ASSERT_EQ(missing->size(), 1u);
    EXPECT_EQ((*missing)[0].AsInt(), 1);
  }
  EXPECT_GE(router->partials_served(), 2u);

  // require_complete on the batch envelope: every item answers 504.
  auto strict = Post(router->port(), "/query_batch",
                     StrFormat(R"({"queries":%s,"require_complete":true})",
                               batch.c_str()));
  ASSERT_TRUE(strict.ok());
  ASSERT_EQ(strict->status, 200) << strict->body;
  auto strict_parsed = json::Parse(strict->body);
  ASSERT_TRUE(strict_parsed.ok());
  const json::Value* strict_results = strict_parsed->Find("results");
  ASSERT_EQ(strict_results->size(), 2u);
  for (size_t i = 0; i < 2; ++i) {
    const json::Value& entry = (*strict_results)[i];
    EXPECT_EQ(entry.Find("status")->AsInt(), 504) << "item " << i;
    const json::Value* missing =
        entry.Find("body")->Find("missing_shards");
    ASSERT_NE(missing, nullptr) << "item " << i;
    ASSERT_EQ(missing->size(), 1u);
    EXPECT_EQ((*missing)[0].AsInt(), 1);
  }

  router->Shutdown();
  for (auto& shard : shards) shard->Shutdown();
}

}  // namespace
}  // namespace xfrag::router

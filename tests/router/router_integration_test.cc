// End-to-end tests of the scatter-gather tier: an in-process Router fronting
// three in-process xfragd shards, checked against a single combined xfragd
// hosting the same 12-document corpus. The core contract — ≥200 randomized
// queries (full + ranked top-k, filters, strategies, explain, max_answers)
// whose router responses are byte-identical to the combined node after
// normalizing "elapsed_ms" — plus degraded mode (shard killed mid-run →
// 200 + "partial" or 504 under "require_complete"), hedging, background
// health mark-down/up, and the /metrics//healthz//version surfaces.
//
// Everything runs on loopback in one process, so the whole suite is
// hermetic and runs under TSan (scripts/check.sh router stage).

#include "router/router.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "collection/collection.h"
#include "common/json.h"
#include "common/rng.h"
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
  static const char* vocab[] = {"algebra",      "query", "fragment",
                                "retrieval",    "ranking", "optimization",
                                "index",        "xml",     "join",
                                "cost"};
  return vocab[n % (sizeof(vocab) / sizeof(vocab[0]))];
}

/// Deterministic document `i`: overlapping vocabulary across documents (so
/// queries match several shards) with varying structure (so sizes, heights
/// and scores differ).
std::string MakeDoc(size_t i) {
  std::string xml = StrFormat("<paper><title>%s %s</title>", Word(i),
                              Word(i + 3));
  size_t sections = 2 + i % 2;
  for (size_t s = 0; s < sections; ++s) {
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

class RouterIntegrationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    combined_ = std::make_unique<collection::Collection>();
    for (size_t s = 0; s < kShards; ++s) {
      shard_collections_.push_back(
          std::make_unique<collection::Collection>());
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
    auto started = node->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    return node;
  }

  /// Starts the three shard servers (identical options).
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
    auto started = router->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    return router;
  }

  /// Byte-identity tests disable hedging (a hedge re-evaluates a query on
  /// one shard, which can race that shard's fixed-point cache warmth ahead
  /// of the combined node's) and health probes (noise).
  static RouterOptions QuietRouterOptions() {
    RouterOptions options;
    options.enable_hedging = false;
    options.health_check_interval_ms = 0;
    return options;
  }

  static StatusOr<server::HttpResponse> Post(
      uint16_t port, const std::string& body, int timeout_ms = 30000,
      const std::string& target = "/query") {
    std::string request = StrFormat(
        "POST %s HTTP/1.1\r\nHost: t\r\nContent-Length: %zu\r\n"
        "Connection: close\r\n\r\n",
        target.c_str(), body.size());
    request += body;
    auto raw = server::HttpRoundTrip("127.0.0.1", port, request, timeout_ms);
    if (!raw.ok()) return raw.status();
    return server::ParseHttpResponse(*raw);
  }

  static StatusOr<server::HttpResponse> Get(uint16_t port,
                                            const std::string& path) {
    std::string request = StrFormat(
        "GET %s HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        path.c_str());
    auto raw = server::HttpRoundTrip("127.0.0.1", port, request);
    if (!raw.ok()) return raw.status();
    return server::ParseHttpResponse(*raw);
  }

  /// Zeroes the timing field (the one permitted divergence) and re-dumps.
  static std::string Normalized(const std::string& body) {
    auto parsed = json::Parse(body);
    EXPECT_TRUE(parsed.ok()) << body;
    if (!parsed.ok()) return body;
    parsed->Set("elapsed_ms", 0);
    return parsed->Dump();
  }

  static bool WaitUntil(const std::function<bool()>& pred, int timeout_ms) {
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    while (std::chrono::steady_clock::now() < deadline) {
      if (pred()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return pred();
  }

  /// One randomized /query body. Roughly 1 in 10 is deliberately invalid
  /// (the shards' 400 must be forwarded verbatim and match the combined
  /// node's 400 byte for byte).
  static std::string RandomQueryBody(Rng* rng) {
    if (rng->Chance(0.05)) {
      return R"({"terms":["algebra"],"top_k":2,"rank":false})";  // 400
    }
    if (rng->Chance(0.05)) {
      return R"({"terms":["algebra"],"frobnicate":true})";  // 400
    }
    json::Value body = json::Value::Object();
    json::Value terms = json::Value::Array();
    size_t term_count = 1 + rng->Uniform(2);
    for (size_t t = 0; t < term_count; ++t) {
      terms.Append(std::string(Word(rng->Uniform(10))));
    }
    body.Set("terms", std::move(terms));
    if (rng->Chance(0.3)) {
      static const char* filters[] = {"size<=3", "height<=2", "size<=5"};
      body.Set("filter", std::string(filters[rng->Uniform(3)]));
    }
    if (rng->Chance(0.4)) {
      static const char* strategies[] = {"pushdown", "reduced", "naive"};
      body.Set("strategy", std::string(strategies[rng->Uniform(3)]));
    }
    switch (rng->Uniform(4)) {
      case 0:  // full mode
        break;
      case 1:
        body.Set("rank", true);
        break;
      case 2:
        body.Set("top_k", static_cast<int64_t>(1 + rng->Uniform(6)));
        break;
      case 3:
        body.Set("rank", true);
        body.Set("top_k", static_cast<int64_t>(1 + rng->Uniform(6)));
        break;
    }
    if (rng->Chance(0.2)) {
      body.Set("max_answers", static_cast<int64_t>(rng->Uniform(5)));
    }
    if (rng->Chance(0.15)) body.Set("explain", true);
    if (rng->Chance(0.1)) body.Set("xml", true);
    return body.Dump();
  }

  std::unique_ptr<collection::Collection> combined_;
  std::vector<std::unique_ptr<collection::Collection>> shard_collections_;
};

TEST_F(RouterIntegrationTest, RandomizedQueriesByteIdenticalToCombinedNode) {
  // This is the strict legacy contract: full bodies — including the work
  // "metrics" — must agree byte for byte. Cross-document floor seeding and
  // document-class dedup legitimately change the work counters (answers
  // stay identical; tests/router/distributed_topk_test.cc and
  // RandomizedQueriesAnswersIdenticalWithDagCompression below prove that),
  // so both are disabled here to keep the metric comparison meaningful.
  // Dedup in particular skips duplicate documents entirely on the combined
  // node, so their fixed-point caches run colder than the shards' — visible
  // in the metrics of EXPLAIN requests, which bypass dedup.
  server::ServerOptions node_options;
  node_options.service.enable_cross_document_floor = false;
  node_options.service.enable_dag_compression = false;
  auto combined_node = StartNode(*combined_, node_options);
  auto shards = StartShards(node_options);
  RouterOptions router_options = QuietRouterOptions();
  auto router = StartRouter(MapFor(shards), router_options);

  // Identical query sequences keep the per-document fixed-point caches on
  // both sides equally warm, so even the "metrics" object must agree.
  Rng rng(20260807);
  int compared = 0;
  for (int i = 0; i < 220; ++i) {
    std::string body = RandomQueryBody(&rng);
    auto from_combined = Post(combined_node->port(), body);
    auto from_router = Post(router->port(), body);
    ASSERT_TRUE(from_combined.ok()) << from_combined.status().ToString();
    ASSERT_TRUE(from_router.ok()) << from_router.status().ToString();
    ASSERT_EQ(from_router->status, from_combined->status) << body;
    EXPECT_EQ(Normalized(from_router->body), Normalized(from_combined->body))
        << "query " << i << ": " << body;
    ++compared;
  }
  EXPECT_GE(compared, 200);
  EXPECT_EQ(router->partials_served(), 0u);
  EXPECT_EQ(router->hedges_launched(), 0u);  // hedging disabled

  router->Shutdown();
  for (auto& shard : shards) shard->Shutdown();
  combined_node->Shutdown();
}

// DAG compression on (the default): this corpus has byte-identical document
// pairs (d10 == d00, d11 == d01) that the combined node deduplicates but the
// shards cannot (each shard holds one copy), so work metrics may drift on
// EXPLAIN requests — but every rendered answer must stay byte-identical.
TEST_F(RouterIntegrationTest, RandomizedQueriesAnswersIdenticalWithDagCompression) {
  server::ServerOptions node_options;
  node_options.service.enable_cross_document_floor = false;
  auto combined_node = StartNode(*combined_, node_options);
  auto shards = StartShards(node_options);
  RouterOptions router_options = QuietRouterOptions();
  auto router = StartRouter(MapFor(shards), router_options);

  // Work counters drift with dedup (the "metrics" object, and the physical
  // prefilter/top-k counts embedded in per-document EXPLAIN text, which
  // reflect fixed-point cache warmth); everything the answers are made of
  // must not.
  auto answers_only = [](const std::string& body) {
    auto parsed = json::Parse(body);
    EXPECT_TRUE(parsed.ok()) << body;
    if (!parsed.ok()) return body;
    parsed->Set("elapsed_ms", 0);
    parsed->Set("metrics", json::Value::Object());
    if (parsed->Find("explain") != nullptr) {
      parsed->Set("explain", json::Value::Array());
    }
    return parsed->Dump();
  };

  Rng rng(20260808);
  int compared = 0;
  for (int i = 0; i < 120; ++i) {
    std::string body = RandomQueryBody(&rng);
    auto from_combined = Post(combined_node->port(), body);
    auto from_router = Post(router->port(), body);
    ASSERT_TRUE(from_combined.ok()) << from_combined.status().ToString();
    ASSERT_TRUE(from_router.ok()) << from_router.status().ToString();
    ASSERT_EQ(from_router->status, from_combined->status) << body;
    EXPECT_EQ(answers_only(from_router->body),
              answers_only(from_combined->body))
        << "query " << i << ": " << body;
    ++compared;
  }
  EXPECT_GE(compared, 100);

  router->Shutdown();
  for (auto& shard : shards) shard->Shutdown();
  combined_node->Shutdown();
}

TEST_F(RouterIntegrationTest, ConcurrentClientsMatchPrecomputedResponses) {
  auto shards = StartShards();
  auto router = StartRouter(MapFor(shards), QuietRouterOptions());

  // Warm every variant once, then capture the stable (warm-cache) response;
  // concurrent repeats must reproduce it exactly.
  std::vector<std::string> variants = {
      R"({"terms":["algebra","query"]})",
      R"({"terms":["fragment"],"strategy":"pushdown","filter":"size<=5"})",
      R"({"terms":["ranking"],"top_k":3})",
      R"({"terms":["xml","index"],"rank":true,"max_answers":2})",
  };
  std::vector<std::string> expected;
  for (const auto& body : variants) {
    ASSERT_TRUE(Post(router->port(), body).ok());
    auto stable = Post(router->port(), body);
    ASSERT_TRUE(stable.ok());
    ASSERT_EQ(stable->status, 200) << stable->body;
    expected.push_back(Normalized(stable->body));
  }

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 8;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int r = 0; r < kRequestsPerClient; ++r) {
        size_t v = static_cast<size_t>(c + r) % variants.size();
        auto response = Post(router->port(), variants[v]);
        if (!response.ok() || response->status != 200) {
          ++failures;
          continue;
        }
        if (Normalized(response->body) != expected[v]) ++mismatches;
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  router->Shutdown();
  for (auto& shard : shards) shard->Shutdown();
}

TEST_F(RouterIntegrationTest, KilledShardDegradesToPartialOr504) {
  auto shards = StartShards();
  auto router = StartRouter(MapFor(shards), QuietRouterOptions());
  const std::string body = R"({"terms":["algebra"]})";

  auto before = Post(router->port(), body);
  ASSERT_TRUE(before.ok());
  ASSERT_EQ(before->status, 200);
  ASSERT_EQ(json::Parse(before->body)->Find("partial"), nullptr);

  shards[1]->Shutdown();  // kill the middle shard mid-run

  auto degraded = Post(router->port(), body);
  ASSERT_TRUE(degraded.ok());
  ASSERT_EQ(degraded->status, 200) << degraded->body;
  auto parsed = json::Parse(degraded->body);
  ASSERT_TRUE(parsed.ok());
  const json::Value* partial = parsed->Find("partial");
  ASSERT_NE(partial, nullptr) << degraded->body;
  const json::Value* missing = partial->Find("missing_shards");
  ASSERT_NE(missing, nullptr);
  ASSERT_EQ(missing->size(), 1u);
  EXPECT_EQ((*missing)[0].AsInt(), 1);
  // The full corpus size is still reported; the answers must come only
  // from the surviving shards' document ranges.
  EXPECT_EQ(parsed->Find("documents")->AsInt(),
            static_cast<int64_t>(kTotalDocs));
  for (const json::Value& answer : parsed->Find("answers")->items()) {
    int64_t doc = answer.Find("document_index")->AsInt();
    EXPECT_TRUE(doc < 4 || doc >= 8) << "answer from the killed shard";
  }
  EXPECT_GE(router->partials_served(), 1u);

  // The same query under require_complete refuses the partial result.
  auto refused =
      Post(router->port(), R"({"terms":["algebra"],"require_complete":true})");
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ(refused->status, 504) << refused->body;
  auto refused_body = json::Parse(refused->body);
  ASSERT_TRUE(refused_body.ok());
  ASSERT_NE(refused_body->Find("missing_shards"), nullptr);
  EXPECT_EQ((*refused_body->Find("missing_shards"))[0].AsInt(), 1);

  router->Shutdown();
  shards[0]->Shutdown();
  shards[2]->Shutdown();
}

TEST_F(RouterIntegrationTest, AllShardsDownYields504) {
  auto shards = StartShards();
  auto router = StartRouter(MapFor(shards), QuietRouterOptions());
  for (auto& shard : shards) shard->Shutdown();

  auto response = Post(router->port(), R"({"terms":["algebra"]})");
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->status, 504);
  auto parsed = json::Parse(response->body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_NE(parsed->Find("error"), nullptr);
  EXPECT_EQ(parsed->Find("missing_shards")->size(), kShards);
  router->Shutdown();
}

TEST_F(RouterIntegrationTest, RouterRejectsMalformedRequests) {
  auto shards = StartShards();
  auto router = StartRouter(MapFor(shards), QuietRouterOptions());

  auto bad_json = Post(router->port(), R"({"terms": )");
  ASSERT_TRUE(bad_json.ok());
  EXPECT_EQ(bad_json->status, 400);
  auto parsed = json::Parse(bad_json->body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_NE(parsed->Find("error"), nullptr);
  EXPECT_NE(parsed->Find("offset"), nullptr);

  auto bad_rc =
      Post(router->port(), R"({"terms":["a"],"require_complete":"yes"})");
  ASSERT_TRUE(bad_rc.ok());
  EXPECT_EQ(bad_rc->status, 400);

  auto wrong_method = Get(router->port(), "/query");
  ASSERT_TRUE(wrong_method.ok());
  EXPECT_EQ(wrong_method->status, 405);

  auto unknown = Get(router->port(), "/nope");
  ASSERT_TRUE(unknown.ok());
  EXPECT_EQ(unknown->status, 404);

  router->Shutdown();
  for (auto& shard : shards) shard->Shutdown();
}

TEST_F(RouterIntegrationTest, HedgeFiresOnStragglersAndStillCompletes) {
  server::ServerOptions shard_options;
  shard_options.service.enable_debug_sleep = true;
  auto shards = StartShards(shard_options);

  RouterOptions options;
  options.health_check_interval_ms = 0;
  options.hedge_default_delay_ms = 10;  // hedge well before the sleep ends
  auto router = StartRouter(MapFor(shards), options);

  auto response = Post(
      router->port(), R"({"terms":["algebra"],"debug_sleep_ms":200})");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200) << response->body;
  EXPECT_GE(router->hedges_launched(), 1u);
  auto parsed = json::Parse(response->body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("partial"), nullptr);  // slow, but complete

  auto metrics = Get(router->port(), "/metrics");
  ASSERT_TRUE(metrics.ok());
  auto metrics_body = json::Parse(metrics->body);
  ASSERT_TRUE(metrics_body.ok());
  EXPECT_GE(metrics_body->Find("router")
                ->Find("hedges")
                ->Find("launched")
                ->AsInt(),
            1);

  router->Shutdown();
  for (auto& shard : shards) shard->Shutdown();
}

TEST_F(RouterIntegrationTest, SlowShardsMissDeadlineButRouterNeverHangs) {
  // One worker per shard: a shard still busy with a request nobody waits
  // for could not answer anything else.
  server::ServerOptions shard_options;
  shard_options.service.enable_debug_sleep = true;
  shard_options.workers = 1;
  auto shards = StartShards(shard_options);

  RouterOptions options = QuietRouterOptions();
  options.deadline_grace_ms = 20;
  auto router = StartRouter(MapFor(shards), options);

  // All shards sleep far past the request deadline: every leg times out, so
  // no shard resolves and the router must answer 504 promptly.
  auto start = std::chrono::steady_clock::now();
  auto response = Post(
      router->port(),
      R"({"terms":["algebra"],"debug_sleep_ms":3000,"deadline_ms":150})");
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                     std::chrono::steady_clock::now() - start)
                     .count();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 504) << response->body;
  EXPECT_LT(elapsed, 2500) << "router waited past the deadline";

  // A batch's gather budget is the widest item deadline, not the router's
  // default: two items that each allow 150 ms answer per-item 504s just as
  // promptly.
  start = std::chrono::steady_clock::now();
  auto batch = Post(
      router->port(),
      R"([{"terms":["algebra"],"debug_sleep_ms":3000,"deadline_ms":150},)"
      R"({"terms":["query"],"debug_sleep_ms":3000,"deadline_ms":150}])",
      30000, "/query_batch");
  elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->status, 200) << batch->body;
  auto parsed = json::Parse(batch->body);
  ASSERT_TRUE(parsed.ok()) << batch->body;
  const json::Value* results = parsed->Find("results");
  ASSERT_NE(results, nullptr) << batch->body;
  ASSERT_EQ(results->size(), 2u);
  for (const json::Value& item : results->items()) {
    EXPECT_EQ(item.Find("status")->AsInt(), 504) << batch->body;
  }
  EXPECT_LT(elapsed, 2500) << "router waited past the item deadlines";

  // The shards stopped working on the batch at its deadline, so each one's
  // only worker is free again: a fresh /healthz answers promptly, not after
  // the 6 s the batch's sleeps would take.
  for (auto& shard : shards) {
    start = std::chrono::steady_clock::now();
    auto healthz = Get(shard->port(), "/healthz");
    elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count();
    ASSERT_TRUE(healthz.ok()) << healthz.status().ToString();
    EXPECT_EQ(healthz->status, 200) << healthz->body;
    EXPECT_LT(elapsed, 1000) << "shard " << shard->port()
                             << " kept its worker on the abandoned batch";
  }

  router->Shutdown();
  for (auto& shard : shards) shard->Shutdown();
}

TEST_F(RouterIntegrationTest, HugeXqlDeadlineClampsInsteadOfWrapping) {
  server::ServerOptions shard_options;
  shard_options.service.enable_debug_sleep = true;
  auto shards = StartShards(shard_options);

  RouterOptions options = QuietRouterOptions();
  options.deadline_grace_ms = 20;
  auto router = StartRouter(MapFor(shards), options);

  // A DEADLINE past INT_MAX must clamp in 64-bit, not wrap negative (which
  // collapsed the shard budget to 1 ms and 504'd a patient request): the
  // 150 ms shard sleep has to fit comfortably inside the clamped budget.
  auto response = Post(
      router->port(),
      R"({"q":"{algebra} DEADLINE 999999999999999","debug_sleep_ms":150})");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200) << response->body;

  router->Shutdown();
  for (auto& shard : shards) shard->Shutdown();
}

TEST_F(RouterIntegrationTest, HealthCheckerMarksShardsDownAndUp) {
  auto shards = StartShards();
  uint16_t port2 = shards[2]->port();

  RouterOptions options;
  options.enable_hedging = false;
  options.health_check_interval_ms = 25;
  options.health_check_timeout_ms = 250;
  options.backend.connect_timeout_ms = 250;
  auto router = StartRouter(MapFor(shards), options);

  ASSERT_TRUE(WaitUntil([&] { return router->HealthyShards() == kShards; },
                        5000));
  shards[2]->Shutdown();
  ASSERT_TRUE(WaitUntil(
      [&] { return router->HealthyShards() == kShards - 1; }, 5000));

  // Revive the shard on its old port (SO_REUSEADDR makes rebinding safe).
  server::ServerOptions revive;
  revive.port = port2;
  auto revived = StartNode(*shard_collections_[2], revive);
  ASSERT_TRUE(WaitUntil([&] { return router->HealthyShards() == kShards; },
                        5000));

  auto metrics = Get(router->port(), "/metrics");
  ASSERT_TRUE(metrics.ok());
  auto parsed = json::Parse(metrics->body);
  ASSERT_TRUE(parsed.ok());
  const json::Value* shard2 =
      &(*parsed->Find("router")->Find("shards"))[2];
  EXPECT_TRUE(shard2->Find("healthy")->AsBool());
  EXPECT_GE(shard2->Find("mark_downs")->AsInt(), 1);
  EXPECT_GE(shard2->Find("mark_ups")->AsInt(), 1);

  router->Shutdown();
  revived->Shutdown();
  shards[0]->Shutdown();
  shards[1]->Shutdown();
}

TEST_F(RouterIntegrationTest, ObservabilityEndpointsReportRouterShape) {
  auto shards = StartShards();
  auto router = StartRouter(MapFor(shards), QuietRouterOptions());
  ASSERT_TRUE(Post(router->port(), R"({"terms":["algebra"]})").ok());

  auto healthz = Get(router->port(), "/healthz");
  ASSERT_TRUE(healthz.ok());
  EXPECT_EQ(healthz->status, 200);
  auto health_body = json::Parse(healthz->body);
  ASSERT_TRUE(health_body.ok());
  EXPECT_EQ(health_body->Find("status")->AsString(), "ok");
  EXPECT_EQ(health_body->Find("shards")->AsInt(),
            static_cast<int64_t>(kShards));
  EXPECT_EQ(health_body->Find("documents")->AsInt(),
            static_cast<int64_t>(kTotalDocs));

  auto version = Get(router->port(), "/version");
  ASSERT_TRUE(version.ok());
  auto version_body = json::Parse(version->body);
  ASSERT_TRUE(version_body.ok());
  EXPECT_GE(version_body->Find("router_protocol_revision")->AsInt(), 1);

  auto metrics = Get(router->port(), "/metrics");
  ASSERT_TRUE(metrics.ok());
  auto metrics_body = json::Parse(metrics->body);
  ASSERT_TRUE(metrics_body.ok());
  const json::Value* router_section = metrics_body->Find("router");
  ASSERT_NE(router_section, nullptr);
  const json::Value* shard_list = router_section->Find("shards");
  ASSERT_NE(shard_list, nullptr);
  ASSERT_EQ(shard_list->size(), kShards);
  for (const json::Value& shard : shard_list->items()) {
    EXPECT_NE(shard.Find("endpoint"), nullptr);
    EXPECT_NE(shard.Find("pool"), nullptr);
    EXPECT_NE(shard.Find("latency_us"), nullptr);
    EXPECT_GE(shard.Find("requests")->AsInt(), 1);
  }

  router->Shutdown();
  for (auto& shard : shards) shard->Shutdown();
}

}  // namespace
}  // namespace xfrag::router

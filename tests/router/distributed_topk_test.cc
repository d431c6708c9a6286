// The distributed top-k exactness oracle: /query with "top_k" is ONE scatter
// of the client query and an exact k-way merge. Shards hold disjoint
// documents and the engine ranks one document at a time, so each shard's
// local top-k, merged, is the global top-k; no bound travels between shards.
//
// The property suite runs shard counts {1, 2, 3, 4} × k {1, 3, 10} × seeds,
// with randomized JSON queries and their XQL `TOP k` forms, and demands the
// router's body be byte-identical to one combined QueryService over the
// whole corpus (after dropping the timing and the work "metrics", which the
// shards' engine-local floors legitimately change). The corpus replicates
// three document shapes four times each, so every score occurs a multiple
// of four times and a tie always straddles the k-th rank (4 ∤ k): the tests
// check that the tie is really there before trusting the merge with it.
//
// Degraded mode rides along: a dead shard yields the exact top-k of the
// survivors, and the retired exchange fields are 400s. Everything is
// loopback and hermetic, so the file runs under TSan (`ctest -L router`).

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "collection/collection.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/strings.h"
#include "router/router.h"
#include "server/http.h"
#include "server/net.h"
#include "server/server.h"
#include "server/service.h"

namespace xfrag::router {
namespace {

constexpr size_t kShapes = 3;
constexpr size_t kReplicas = 4;
constexpr size_t kTotalDocs = kShapes * kReplicas;  // splits over 1–4 shards

const char* Word(size_t n) {
  static const char* vocab[] = {"algebra", "query",   "fragment",
                                "ranking", "xml",     "join"};
  return vocab[n % (sizeof(vocab) / sizeof(vocab[0]))];
}
constexpr size_t kVocabulary = 6;

/// Document `i` has shape i % kShapes: identical fragments, hence identical
/// scores, recur on every shard, and each score recurs kReplicas times.
std::string MakeTiesDoc(size_t i) {
  size_t shape = i % kShapes;
  std::string xml = StrFormat("<paper><title>%s %s</title>", Word(shape),
                              Word(shape + 2));
  size_t sections = 2 + shape % 2;
  for (size_t s = 0; s < sections; ++s) {
    xml += StrFormat("<section>%s", Word(shape + s));
    for (size_t p = 0; p < 2 + (shape + s) % 2; ++p) {
      xml += StrFormat("<par>%s %s</par>", Word(shape * 2 + s + p),
                       Word(shape + p));
    }
    xml += "</section>";
  }
  xml += "</paper>";
  return xml;
}

class DistributedTopKTestBase : public ::testing::Test {
 protected:
  /// Builds the corpus partitioned contiguously over `shard_count` shards,
  /// plus the combined single-node collection.
  void BuildCorpus(size_t shard_count) {
    ASSERT_EQ(kTotalDocs % shard_count, 0u);
    docs_per_shard_ = kTotalDocs / shard_count;
    combined_ = std::make_unique<collection::Collection>();
    shard_collections_.clear();
    for (size_t s = 0; s < shard_count; ++s) {
      shard_collections_.push_back(
          std::make_unique<collection::Collection>());
    }
    for (size_t i = 0; i < kTotalDocs; ++i) {
      std::string name = StrFormat("d%02zu.xml", i);
      std::string xml = MakeTiesDoc(i);
      ASSERT_TRUE(combined_->AddXml(name, xml).ok());
      ASSERT_TRUE(
          shard_collections_[i / docs_per_shard_]->AddXml(name, xml).ok());
    }
  }

  std::unique_ptr<server::Server> StartNode(
      const collection::Collection& collection) {
    auto node = std::make_unique<server::Server>(collection,
                                                 server::ServerOptions{});
    auto started = node->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    return node;
  }

  std::vector<std::unique_ptr<server::Server>> StartShards() {
    std::vector<std::unique_ptr<server::Server>> shards;
    for (auto& collection : shard_collections_) {
      shards.push_back(StartNode(*collection));
    }
    return shards;
  }

  ShardMap MapFor(
      const std::vector<std::unique_ptr<server::Server>>& shards) const {
    ShardMap map;
    for (size_t s = 0; s < shards.size(); ++s) {
      ShardInfo info;
      info.host = "127.0.0.1";
      info.port = shards[s]->port();
      info.doc_begin = s * docs_per_shard_;
      info.doc_count = docs_per_shard_;
      map.shards.push_back(std::move(info));
    }
    map.total_documents = kTotalDocs;
    return map;
  }

  /// Hedging and health probes off: every client /query is then exactly one
  /// backend request per shard, which the suite counts.
  static std::unique_ptr<Router> StartRouter(ShardMap map) {
    RouterOptions options;
    options.enable_hedging = false;
    options.health_check_interval_ms = 0;
    auto router = std::make_unique<Router>(std::move(map), options);
    auto started = router->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    return router;
  }

  static StatusOr<server::HttpResponse> Post(uint16_t port,
                                             const std::string& body) {
    std::string request = StrFormat(
        "POST /query HTTP/1.1\r\nHost: t\r\nContent-Length: %zu\r\n"
        "Connection: close\r\n\r\n",
        body.size());
    request += body;
    auto raw = server::HttpRoundTrip("127.0.0.1", port, request);
    if (!raw.ok()) return raw.status();
    return server::ParseHttpResponse(*raw);
  }

  /// The exactness normalization: zero the timing and drop the work
  /// "metrics". Everything else — answers, scores, order, counts,
  /// truncation — must agree byte for byte.
  static std::string NormalizedTopK(const std::string& body) {
    auto parsed = json::Parse(body);
    EXPECT_TRUE(parsed.ok()) << body;
    if (!parsed.ok()) return body;
    parsed->Set("elapsed_ms", 0);
    parsed->Remove("metrics");
    return parsed->Dump();
  }

  /// The "answers" array alone, without "document_index" — for comparing a
  /// partial result with a survivors-only node, which renumbers documents
  /// while names, fragments, and scores must agree exactly.
  static std::string AnswersOnly(const std::string& body) {
    auto parsed = json::Parse(body);
    EXPECT_TRUE(parsed.ok()) << body;
    if (!parsed.ok()) return body;
    const json::Value* answers = parsed->Find("answers");
    EXPECT_NE(answers, nullptr) << body;
    if (answers == nullptr) return body;
    json::Value normalized = json::Value::Array();
    for (const json::Value& answer : answers->items()) {
      json::Value copy = json::Value::Object();
      for (const auto& [key, value] : answer.members()) {
        if (key != "document_index") copy.Set(key, value);
      }
      normalized.Append(std::move(copy));
    }
    return normalized.Dump();
  }

  std::unique_ptr<collection::Collection> combined_;
  std::vector<std::unique_ptr<collection::Collection>> shard_collections_;
  size_t docs_per_shard_ = 0;
};

/// One query in both request forms.
struct TopKQuery {
  std::string json;
  std::string xql;
};

/// A randomized ranked query with the given k: one or two distinct terms,
/// and optionally a filter, a strategy, "rank": true, and a LIMIT.
TopKQuery RandomTopKQuery(Rng* rng, int64_t k) {
  json::Value body = json::Value::Object();
  json::Value terms = json::Value::Array();
  const size_t first = rng->Uniform(kVocabulary);
  std::string term_list = Word(first);
  terms.Append(std::string(Word(first)));
  if (rng->Chance(0.5)) {
    const size_t second = first + 1 + rng->Uniform(kVocabulary - 1);
    terms.Append(std::string(Word(second)));
    term_list += StrFormat(", %s", Word(second));
  }
  body.Set("terms", std::move(terms));
  std::string xql = "{" + term_list + "}";
  if (rng->Chance(0.3)) {
    static const char* filters[] = {"size<=3", "height<=2", "size<=5"};
    const char* filter = filters[rng->Uniform(3)];
    body.Set("filter", std::string(filter));
    xql += StrFormat(" WHERE %s", filter);
  }
  if (rng->Chance(0.4)) {
    static const char* strategies[] = {"pushdown", "reduced", "naive"};
    const char* strategy = strategies[rng->Uniform(3)];
    body.Set("strategy", std::string(strategy));
    xql += StrFormat(" USING %s", strategy);
  }
  if (rng->Chance(0.5)) {
    body.Set("rank", true);
    xql += " RANK";
  }
  body.Set("top_k", k);
  xql += StrFormat(" TOP %lld", static_cast<long long>(k));
  if (rng->Chance(0.2)) {
    const int64_t limit = static_cast<int64_t>(rng->Uniform(5));
    body.Set("max_answers", limit);
    xql += StrFormat(" LIMIT %lld", static_cast<long long>(limit));
  }
  json::Value xql_body = json::Value::Object();
  xql_body.Set("q", xql);
  return TopKQuery{body.Dump(), xql_body.Dump()};
}

/// (shard count, k, seed).
using Layout = std::tuple<size_t, int64_t, uint64_t>;

class DistributedTopKTest : public DistributedTopKTestBase,
                            public ::testing::WithParamInterface<Layout> {
 protected:
  void SetUp() override { BuildCorpus(std::get<0>(GetParam())); }

  int64_t k() const { return std::get<1>(GetParam()); }

  /// Asserts the router's answer to `body` is byte-identical (normalized)
  /// to the combined service's.
  void ExpectExact(const Router& router, const server::QueryService& combined,
                   const std::string& body) {
    auto from_router = Post(router.port(), body);
    ASSERT_TRUE(from_router.ok()) << from_router.status().ToString();
    server::QueryOutcome from_combined = combined.HandleQuery(body);
    ASSERT_EQ(from_router->status, from_combined.http_status)
        << body << "\n" << from_router->body;
    EXPECT_EQ(NormalizedTopK(from_router->body),
              NormalizedTopK(from_combined.body.Dump()))
        << "k=" << k() << " shards=" << shard_collections_.size() << ": "
        << body;
  }

  /// Waits for the shards' request counters to settle (a shard records a
  /// request just after writing its response), then checks that every
  /// client query cost exactly one backend request per shard: one scatter.
  static void ExpectOneScatterPerQuery(
      const std::vector<std::unique_ptr<server::Server>>& shards,
      uint64_t queries) {
    for (const auto& shard : shards) {
      auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (shard->stats().TotalRequests() < queries &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      EXPECT_EQ(shard->stats().TotalRequests(), queries);
    }
  }
};

// Randomized queries, JSON and XQL: the router's top-k equals the combined
// service's, and each query reaches every shard exactly once.
TEST_P(DistributedTopKTest, RandomizedJsonAndXqlMatchCombinedService) {
  server::QueryService combined(*combined_);
  auto shards = StartShards();
  auto router = StartRouter(MapFor(shards));

  Rng rng(0xd15e ^ (std::get<2>(GetParam()) * 131 +
                    static_cast<uint64_t>(k())));
  uint64_t queries = 0;
  for (int q = 0; q < 12; ++q) {
    TopKQuery query = RandomTopKQuery(&rng, k());
    ExpectExact(*router, combined, query.json);
    ExpectExact(*router, combined, query.xql);
    queries += 2;
  }
  ExpectOneScatterPerQuery(shards, queries);
  EXPECT_EQ(router->partials_served(), 0u);

  router->Shutdown();
  for (auto& shard : shards) shard->Shutdown();
}

// Planted ties: for every term, the combined service's full ranking has the
// k-th and (k+1)-th answers at one score (checked, not assumed), and the
// router still reproduces the combined top-k exactly — including which of
// the tied answers make the cut, in both request forms.
TEST_P(DistributedTopKTest, PlantedTiesAtTheKthScoreMergeExactly) {
  server::QueryService combined(*combined_);
  auto shards = StartShards();
  auto router = StartRouter(MapFor(shards));

  uint64_t queries = 0;
  size_t planted = 0;
  for (size_t w = 0; w < kVocabulary; ++w) {
    const std::string full = StrFormat(
        R"({"terms":["%s"],"rank":true})", Word(w));
    server::QueryOutcome ranked = combined.HandleQuery(full);
    ASSERT_EQ(ranked.http_status, 200) << ranked.body.Dump();
    const json::Value& answers = *ranked.body.Find("answers");
    if (answers.size() <= static_cast<size_t>(k())) continue;
    EXPECT_EQ(answers[static_cast<size_t>(k()) - 1].Find("score")->AsDouble(),
              answers[static_cast<size_t>(k())].Find("score")->AsDouble())
        << "no tie at the k-th score for " << Word(w) << ", k=" << k();
    ++planted;

    const std::string json_body = StrFormat(
        R"({"terms":["%s"],"top_k":%lld})", Word(w),
        static_cast<long long>(k()));
    json::Value xql_body = json::Value::Object();
    xql_body.Set("q", StrFormat("{%s} TOP %lld", Word(w),
                                static_cast<long long>(k())));
    ExpectExact(*router, combined, json_body);
    ExpectExact(*router, combined, xql_body.Dump());
    queries += 2;
  }
  EXPECT_GE(planted, 3u) << "too few terms rank more than k answers";
  ExpectOneScatterPerQuery(shards, queries);

  router->Shutdown();
  for (auto& shard : shards) shard->Shutdown();
}

INSTANTIATE_TEST_SUITE_P(
    ShardsByKBySeed, DistributedTopKTest,
    ::testing::Combine(::testing::Values(size_t{1}, size_t{2}, size_t{3},
                                         size_t{4}),
                       ::testing::Values(int64_t{1}, int64_t{3}, int64_t{10}),
                       ::testing::Values(uint64_t{1}, uint64_t{2})));

/// Degraded-mode and protocol tests at a fixed four-shard layout.
class DistributedTopKFaultTest : public DistributedTopKTestBase {
 protected:
  void SetUp() override { BuildCorpus(4); }

  /// A combined node over the documents of the surviving shards only — the
  /// oracle for "exact partial" answers.
  std::unique_ptr<collection::Collection> SurvivorsWithout(
      size_t dead_shard) const {
    auto survivors = std::make_unique<collection::Collection>();
    for (size_t i = 0; i < kTotalDocs; ++i) {
      if (i / docs_per_shard_ == dead_shard) continue;
      auto added = survivors->AddXml(StrFormat("d%02zu.xml", i),
                                     MakeTiesDoc(i));
      EXPECT_TRUE(added.ok());
    }
    return survivors;
  }
};

// A shard dead before the query: the survivors' local top-k lists merge to
// the exact top-k over the surviving documents, flagged as partial.
TEST_F(DistributedTopKFaultTest, DeadShardFallsBackToExactPartial) {
  auto shards = StartShards();
  auto router = StartRouter(MapFor(shards));
  constexpr size_t kDead = 2;
  shards[kDead]->Shutdown();

  auto survivors = SurvivorsWithout(kDead);
  auto survivor_node = StartNode(*survivors);
  const std::string body = R"({"terms":["algebra","query"],"top_k":5})";

  auto degraded = Post(router->port(), body);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  ASSERT_EQ(degraded->status, 200) << degraded->body;
  auto parsed = json::Parse(degraded->body);
  ASSERT_TRUE(parsed.ok());
  const json::Value* partial = parsed->Find("partial");
  ASSERT_NE(partial, nullptr) << degraded->body;
  ASSERT_EQ(partial->Find("missing_shards")->size(), 1u);
  EXPECT_EQ((*partial->Find("missing_shards"))[0].AsInt(),
            static_cast<int64_t>(kDead));
  EXPECT_EQ(router->partials_served(), 1u);

  auto oracle = Post(survivor_node->port(), body);
  ASSERT_TRUE(oracle.ok());
  ASSERT_EQ(oracle->status, 200);
  EXPECT_EQ(AnswersOnly(degraded->body), AnswersOnly(oracle->body))
      << "partial answers are not the exact top-k over the survivors";

  // The same query under require_complete refuses the partial instead.
  auto refused = Post(
      router->port(),
      R"({"terms":["algebra","query"],"top_k":5,"require_complete":true})");
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ(refused->status, 504) << refused->body;

  router->Shutdown();
  for (size_t s = 0; s < shards.size(); ++s) {
    if (s != kDead) shards[s]->Shutdown();
  }
  survivor_node->Shutdown();
}

// The fields of the retired bound exchange are unknown request fields: the
// shards' decoder rejects them and the router forwards that 400.
TEST_F(DistributedTopKFaultTest, RouterRejectsClientSuppliedProtocolFields) {
  auto shards = StartShards();
  auto router = StartRouter(MapFor(shards));

  for (const char* bad : {
           R"({"terms":["algebra"],"top_k":3,"score_floor":1.0})",
           R"({"terms":["algebra"],"top_k":3,"probe_documents":1})",
           R"({"terms":["algebra"],"top_k":3,"skip_documents":1})",
           R"({"terms":["algebra"],"top_k":3,"query_id":"mine"})",
           R"({"terms":["algebra"],"top_k":3,"bound_exchange":false})",
       }) {
    auto response = Post(router->port(), bad);
    ASSERT_TRUE(response.ok()) << bad;
    EXPECT_EQ(response->status, 400) << bad << " -> " << response->body;
    auto parsed = json::Parse(response->body);
    ASSERT_TRUE(parsed.ok());
    EXPECT_NE(parsed->Find("error"), nullptr);
  }

  router->Shutdown();
  for (auto& shard : shards) shard->Shutdown();
}

}  // namespace
}  // namespace xfrag::router

// The daemon's document loop is CollectionEngine::Evaluate: for every query
// shape — unranked, top_k, rank without top_k, EXPLAIN and an explicit XQL
// plan — the engine's hits equal the "answers" QueryService renders
// (document index, nodes, score), and its merged metrics and document counts
// equal the body's. A direct timing of CollectionEngine::Evaluate therefore
// times the loop a /query runs.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "collection/collection_engine.h"
#include "common/json.h"
#include "common/strings.h"
#include "gen/corpus.h"
#include "lang/lower.h"
#include "server/service.h"
#include "server/stats.h"

namespace xfrag::server {
namespace {

// Six documents from three generated templates: two templates repeat (so
// dedup replays) and the third lacks "kwtwo" (so the pre-check skips it).
collection::Collection MakeCollection() {
  std::vector<gen::RawCorpus> templates;
  for (uint64_t t = 0; t < 3; ++t) {
    gen::CorpusProfile profile;
    profile.target_nodes = 300;
    profile.seed = 7100 + t;
    gen::RawCorpus raw = gen::GenerateRaw(profile);
    Rng rng(7200 + t);
    gen::PlantKeyword(&raw, "kwone", 8, gen::PlantMode::kScattered, &rng);
    if (t != 2) {
      gen::PlantKeyword(&raw, "kwtwo", 6, gen::PlantMode::kClustered, &rng);
    }
    templates.push_back(std::move(raw));
  }
  collection::Collection collection;
  const size_t kLayout[] = {0, 1, 2, 0, 1, 0};
  for (size_t i = 0; i < std::size(kLayout); ++i) {
    auto document = gen::Materialize(templates[kLayout[i]]);
    EXPECT_TRUE(document.ok());
    EXPECT_TRUE(
        collection.Add(StrFormat("d%zu.xml", i), std::move(document).value())
            .ok());
  }
  return collection;
}

struct Case {
  const char* xql;
  bool rank;
};

const Case kCases[] = {
    {"{kwone, kwtwo} WHERE size<=4 USING pushdown", false},
    {"{kwone, kwtwo} WHERE size<=5 TOP 4", true},
    {"{kwone, kwtwo} WHERE size<=4 RANK", true},
    {"EXPLAIN {kwone, kwtwo} WHERE size<=5", false},
    {"{kwone} JOIN {kwtwo} WHERE size<=4", false},
};

TEST(CollectionEquivalenceTest, EngineHitsAreTheRenderedAnswers) {
  const collection::Collection collection = MakeCollection();
  for (const Case& c : kCases) {
    SCOPED_TRACE(c.xql);
    // Fresh caches on both sides: each evaluates the query cold.
    QueryService service(collection);
    json::Value request = json::Value::Object();
    request.Set("q", std::string(c.xql));
    const QueryOutcome outcome = service.HandleQuery(request.Dump());
    ASSERT_EQ(outcome.http_status, 200) << outcome.body.Dump();

    auto lowered = lang::ParseAndLower(c.xql, nullptr);
    ASSERT_TRUE(lowered.ok()) << lowered.status().ToString();
    collection::CollectionEvalOptions options;
    query::Query query;
    std::shared_ptr<const query::PlanNode> plan = lowered->plan;
    if (lowered->canonical) {
      query = lowered->canonical_query;
      options.per_document.strategy = lowered->strategy;
    } else {
      query.terms = lowered->scan_terms;
      options.plan = plan.get();
    }
    if (c.rank) {
      options.per_document.top_k =
          lowered->top_k >= 0 ? lowered->top_k : collection::kRankAll;
    }
    options.explain = lowered->explain;
    std::vector<std::unique_ptr<query::FixedPointCache>> caches;
    for (size_t i = 0; i < collection.size(); ++i) {
      caches.push_back(std::make_unique<query::FixedPointCache>());
    }
    options.fixed_point_caches = caches;
    auto result =
        collection::CollectionEngine(collection).Evaluate(query, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    const json::Value& body = outcome.body;
    const json::Value& answers = *body.Find("answers");
    ASSERT_GT(result->answers.size(), 0u);
    ASSERT_EQ(answers.size(), result->answers.size());
    for (size_t a = 0; a < answers.size(); ++a) {
      const collection::CollectionAnswer& hit = result->answers[a];
      const json::Value& rendered = answers[a];
      EXPECT_EQ(rendered.Find("document_index")->AsInt(),
                static_cast<int64_t>(hit.document_index));
      json::Value nodes = json::Value::Array();
      for (doc::NodeId n : hit.fragment.nodes()) {
        nodes.Append(static_cast<uint64_t>(n));
      }
      EXPECT_EQ(rendered.Find("nodes")->Dump(), nodes.Dump());
      if (c.rank) {
        EXPECT_EQ(rendered.Find("score")->AsDouble(), hit.score);
      } else {
        EXPECT_EQ(rendered.Find("score"), nullptr);
      }
    }
    EXPECT_EQ(body.Find("metrics")->Dump(),
              StatsRegistry::OpMetricsToJson(result->metrics).Dump());
    EXPECT_EQ(body.Find("documents_evaluated")->AsInt(),
              static_cast<int64_t>(result->documents_evaluated));
    EXPECT_EQ(body.Find("documents_skipped")->AsInt(),
              static_cast<int64_t>(result->documents_skipped));
    EXPECT_EQ(result->documents_skipped, 1u);
    if (options.explain) {
      const json::Value& explains = *body.Find("explain");
      // EXPLAIN evaluates every document: no replays.
      EXPECT_EQ(result->documents_deduplicated, 0u);
      ASSERT_EQ(explains.size(), result->explains.size());
      ASSERT_EQ(result->explains.size(), result->documents_evaluated);
      for (size_t e = 0; e < explains.size(); ++e) {
        EXPECT_EQ(
            explains[e].Find("document")->AsString(),
            collection.entry(result->explains[e].document_index).name);
        EXPECT_EQ(explains[e].Find("text")->AsString(),
                  result->explains[e].text);
      }
    } else {
      EXPECT_GT(result->documents_deduplicated, 0u);
    }
  }
}

}  // namespace
}  // namespace xfrag::server

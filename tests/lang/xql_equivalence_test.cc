// XQL ↔ JSON byte identity: an XQL query posted through the "q" field must
// produce a response byte-identical (modulo elapsed_ms) to the equivalent
// JSON request, across strategies × top-k × the DAG-compression switch.
// Also covers: composed plans report "strategy: explicit" in EXPLAIN,
// structured 400s for malformed "q" (offset + caret snippet), conflicts
// between "q" and query-shaping JSON fields, mixed-form /query_batch items,
// and result-cache sharing between the JSON and canonical-XQL spellings.

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

#include "collection/collection.h"
#include "common/json.h"
#include "common/strings.h"
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

// The only legitimate difference between the two paths.
json::Value Normalized(const json::Value& body) {
  json::Value v = body;
  v.Remove("elapsed_ms");
  return v;
}

// Pairs of (JSON request, equivalent XQL text). Each canonical XQL query
// must produce the same query string in the body and the same answers,
// byte for byte.
struct Pair {
  const char* json;
  const char* xql;
};

const Pair kCanonicalPairs[] = {
    {R"({"terms":["xquery","optimization"]})", "{xquery, optimization}"},
    {R"({"terms":["xquery"],"filter":"size<=2"})", "{xquery} WHERE size<=2"},
    {R"({"terms":["fragment","ranking"],"top_k":3})",
     "{fragment, ranking} TOP 3"},
    {R"({"terms":["xquery"],"rank":true,"xml":true})", "{xquery} RANK XML"},
    {R"({"terms":["algebra"],"max_answers":2})", "{algebra} LIMIT 2"},
    {R"({"terms":["xquery","optimization"],"answer_mode":"leaf_strict"})",
     "{xquery, optimization} MODE leaf_strict"},
    {R"({"terms":["xquery","optimization"],"explain":true})",
     "EXPLAIN {xquery, optimization}"},
    {R"({"terms":["xquery","optimization"],"explain":true,"analyze":true})",
     "EXPLAIN ANALYZE {xquery, optimization}"},
    {R"({"terms":["fragment"],"filter":"size<=4 & height<=3","rank":true})",
     "{fragment} WHERE size<=4 & height<=3 RANK"},
};

const char* const kStrategies[] = {"auto", "brute", "naive", "reduced",
                                   "pushdown"};

void ExpectPairIdentity(const collection::Collection& collection,
                        const std::string& json_request,
                        const std::string& xql_text, bool dag,
                        const std::string& context) {
  // Fresh services so the result cache cannot mask a divergence.
  ServiceOptions options;
  options.result_cache_bytes = 0;
  options.enable_dag_compression = dag;
  QueryService json_service(collection, options);
  QueryService xql_service(collection, options);
  QueryOutcome via_json = json_service.HandleQuery(json_request);
  json::Value wrapped = json::Value::Object();
  wrapped.Set("q", json::Value(xql_text));
  QueryOutcome via_xql = xql_service.HandleQuery(wrapped.Dump());
  ASSERT_EQ(via_json.http_status, 200) << context << via_json.body.Dump();
  ASSERT_EQ(via_xql.http_status, 200) << context << via_xql.body.Dump();
  EXPECT_TRUE(Normalized(via_json.body) == Normalized(via_xql.body))
      << context << "\njson: " << via_json.body.Dump()
      << "\nxql:  " << via_xql.body.Dump();
}

TEST(XqlEquivalenceTest, CanonicalPairsAcrossStrategiesTopKAndDag) {
  collection::Collection collection = MakeCollection();
  for (bool dag : {false, true}) {
    for (const Pair& pair : kCanonicalPairs) {
      ExpectPairIdentity(collection, pair.json, pair.xql, dag,
                         StrFormat("dag=%d xql=%s ", dag ? 1 : 0, pair.xql));
    }
    for (const char* strategy : kStrategies) {
      std::string json_request = StrFormat(
          R"({"terms":["xquery","optimization"],"strategy":"%s"})", strategy);
      std::string xql = StrFormat("{xquery, optimization} USING %s", strategy);
      ExpectPairIdentity(collection, json_request, xql, dag,
                         StrFormat("dag=%d strategy=%s ", dag ? 1 : 0,
                                   strategy));
      // Strategy × top-k: ranking must agree too.
      std::string json_topk = StrFormat(
          R"({"terms":["xquery","optimization"],"strategy":"%s","top_k":2})",
          strategy);
      std::string xql_topk =
          StrFormat("{xquery, optimization} USING %s TOP 2", strategy);
      ExpectPairIdentity(collection, json_topk, xql_topk, dag,
                         StrFormat("dag=%d strategy=%s topk ", dag ? 1 : 0,
                                   strategy));
    }
  }
}

TEST(XqlEquivalenceTest, ComposedQueriesAreDeterministicAcrossDag) {
  // Composed expressions have no JSON spelling; assert the explicit-plan
  // path is itself deterministic and DAG-independent.
  collection::Collection collection = MakeCollection();
  const char* const kComposed[] = {
      "{xquery} JOIN {optimization}",
      "{xquery} POWERSET {optimization} TOP 3",
      "FIXPOINT({xquery, optimization})",
      "FIXPOINT REDUCED({xquery, optimization}) LIMIT 2",
      "REDUCE({xquery} JOIN {optimization}) WHERE size<=6 RANK",
  };
  for (const char* text : kComposed) {
    json::Value request = json::Value::Object();
    request.Set("q", json::Value(std::string(text)));
    const std::string body = request.Dump();
    json::Value baseline;
    bool have_baseline = false;
    for (bool dag : {false, true}) {
      ServiceOptions options;
      options.result_cache_bytes = 0;
      options.enable_dag_compression = dag;
      QueryService service(collection, options);
      QueryOutcome outcome = service.HandleQuery(body);
      ASSERT_EQ(outcome.http_status, 200) << text << outcome.body.Dump();
      // The body echoes the composed display text, not the canonical
      // Q_{...} term-set rendering.
      ASSERT_NE(outcome.body.Find("query"), nullptr);
      EXPECT_EQ(outcome.body.Find("query")->AsString().find("Q_"),
                std::string::npos)
          << text << " -> " << outcome.body.Find("query")->AsString();
      if (!have_baseline) {
        baseline = Normalized(outcome.body);
        have_baseline = true;
      } else {
        EXPECT_TRUE(Normalized(outcome.body) == baseline)
            << text << " diverges across dag switch\n"
            << outcome.body.Dump() << "\nvs " << baseline.Dump();
      }
    }
  }
}

TEST(XqlEquivalenceTest, ComposedExplainReportsExplicitStrategy) {
  collection::Collection collection = MakeCollection();
  QueryService service(collection, {});
  QueryOutcome outcome = service.HandleQuery(
      R"x({"q":"EXPLAIN FIXPOINT REDUCED({xquery, optimization})"})x");
  ASSERT_EQ(outcome.http_status, 200) << outcome.body.Dump();
  const json::Value* explain = outcome.body.Find("explain");
  ASSERT_NE(explain, nullptr);
  const std::string text = explain->Dump();
  EXPECT_NE(text.find("explicit"), std::string::npos) << text;
  EXPECT_NE(text.find("FixedPoint"), std::string::npos) << text;
}

TEST(XqlEquivalenceTest, MalformedQIsAStructured400) {
  collection::Collection collection = MakeCollection();
  QueryService service(collection, {});
  QueryOutcome outcome = service.HandleQuery(R"({"q":"{xquery} JOIN"})");
  EXPECT_EQ(outcome.http_status, 400);
  const json::Value* error = outcome.body.Find("error");
  ASSERT_NE(error, nullptr);
  EXPECT_NE(error->AsString().find("q:"), std::string::npos);
  const json::Value* offset = outcome.body.Find("offset");
  ASSERT_NE(offset, nullptr) << outcome.body.Dump();
  EXPECT_EQ(offset->AsInt(), 13);
  const json::Value* snippet = outcome.body.Find("snippet");
  ASSERT_NE(snippet, nullptr);
  EXPECT_NE(snippet->AsString().find('^'), std::string::npos);

  // Non-string and empty "q" are plain 400s.
  EXPECT_EQ(service.HandleQuery(R"({"q":42})").http_status, 400);
  EXPECT_EQ(service.HandleQuery(R"({"q":""})").http_status, 400);
  // Semantic lowering errors surface the same structured fields.
  QueryOutcome semantic =
      service.HandleQuery(R"({"q":"{a} JOIN {b} USING brute"})");
  EXPECT_EQ(semantic.http_status, 400);
  EXPECT_NE(semantic.body.Find("offset"), nullptr) << semantic.body.Dump();
}

TEST(XqlEquivalenceTest, QConflictsWithQueryShapingFields) {
  collection::Collection collection = MakeCollection();
  QueryService service(collection, {});
  const char* const kConflicting[] = {
      R"({"q":"{a}","terms":["a"]})",    R"({"q":"{a}","top_k":3})",
      R"({"q":"{a}","strategy":"auto"})", R"({"q":"{a}","explain":true})",
      R"({"q":"{a}","filter":"size<=2"})",
      R"({"q":"{a}","max_answers":1})",
  };
  for (const char* request : kConflicting) {
    QueryOutcome outcome = service.HandleQuery(request);
    EXPECT_EQ(outcome.http_status, 400) << request;
    ASSERT_NE(outcome.body.Find("error"), nullptr) << request;
    EXPECT_NE(outcome.body.Find("error")->AsString().find("conflicts"),
              std::string::npos)
        << request;
  }
}

TEST(XqlEquivalenceTest, BatchMixesQAndJsonItems) {
  collection::Collection collection = MakeCollection();
  QueryService batched(collection, {});
  QueryService sequential(collection, {});
  const char* const kItems[] = {
      R"({"terms":["xquery","optimization"]})",
      R"({"q":"{xquery, optimization}"})",
      R"({"q":"{xquery} JOIN {optimization} TOP 2"})",
      R"({"q":"{xquery} JOIN"})",  // per-item 400, must not poison the batch
      R"({"terms":["fragment"],"top_k":2})",
  };
  std::string body = "[";
  for (size_t i = 0; i < std::size(kItems); ++i) {
    if (i > 0) body += ",";
    body += kItems[i];
  }
  body += "]";
  QueryOutcome outcome = batched.HandleQueryBatch(body);
  ASSERT_EQ(outcome.http_status, 200) << outcome.body.Dump();
  const json::Value* results = outcome.body.Find("results");
  ASSERT_NE(results, nullptr);
  ASSERT_EQ(results->size(), std::size(kItems));
  for (size_t i = 0; i < std::size(kItems); ++i) {
    QueryOutcome alone = sequential.HandleQuery(kItems[i]);
    const json::Value& entry = (*results)[i];
    EXPECT_EQ(entry.Find("status")->AsInt(), alone.http_status)
        << "item " << i;
    EXPECT_TRUE(Normalized(*entry.Find("body")) == Normalized(alone.body))
        << "item " << i << "\nbatch: " << entry.Find("body")->Dump()
        << "\nsequential: " << alone.body.Dump();
  }
  // The JSON spelling and its canonical XQL twin (items 0 and 1) agree.
  EXPECT_TRUE(Normalized(*(*results)[0].Find("body")) ==
              Normalized(*(*results)[1].Find("body")));
  // The malformed item carries the structured diagnostic.
  EXPECT_EQ((*results)[3].Find("status")->AsInt(), 400);
  EXPECT_NE((*results)[3].Find("body")->Find("offset"), nullptr);
}

TEST(XqlEquivalenceTest, CanonicalXqlSharesTheResultCacheWithJson) {
  collection::Collection collection = MakeCollection();
  ServiceOptions options;
  options.result_cache_bytes = 1 << 20;
  QueryService service(collection, options);
  QueryOutcome first =
      service.HandleQuery(R"({"terms":["xquery","optimization"]})");
  ASSERT_EQ(first.http_status, 200);
  EXPECT_EQ(first.body.Find("result_cache"), nullptr);
  // The canonical XQL spelling lowers to the same query::Query, so it must
  // hit the entry the JSON request populated.
  QueryOutcome second =
      service.HandleQuery(R"({"q":"{xquery, optimization}"})");
  ASSERT_EQ(second.http_status, 200);
  ASSERT_NE(second.body.Find("result_cache"), nullptr)
      << second.body.Dump();
  EXPECT_EQ(second.body.Find("result_cache")->AsString(), "hit");
  // A composed plan keys on its plan rendering — no false sharing with the
  // canonical entry.
  QueryOutcome composed =
      service.HandleQuery(R"({"q":"{xquery} POWERSET {optimization}"})");
  ASSERT_EQ(composed.http_status, 200);
  EXPECT_EQ(composed.body.Find("result_cache"), nullptr)
      << composed.body.Dump();
}

}  // namespace
}  // namespace xfrag::server

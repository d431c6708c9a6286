// Collection container + collection-wide query evaluation: term skipping,
// the merge in document order or by rank, and the error contract.

#include "collection/collection_engine.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "../testutil.h"
#include "common/cancel.h"
#include "gen/corpus.h"
#include "gen/paper_document.h"

namespace xfrag::collection {
namespace {

Collection MakeSmallCollection() {
  Collection collection;
  EXPECT_TRUE(collection
                  .AddXml("alpha.xml",
                          "<doc><sec><par>apples and oranges</par>"
                          "<par>oranges only</par></sec></doc>")
                  .ok());
  EXPECT_TRUE(collection
                  .AddXml("beta.xml",
                          "<doc><par>apples alone here</par></doc>")
                  .ok());
  EXPECT_TRUE(collection
                  .AddXml("gamma.xml",
                          "<doc><sec>apples<par>oranges</par></sec></doc>")
                  .ok());
  return collection;
}

TEST(CollectionTest, AddAndLookup) {
  Collection collection = MakeSmallCollection();
  EXPECT_EQ(collection.size(), 3u);
  EXPECT_EQ(collection.Names(),
            (std::vector<std::string>{"alpha.xml", "beta.xml", "gamma.xml"}));
  auto found = collection.Find("beta.xml");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ((*found)->name, "beta.xml");
  EXPECT_FALSE(collection.Find("missing.xml").ok());
}

TEST(CollectionTest, DuplicateNameRejected) {
  Collection collection;
  ASSERT_TRUE(collection.AddXml("a", "<r>x</r>").ok());
  auto status = collection.AddXml("a", "<r>y</r>");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(CollectionTest, MalformedXmlRejected) {
  Collection collection;
  EXPECT_FALSE(collection.AddXml("bad", "<r><unclosed></r>").ok());
  EXPECT_EQ(collection.size(), 0u);
}

TEST(CollectionTest, DocumentFrequency) {
  Collection collection = MakeSmallCollection();
  EXPECT_EQ(collection.DocumentFrequency("apples"), 3u);
  EXPECT_EQ(collection.DocumentFrequency("oranges"), 2u);
  EXPECT_EQ(collection.DocumentFrequency("nothing"), 0u);
}

TEST(CollectionTest, TotalNodes) {
  Collection collection = MakeSmallCollection();
  // alpha: doc,sec,par,par = 4; beta: doc,par = 2; gamma: doc,sec,par = 3.
  EXPECT_EQ(collection.TotalNodes(), 9u);
}

TEST(CollectionEngineTest, EvaluatesOnlyDocumentsWithAllTerms) {
  Collection collection = MakeSmallCollection();
  CollectionEngine engine(collection);
  query::Query q;
  q.terms = {"apples", "oranges"};
  auto result = engine.Evaluate(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // beta.xml lacks 'oranges'.
  EXPECT_EQ(result->documents_evaluated, 2u);
  EXPECT_EQ(result->documents_skipped, 1u);
  ASSERT_FALSE(result->answers.empty());
  for (const auto& answer : result->answers) {
    EXPECT_NE(collection.entry(answer.document_index).name, "beta.xml");
  }
}

TEST(CollectionEngineTest, AnswersCarryProvenanceInDocumentOrder) {
  Collection collection = MakeSmallCollection();
  CollectionEngine engine(collection);
  query::Query q;
  q.terms = {"apples"};
  auto result = engine.Evaluate(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->documents_evaluated, 3u);
  // Document indexes are non-decreasing in the merged answer list.
  for (size_t i = 1; i < result->answers.size(); ++i) {
    EXPECT_LE(result->answers[i - 1].document_index,
              result->answers[i].document_index);
  }
}

TEST(CollectionEngineTest, EmptyQueryRejected) {
  Collection collection = MakeSmallCollection();
  CollectionEngine engine(collection);
  EXPECT_FALSE(engine.Evaluate(query::Query{}).ok());
}

TEST(CollectionEngineTest, EmptyCollectionYieldsEmptyResult) {
  Collection collection;
  CollectionEngine engine(collection);
  query::Query q;
  q.terms = {"anything"};
  auto result = engine.Evaluate(q);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->answers.empty());
  EXPECT_EQ(result->documents_evaluated, 0u);
}

// Half the documents of a generated library hold both terms.
Collection MakeGeneratedLibrary() {
  Collection collection;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    gen::CorpusProfile profile;
    profile.target_nodes = 300;
    profile.seed = seed;
    gen::RawCorpus raw = gen::GenerateRaw(profile);
    Rng rng(seed ^ 0xc0);
    gen::PlantKeyword(&raw, "kwone", 5, gen::PlantMode::kClustered, &rng);
    if (seed % 2 == 0) {
      gen::PlantKeyword(&raw, "kwtwo", 4, gen::PlantMode::kScattered, &rng);
    }
    auto document = gen::Materialize(raw);
    EXPECT_TRUE(document.ok());
    EXPECT_TRUE(collection
                    .Add("doc" + std::to_string(seed),
                         std::move(document).value())
                    .ok());
  }
  return collection;
}

TEST(CollectionEngineTest, GeneratedLibraryMatchesPerDocumentEngine) {
  Collection collection = MakeGeneratedLibrary();
  query::Query q;
  q.terms = {"kwone", "kwtwo"};
  q.filter = algebra::filters::SizeAtMost(6);
  auto result = CollectionEngine(collection).Evaluate(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->documents_skipped, 4u);
  EXPECT_EQ(result->documents_evaluated, 4u);

  // The collection result is each holding document's own evaluation, in
  // document order, with the metrics summed.
  std::vector<CollectionAnswer> expected;
  algebra::OpMetrics expected_metrics;
  for (size_t i = 0; i < collection.size(); ++i) {
    const CollectionEntry& entry = collection.entry(i);
    if (entry.index.Lookup("kwtwo").empty()) continue;
    auto own = query::QueryEngine(entry.document, entry.index).Evaluate(q);
    ASSERT_TRUE(own.ok());
    expected_metrics.Merge(own->metrics);
    for (const algebra::Fragment& fragment : own->answers.Sorted()) {
      expected.push_back(CollectionAnswer{i, fragment});
    }
  }
  ASSERT_EQ(result->answers.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(result->answers[i].document_index, expected[i].document_index);
    EXPECT_EQ(result->answers[i].fragment, expected[i].fragment);
  }
  EXPECT_TRUE(result->metrics == expected_metrics);
}

TEST(CollectionEngineTest, TopKIsTheBestKAcrossDocuments) {
  Collection collection = MakeGeneratedLibrary();
  query::Query q;
  q.terms = {"kwone", "kwtwo"};
  q.filter = algebra::filters::SizeAtMost(6);
  CollectionEngine engine(collection);
  CollectionEvalOptions all;
  all.per_document.top_k = kRankAll;
  auto ranked = engine.Evaluate(q, all);
  ASSERT_TRUE(ranked.ok());
  ASSERT_GT(ranked->answers.size(), 5u);
  for (size_t i = 1; i < ranked->answers.size(); ++i) {
    EXPECT_GE(ranked->answers[i - 1].score, ranked->answers[i].score);
  }
  // With or without the cross-document floor, top_k 5 is the ranked prefix.
  for (bool floor : {false, true}) {
    CollectionEvalOptions top5;
    top5.per_document.top_k = 5;
    top5.cross_document_floor = floor;
    auto best = engine.Evaluate(q, top5);
    ASSERT_TRUE(best.ok());
    ASSERT_EQ(best->answers.size(), 5u);
    for (size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(best->answers[i].document_index,
                ranked->answers[i].document_index);
      EXPECT_EQ(best->answers[i].fragment, ranked->answers[i].fragment);
      EXPECT_EQ(best->answers[i].score, ranked->answers[i].score);
    }
  }
}

TEST(CollectionEngineTest, FailureStopsAndKeepsThePartialCounts) {
  Collection collection = MakeGeneratedLibrary();
  query::Query q;
  q.terms = {"kwone", "kwtwo"};
  CancelToken cancelled;
  cancelled.Cancel();
  CollectionEvalOptions options;
  options.per_document.executor.cancel = &cancelled;
  CollectionResult partial;
  partial.documents_evaluated = 99;
  auto result = CollectionEngine(collection).Evaluate(q, options, &partial);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  // The first holding document (doc2) failed: doc1 was skipped before it.
  EXPECT_EQ(partial.documents_evaluated, 0u);
  EXPECT_EQ(partial.documents_skipped, 1u);
}

TEST(CollectionEngineTest, PaperDocumentInACollection) {
  Collection collection;
  auto paper = gen::BuildPaperDocument();
  ASSERT_TRUE(paper.ok());
  ASSERT_TRUE(collection.Add("figure1.xml", std::move(paper).value()).ok());
  ASSERT_TRUE(
      collection.AddXml("other.xml", "<doc><par>nothing relevant</par></doc>")
          .ok());

  CollectionEngine engine(collection);
  query::Query q;
  q.terms = {"xquery", "optimization"};
  q.filter = algebra::filters::SizeAtMost(3);
  auto result = engine.Evaluate(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->documents_evaluated, 1u);
  EXPECT_EQ(result->documents_skipped, 1u);
  ASSERT_EQ(result->answers.size(), 4u);
  for (const auto& answer : result->answers) {
    EXPECT_EQ(collection.entry(answer.document_index).name, "figure1.xml");
  }
}

}  // namespace
}  // namespace xfrag::collection

// Collection-level DAG compression: byte-identical member documents share a
// root class, the engine evaluates one representative per class and replays
// its outcome, and answers/metrics are identical with the optimization off.

#include <gtest/gtest.h>

#include "collection/collection_engine.h"
#include "gen/corpus.h"

namespace xfrag::collection {
namespace {

// Four documents, two byte-identical pairs plus nothing unique: classes
// {A, A, B, B}.
Collection MakeDuplicatedCollection() {
  Collection collection;
  const char* kDocA =
      "<doc><sec><par>apples and oranges</par><par>oranges too</par></sec>"
      "<par>filler</par></doc>";
  const char* kDocB =
      "<doc><sec>apples<par>oranges here</par></sec></doc>";
  EXPECT_TRUE(collection.AddXml("a0.xml", kDocA).ok());
  EXPECT_TRUE(collection.AddXml("b0.xml", kDocB).ok());
  EXPECT_TRUE(collection.AddXml("a1.xml", kDocA).ok());
  EXPECT_TRUE(collection.AddXml("b1.xml", kDocB).ok());
  return collection;
}

TEST(CollectionDagTest, IdenticalDocumentsShareARootClass) {
  Collection collection = MakeDuplicatedCollection();
  EXPECT_EQ(collection.entry(0).classes.root_class(),
            collection.entry(2).classes.root_class());
  EXPECT_EQ(collection.entry(1).classes.root_class(),
            collection.entry(3).classes.root_class());
  EXPECT_NE(collection.entry(0).classes.root_class(),
            collection.entry(1).classes.root_class());
  // Every member shares its root class with another: all may replay.
  for (size_t i = 0; i < collection.size(); ++i) {
    EXPECT_TRUE(collection.entry(i).root_class_shared) << i;
  }
  EXPECT_EQ(collection.DistinctDocuments(), 2u);
  // The shared interner has seen every document.
  EXPECT_GT(collection.subtree_classes().size(), 0u);
  EXPECT_EQ(collection.subtree_classes().occurrences(
                collection.entry(0).classes.root_class()),
            2u);
}

TEST(CollectionDagTest, EngineDeduplicatesAndStaysIdentical) {
  Collection collection = MakeDuplicatedCollection();
  CollectionEngine engine(collection);
  query::Query q;
  q.terms = {"apples", "oranges"};

  auto compressed = engine.Evaluate(q);
  ASSERT_TRUE(compressed.ok()) << compressed.status().ToString();
  // One representative evaluated per class; the other member replayed.
  EXPECT_EQ(compressed->documents_deduplicated, 2u);

  CollectionEvalOptions off;
  off.dag_compression = false;
  auto baseline = engine.Evaluate(q, off);
  ASSERT_TRUE(baseline.ok());
  EXPECT_EQ(baseline->documents_deduplicated, 0u);

  // Same answers with the same provenance, in the same order, and identical
  // aggregated logical metrics.
  ASSERT_EQ(baseline->answers.size(), compressed->answers.size());
  for (size_t i = 0; i < baseline->answers.size(); ++i) {
    EXPECT_EQ(baseline->answers[i].document_index,
              compressed->answers[i].document_index);
    EXPECT_EQ(baseline->answers[i].fragment, compressed->answers[i].fragment);
  }
  EXPECT_EQ(baseline->documents_evaluated, compressed->documents_evaluated);
  EXPECT_EQ(baseline->documents_skipped, compressed->documents_skipped);
  EXPECT_TRUE(baseline->metrics == compressed->metrics);
}

TEST(CollectionDagTest, DuplicateFreeCollectionNeverDeduplicates) {
  Collection collection;
  ASSERT_TRUE(
      collection.AddXml("x.xml", "<doc><par>apples one</par></doc>").ok());
  ASSERT_TRUE(
      collection.AddXml("y.xml", "<doc><par>apples two</par></doc>").ok());
  CollectionEngine engine(collection);
  query::Query q;
  q.terms = {"apples"};
  EXPECT_FALSE(collection.entry(0).root_class_shared);
  EXPECT_FALSE(collection.entry(1).root_class_shared);
  auto result = engine.Evaluate(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->documents_deduplicated, 0u);
  EXPECT_EQ(result->documents_evaluated, 2u);
}

}  // namespace
}  // namespace xfrag::collection

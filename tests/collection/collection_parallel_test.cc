// Collection evaluation fanned out over a thread pool: answers, metrics, and
// provenance are identical for every parallelism.

#include <gtest/gtest.h>

#include <string>

#include "collection/collection_engine.h"
#include "gen/corpus.h"

namespace xfrag::collection {
namespace {

// A corpus of generated documents with both keywords planted in each.
Collection MakeGeneratedCollection(size_t documents, uint64_t seed) {
  Collection collection;
  for (size_t i = 0; i < documents; ++i) {
    gen::CorpusProfile profile;
    profile.target_nodes = 120;
    profile.seed = seed + i;
    gen::RawCorpus raw = gen::GenerateRaw(profile);
    Rng rng(seed ^ (i * 1315423911ull));
    gen::PlantKeyword(&raw, "kwone", 4, gen::PlantMode::kClustered, &rng);
    gen::PlantKeyword(&raw, "kwtwo", 3, gen::PlantMode::kScattered, &rng);
    auto document = gen::Materialize(raw);
    EXPECT_TRUE(document.ok());
    EXPECT_TRUE(collection
                    .Add("doc" + std::to_string(i),
                         std::move(document).value())
                    .ok());
  }
  return collection;
}

void ExpectSameResults(const CollectionResult& a, const CollectionResult& b) {
  EXPECT_EQ(a.documents_evaluated, b.documents_evaluated);
  EXPECT_EQ(a.documents_skipped, b.documents_skipped);
  EXPECT_TRUE(a.metrics == b.metrics);
  ASSERT_EQ(a.answers.size(), b.answers.size());
  for (size_t i = 0; i < a.answers.size(); ++i) {
    EXPECT_EQ(a.answers[i].document_index, b.answers[i].document_index);
    EXPECT_EQ(a.answers[i].document_name, b.answers[i].document_name);
    EXPECT_EQ(a.answers[i].fragment, b.answers[i].fragment);
  }
}

TEST(CollectionParallelTest, ResultsIdenticalAcrossParallelism) {
  Collection collection = MakeGeneratedCollection(9, 51);
  CollectionEngine engine(collection);
  query::Query q;
  q.terms = {"kwone", "kwtwo"};

  CollectionEvalOptions serial;
  serial.parallelism = 1;
  auto reference = engine.Evaluate(q, serial);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_GT(reference->documents_evaluated, 0u);

  for (unsigned parallelism : {2u, 4u, 8u}) {
    CollectionEvalOptions options;
    options.parallelism = parallelism;
    auto result = engine.Evaluate(q, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSameResults(*reference, *result);
  }
}

}  // namespace
}  // namespace xfrag::collection

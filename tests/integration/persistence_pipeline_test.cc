// Cross-module pipeline: corpus → XML text → parse → index → persist →
// reload → collection → query. Every stage must preserve query answers.

#include <gtest/gtest.h>

#include <cstdio>

#include "../testutil.h"
#include "collection/collection_engine.h"
#include "gen/corpus.h"
#include "query/engine.h"
#include "storage/storage.h"
#include "xml/parser.h"

namespace xfrag {
namespace {

TEST(PersistencePipelineTest, AnswersSurviveEveryRepresentation) {
  // Build a corpus with planted keywords.
  gen::CorpusProfile profile;
  profile.target_nodes = 500;
  profile.seed = 4242;
  gen::RawCorpus raw = gen::GenerateRaw(profile);
  Rng rng(4243);
  gen::PlantKeyword(&raw, "kwone", 6, gen::PlantMode::kClustered, &rng);
  gen::PlantKeyword(&raw, "kwtwo", 5, gen::PlantMode::kScattered, &rng);

  query::Query q;
  q.terms = {"kwone", "kwtwo"};
  q.filter = algebra::filters::SizeAtMost(6);

  // Path A: direct materialization.
  auto direct = gen::Materialize(raw);
  ASSERT_TRUE(direct.ok());
  auto direct_index = text::InvertedIndex::Build(*direct);
  query::QueryEngine direct_engine(*direct, direct_index);
  auto direct_result = direct_engine.Evaluate(q);
  ASSERT_TRUE(direct_result.ok());

  // Path B: through XML text.
  auto dom = xml::Parse(gen::ToXml(raw));
  ASSERT_TRUE(dom.ok());
  auto parsed = doc::Document::FromDom(*dom);
  ASSERT_TRUE(parsed.ok());
  auto parsed_index = text::InvertedIndex::Build(*parsed);
  query::QueryEngine parsed_engine(*parsed, parsed_index);
  auto parsed_result = parsed_engine.Evaluate(q);
  ASSERT_TRUE(parsed_result.ok());
  EXPECT_TRUE(parsed_result->answers.SetEquals(direct_result->answers));

  // Path C: through a persisted bundle.
  std::string path = testutil::ProcessTempDir() + "/xfrag_pipeline_test.xdb";
  ASSERT_TRUE(storage::SaveBundleToFile(path, *direct, &direct_index).ok());
  auto bundle = storage::LoadBundleFromFile(path);
  ASSERT_TRUE(bundle.ok());
  ASSERT_TRUE(bundle->index.has_value());
  query::QueryEngine bundle_engine(bundle->document, *bundle->index);
  auto bundle_result = bundle_engine.Evaluate(q);
  ASSERT_TRUE(bundle_result.ok());
  EXPECT_TRUE(bundle_result->answers.SetEquals(direct_result->answers));
  std::remove(path.c_str());

  // Path D: through a collection (single member).
  collection::Collection library;
  ASSERT_TRUE(library.Add("only", std::move(*direct)).ok());
  collection::CollectionEngine collection_engine(library);
  auto collection_result = collection_engine.Evaluate(q);
  ASSERT_TRUE(collection_result.ok());
  algebra::FragmentSet collection_answers;
  for (const auto& answer : collection_result->answers) {
    collection_answers.Insert(answer.fragment);
  }
  EXPECT_TRUE(collection_answers.SetEquals(direct_result->answers));
}

TEST(PersistencePipelineTest, RebuiltIndexMatchesPersistedIndex) {
  gen::CorpusProfile profile;
  profile.target_nodes = 300;
  profile.seed = 777;
  gen::RawCorpus raw = gen::GenerateRaw(profile);
  auto document = gen::Materialize(raw);
  ASSERT_TRUE(document.ok());
  auto index = text::InvertedIndex::Build(*document);

  std::string data = storage::WriteBundle(*document, &index);
  auto bundle = storage::ReadBundle(data);
  ASSERT_TRUE(bundle.ok());
  ASSERT_TRUE(bundle->index.has_value());

  // An index rebuilt from the reloaded document equals the persisted one.
  auto rebuilt = text::InvertedIndex::Build(bundle->document);
  EXPECT_EQ(rebuilt.term_count(), bundle->index->term_count());
  EXPECT_EQ(rebuilt.posting_count(), bundle->index->posting_count());
  for (const auto& term : rebuilt.Terms()) {
    EXPECT_EQ(rebuilt.Lookup(term), bundle->index->Lookup(term)) << term;
  }
}

}  // namespace
}  // namespace xfrag

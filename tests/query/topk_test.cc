// The engine-level top-k contract (EvalOptions::top_k): for every k, every
// strategy, and every answer mode, Evaluate returns exactly the
// length-min(k, |A|) prefix of RankAnswers over the full answer set — same
// fragments, bit-identical scores, ties broken by canonical fragment order.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "query/engine.h"
#include "query/ranking.h"
#include "xml/parser.h"

namespace xfrag::query {
namespace {

struct Fixture {
  std::unique_ptr<doc::Document> document;
  std::unique_ptr<text::InvertedIndex> index;
  std::unique_ptr<QueryEngine> engine;

  static Fixture FromXml(std::string_view xml_text) {
    Fixture fixture;
    auto dom = xml::Parse(xml_text);
    EXPECT_TRUE(dom.ok());
    auto d = doc::Document::FromDom(*dom);
    EXPECT_TRUE(d.ok());
    fixture.document = std::make_unique<doc::Document>(std::move(d).value());
    fixture.index = std::make_unique<text::InvertedIndex>(
        text::InvertedIndex::Build(*fixture.document));
    fixture.engine =
        std::make_unique<QueryEngine>(*fixture.document, *fixture.index);
    return fixture;
  }
};

// A document with a rich answer set: both terms scattered at several depths
// so joins of different shapes (and scores) all qualify.
constexpr const char* kDoc = R"(
  <lib>
    <shelf>
      <book>alpha beta</book>
      <book>alpha</book>
      <book>beta</book>
    </shelf>
    <shelf>
      <book>alpha<note>beta</note></book>
      <crate><box>alpha</box><box>beta beta</box></crate>
    </shelf>
    <attic>alpha beta alpha</attic>
  </lib>)";

// Many identical single-node answers: every score ties, so the prefix is
// decided purely by canonical fragment order.
constexpr const char* kTieDoc = R"(
  <r>
    <a>alpha beta</a><a>alpha beta</a><a>alpha beta</a>
    <a>alpha beta</a><a>alpha beta</a><a>alpha beta</a>
  </r>)";

std::vector<RankedAnswer> FullReference(const Fixture& f, const Query& q,
                                        EvalOptions options) {
  options.top_k = -1;
  auto result = f.engine->Evaluate(q, options);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return RankAnswers(result->answers, q.terms, *f.document, *f.index,
                     options.ranking);
}

void ExpectPrefix(const Fixture& f, const Query& q, const EvalOptions& options,
                  size_t k, const char* what) {
  std::vector<RankedAnswer> reference = FullReference(f, q, options);
  EvalOptions topk = options;
  topk.top_k = static_cast<int64_t>(k);
  auto result = f.engine->Evaluate(q, topk);
  ASSERT_TRUE(result.ok()) << what << ": " << result.status().ToString();
  const size_t expect = std::min(k, reference.size());
  ASSERT_EQ(result->ranked.size(), expect) << what << " k=" << k;
  for (size_t i = 0; i < expect; ++i) {
    EXPECT_EQ(result->ranked[i].fragment, reference[i].fragment)
        << what << " k=" << k << " position " << i;
    EXPECT_EQ(result->ranked[i].score, reference[i].score)
        << what << " k=" << k << " position " << i;
  }
  // The answer set mirrors the ranked prefix.
  EXPECT_EQ(result->answers.size(), expect) << what;
  for (size_t i = 0; i < expect; ++i) {
    EXPECT_TRUE(result->answers.Contains(result->ranked[i].fragment)) << what;
  }
}

TEST(TopKEngineTest, PrefixEquivalenceForEveryK) {
  Fixture f = Fixture::FromXml(kDoc);
  Query q;
  q.terms = {"alpha", "beta"};
  EvalOptions options;
  const size_t all = FullReference(f, q, options).size();
  ASSERT_GT(all, 3u);
  for (size_t k : {size_t{0}, size_t{1}, size_t{2}, size_t{3}, all, all + 5}) {
    ExpectPrefix(f, q, options, k, "default strategy");
  }
}

TEST(TopKEngineTest, PrefixEquivalenceAcrossStrategies) {
  Fixture f = Fixture::FromXml(kDoc);
  Query q;
  q.terms = {"alpha", "beta"};
  auto filter = ParseFilterExpression("size<=4");
  ASSERT_TRUE(filter.ok());
  q.filter = *filter;
  for (Strategy strategy :
       {Strategy::kBruteForce, Strategy::kFixedPointNaive,
        Strategy::kFixedPointReduced, Strategy::kPushDown, Strategy::kAuto}) {
    EvalOptions options;
    options.strategy = strategy;
    for (size_t k : {size_t{1}, size_t{4}, size_t{100}}) {
      ExpectPrefix(f, q, options, k,
                   ("strategy " + std::to_string(static_cast<int>(strategy)))
                       .c_str());
    }
  }
}

TEST(TopKEngineTest, PrefixEquivalenceUnderLeafStrictMode) {
  Fixture f = Fixture::FromXml(kDoc);
  Query q;
  q.terms = {"alpha", "beta"};
  EvalOptions options;
  options.strategy = Strategy::kPushDown;
  options.answer_mode = AnswerMode::kLeafStrict;
  // The reference path must apply the same mode: compare against the
  // leaf-strict full evaluation.
  options.top_k = -1;
  auto full = f.engine->Evaluate(q, options);
  ASSERT_TRUE(full.ok());
  auto reference =
      RankAnswers(full->answers, q.terms, *f.document, *f.index);
  ASSERT_FALSE(reference.empty());
  for (size_t k : {size_t{1}, size_t{2}, reference.size()}) {
    EvalOptions topk = options;
    topk.top_k = static_cast<int64_t>(k);
    auto result = f.engine->Evaluate(q, topk);
    ASSERT_TRUE(result.ok());
    const size_t expect = std::min(k, reference.size());
    ASSERT_EQ(result->ranked.size(), expect);
    for (size_t i = 0; i < expect; ++i) {
      EXPECT_EQ(result->ranked[i].fragment, reference[i].fragment);
      EXPECT_EQ(result->ranked[i].score, reference[i].score);
    }
  }
}

TEST(TopKEngineTest, TieHeavyPrefixFollowsCanonicalOrder) {
  Fixture f = Fixture::FromXml(kTieDoc);
  Query q;
  q.terms = {"alpha", "beta"};
  EvalOptions options;
  options.strategy = Strategy::kPushDown;
  auto filter = ParseFilterExpression("size<=1");
  ASSERT_TRUE(filter.ok());
  q.filter = *filter;
  std::vector<RankedAnswer> reference = FullReference(f, q, options);
  ASSERT_EQ(reference.size(), 6u);
  for (size_t i = 1; i < reference.size(); ++i) {
    // All six singles tie on score...
    ASSERT_EQ(reference[i].score, reference[0].score);
    // ...so the order is the canonical fragment order.
    ASSERT_TRUE(reference[i - 1].fragment < reference[i].fragment);
  }
  for (size_t k : {size_t{1}, size_t{3}, size_t{5}}) {
    ExpectPrefix(f, q, options, k, "tie-heavy");
  }
}

TEST(TopKEngineTest, RankingOptionsFlowThroughTheBoundedPath) {
  Fixture f = Fixture::FromXml(kDoc);
  Query q;
  q.terms = {"alpha", "beta"};
  EvalOptions options;
  options.strategy = Strategy::kPushDown;
  options.ranking.size_penalty = 0.0;  // no normalization: big joins win
  const size_t all = FullReference(f, q, options).size();
  for (size_t k : {size_t{1}, size_t{3}, all}) {
    ExpectPrefix(f, q, options, k, "size_penalty=0");
  }
}

TEST(TopKEngineTest, MissingTermYieldsEmptyRankedResult) {
  Fixture f = Fixture::FromXml(kDoc);
  Query q;
  q.terms = {"alpha", "nosuchterm"};
  EvalOptions options;
  options.top_k = 3;
  auto result = f.engine->Evaluate(q, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ranked.empty());
  EXPECT_TRUE(result->answers.empty());
}

}  // namespace
}  // namespace xfrag::query

// Batched evaluation (query/batch.h): items evaluated through one ScanMemo
// per term-connected group (ExecutorOptions::scan_memo, as the server's
// batch handler does) must be byte-identical per item — answers, insertion
// order, and every deterministic metric — to evaluating the same queries
// one by one, while the memo actually shares work inside the group. Also
// covers the union-find grouping (disjoint terms → separate groups,
// transitive sharing and case folding → one group) and the memo key.

#include "query/batch.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "query/engine.h"
#include "text/inverted_index.h"
#include "xml/parser.h"

namespace xfrag::query {
namespace {

class BatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto dom = xml::Parse(R"(
      <book>
        <chapter>alpha
          <section>beta gamma
            <par>alpha delta</par>
            <par>beta</par>
          </section>
          <section>delta
            <par>gamma</par>
          </section>
        </chapter>
        <chapter>epsilon
          <par>alpha epsilon</par>
        </chapter>
      </book>)");
    ASSERT_TRUE(dom.ok()) << dom.status().ToString();
    auto d = doc::Document::FromDom(*dom);
    ASSERT_TRUE(d.ok());
    document_ = std::make_unique<doc::Document>(std::move(d).value());
    index_ = std::make_unique<text::InvertedIndex>(
        text::InvertedIndex::Build(*document_, {}));
    engine_ = std::make_unique<QueryEngine>(*document_, *index_);
  }

  static Query MakeQuery(std::vector<std::string> terms) {
    Query q;
    q.terms = std::move(terms);
    return q;
  }

  // Evaluates `queries` group by group, in submission order inside each
  // group, with one ScanMemo per group. Adds the memo hits to
  // `*subplans_shared` and returns one result per query.
  std::vector<StatusOr<EvalResult>> EvaluateSharingScans(
      const std::vector<const Query*>& queries, const EvalOptions& options,
      const std::vector<std::vector<size_t>>& groups,
      uint64_t* subplans_shared) const {
    std::vector<StatusOr<EvalResult>> results;
    for (size_t i = 0; i < queries.size(); ++i) {
      results.push_back(Status::Internal("unevaluated"));
    }
    for (const std::vector<size_t>& members : groups) {
      ScanMemo memo;
      for (size_t member : members) {
        EvalOptions shared = options;
        shared.executor.scan_memo = &memo;
        shared.executor.scan_memo_document = 0;
        results[member] = engine_->Evaluate(*queries[member], shared);
      }
      *subplans_shared += memo.hits();
    }
    return results;
  }

  // Asserts batch item `batch` is byte-identical to the lone evaluation
  // `alone`: same answers in the same insertion order, same deterministic
  // metrics, same strategy.
  static void ExpectIdentical(const EvalResult& batch,
                              const EvalResult& alone,
                              const std::string& context) {
    ASSERT_EQ(batch.answers.size(), alone.answers.size()) << context;
    for (size_t i = 0; i < batch.answers.size(); ++i) {
      EXPECT_TRUE(batch.answers[i] == alone.answers[i])
          << context << " answer " << i;
    }
    EXPECT_TRUE(batch.metrics == alone.metrics) << context;
    EXPECT_EQ(batch.strategy_used, alone.strategy_used) << context;
  }

  std::unique_ptr<doc::Document> document_;
  std::unique_ptr<text::InvertedIndex> index_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_F(BatchTest, MatchesSequentialEvaluationAcrossStrategiesAndTopK) {
  const Query queries[] = {
      MakeQuery({"alpha"}),
      MakeQuery({"alpha", "beta"}),
      MakeQuery({"gamma", "delta"}),
      MakeQuery({"alpha", "epsilon"}),
      MakeQuery({"alpha", "beta"}),  // exact duplicate of item 1
  };
  const Strategy strategies[] = {Strategy::kFixedPointNaive,
                                 Strategy::kFixedPointReduced,
                                 Strategy::kPushDown};
  for (Strategy strategy : strategies) {
    for (int top_k : {-1, 2}) {
      EvalOptions options;
      options.strategy = strategy;
      options.top_k = top_k;
      std::vector<const Query*> items;
      for (const Query& q : queries) items.push_back(&q);

      const auto groups = GroupQueriesByTerms(items);
      uint64_t subplans_shared = 0;
      auto batched =
          EvaluateSharingScans(items, options, groups, &subplans_shared);
      ASSERT_EQ(batched.size(), items.size());
      for (size_t i = 0; i < items.size(); ++i) {
        auto alone = engine_->Evaluate(queries[i], options);
        ASSERT_TRUE(alone.ok()) << alone.status().ToString();
        ASSERT_TRUE(batched[i].ok()) << batched[i].status().ToString();
        ExpectIdentical(*batched[i], *alone,
                        "strategy " + std::to_string(static_cast<int>(strategy)) +
                            " top_k " + std::to_string(top_k) + " item " +
                            std::to_string(i));
      }
      // "alpha" connects items 0, 1, 3, 4; item 2's {gamma, delta} touches
      // no other item: exactly two groups.
      EXPECT_EQ(groups.size(), 2u);
      // "alpha" is scanned by items 0, 1, 3, 4 and "beta" by 1 and 4: the
      // memo must have answered at least the repeats.
      EXPECT_GT(subplans_shared, 0u);
    }
  }
}

TEST_F(BatchTest, SharedScansAreMemoizedWithinAGroup) {
  const Query a = MakeQuery({"alpha", "beta"});
  const Query b = MakeQuery({"beta", "gamma"});
  std::vector<const Query*> items = {&a, &b};
  const auto groups = GroupQueriesByTerms(items);
  uint64_t subplans_shared = 0;
  auto results =
      EvaluateSharingScans(items, EvalOptions{}, groups, &subplans_shared);
  ASSERT_TRUE(results[0].ok());
  ASSERT_TRUE(results[1].ok());
  EXPECT_EQ(groups.size(), 1u);  // "beta" links the two items
  // Item b's "beta" scan is answered from the memo.
  EXPECT_GE(subplans_shared, 1u);
}

TEST_F(BatchTest, GroupingIsByConnectedComponentsWithCaseFolding) {
  const Query a = MakeQuery({"Alpha"});
  const Query b = MakeQuery({"gamma"});
  const Query c = MakeQuery({"ALPHA", "gamma"});  // links a and b
  const Query d = MakeQuery({"epsilon"});
  std::vector<const Query*> queries = {&a, &b, &c, &d};
  auto groups = GroupQueriesByTerms(queries);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(groups[1], (std::vector<size_t>{3}));
}

TEST_F(BatchTest, ScanMemoKeyFoldsCaseAndSeparatesDocuments) {
  EXPECT_EQ(ScanMemo::Key(3, "AlPhA", "size<=2"),
            ScanMemo::Key(3, "alpha", "size<=2"));
  EXPECT_NE(ScanMemo::Key(3, "alpha", "size<=2"),
            ScanMemo::Key(4, "alpha", "size<=2"));
  EXPECT_NE(ScanMemo::Key(3, "alpha", "size<=2"),
            ScanMemo::Key(3, "alpha", ""));
}

}  // namespace
}  // namespace xfrag::query

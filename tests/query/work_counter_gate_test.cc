// A deterministic work-counter gate for the join kernels. A fixed generated
// corpus (seven levels deep) and a fixed list of two-term size<=3..6 queries,
// each run through the push-down strategy and through top-k, must report
// exactly the committed pairs_considered / pairs_rejected_summary /
// pairs_examined totals, and the root windows (docs/ALGEBRA.md, "Root
// windows") must keep the pairs whose bounds are computed at no more than a
// tenth of the pairs considered. Counters, not wall time: a regression that
// makes the kernels examine more pairs fails here on any machine, under any
// sanitizer.
//
// When a deliberate change to the kernels or the corpus generator moves a
// total, update the constant with the reason in CHANGES.md.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "gen/corpus.h"
#include "query/engine.h"
#include "text/inverted_index.h"

namespace xfrag::query {
namespace {

struct GateCorpus {
  std::unique_ptr<doc::Document> document;
  std::unique_ptr<text::InvertedIndex> index;
};

GateCorpus MakeGateCorpus() {
  gen::CorpusProfile profile;
  profile.target_nodes = 2000;
  profile.max_depth = 7;
  profile.seed = 20261019;
  gen::RawCorpus raw = gen::GenerateRaw(profile);
  Rng rng(1019);
  gen::PlantKeyword(&raw, "gateone", 40, gen::PlantMode::kScattered, &rng);
  gen::PlantKeyword(&raw, "gatetwo", 30, gen::PlantMode::kScattered, &rng);
  auto document = gen::Materialize(raw);
  EXPECT_TRUE(document.ok());
  GateCorpus corpus;
  corpus.document =
      std::make_unique<doc::Document>(std::move(document).value());
  corpus.index = std::make_unique<text::InvertedIndex>(
      text::InvertedIndex::Build(*corpus.document));
  return corpus;
}

// Sums the metrics of every gate query: size<=3..6 over {gateone, gatetwo},
// first unranked through push-down, then ranked with top_k 5.
algebra::OpMetrics RunGateQueries(const GateCorpus& corpus) {
  QueryEngine engine(*corpus.document, *corpus.index);
  algebra::OpMetrics total;
  for (int64_t top_k : {int64_t{-1}, int64_t{5}}) {
    for (uint32_t beta = 3; beta <= 6; ++beta) {
      Query query;
      query.terms = {"gateone", "gatetwo"};
      query.filter = algebra::filters::SizeAtMost(beta);
      EvalOptions options;
      options.strategy = Strategy::kPushDown;
      options.top_k = top_k;
      auto result = engine.Evaluate(query, options);
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      if (result.ok()) total.Merge(result->metrics);
    }
  }
  return total;
}

TEST(WorkCounterGateTest, CommittedPairCountsAndExaminedShare) {
  const GateCorpus corpus = MakeGateCorpus();
  ASSERT_GE(corpus.document->height(), 5u);
  const algebra::OpMetrics total = RunGateQueries(corpus);
  EXPECT_EQ(total.pairs_considered, 69124u);
  EXPECT_EQ(total.pairs_rejected_summary, 63144u);
  EXPECT_EQ(total.pairs_examined, 6213u);
  EXPECT_LE(total.pairs_examined, total.pairs_considered / 10)
      << "root windows let " << total.pairs_examined << " of "
      << total.pairs_considered << " pairs reach their join bounds";
}

}  // namespace
}  // namespace xfrag::query

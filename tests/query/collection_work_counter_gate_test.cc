// A deterministic work-counter gate for the collection evaluation loop. A
// fixed eight-document collection — four generated templates, three of them
// repeated, one missing a query term — answers a fixed list of two-term
// size<=3..6 queries through QueryService::HandleQuery, once unranked and
// once with top_k 5. The totals of the join counters, the documents
// evaluated / skipped / deduplicated and the bytes of the rendered "answers"
// arrays must match the committed constants. Byte-identity oracles cannot
// see work that was done but not needed: losing the cross-document
// score-floor seed or the document-class dedup leaves every body's answers
// unchanged and fails here.
//
// When a deliberate change to the kernels, the collection loop or the
// corpus generator moves a total, update the constant with the reason in
// CHANGES.md.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "collection/collection.h"
#include "common/json.h"
#include "common/strings.h"
#include "gen/corpus.h"
#include "server/service.h"

namespace xfrag::query {
namespace {

// Template t is generated from its own seed; template 3 carries only
// "gateone", so every document built from it is skipped by the term
// pre-check.
gen::RawCorpus MakeTemplate(uint64_t t) {
  gen::CorpusProfile profile;
  profile.target_nodes = 600;
  profile.max_depth = 6;
  profile.seed = 20261020 + t;
  gen::RawCorpus raw = gen::GenerateRaw(profile);
  Rng rng(1020 + t);
  gen::PlantKeyword(&raw, "gateone", 14, gen::PlantMode::kScattered, &rng);
  if (t != 3) {
    gen::PlantKeyword(&raw, "gatetwo", 10, gen::PlantMode::kClustered, &rng);
  }
  return raw;
}

collection::Collection MakeGateCollection() {
  std::vector<gen::RawCorpus> templates;
  for (uint64_t t = 0; t < 4; ++t) templates.push_back(MakeTemplate(t));
  collection::Collection collection;
  const size_t kLayout[] = {0, 1, 0, 2, 1, 0, 3, 2};
  for (size_t i = 0; i < std::size(kLayout); ++i) {
    auto document = gen::Materialize(templates[kLayout[i]]);
    EXPECT_TRUE(document.ok());
    EXPECT_TRUE(collection
                    .Add(StrFormat("gate%zu.xml", i),
                         std::move(document).value())
                    .ok());
  }
  return collection;
}

struct GateTotals {
  uint64_t fragment_joins = 0;
  uint64_t pairs_considered = 0;
  uint64_t pairs_examined = 0;
  uint64_t documents_evaluated = 0;
  uint64_t documents_skipped = 0;
  uint64_t documents_deduplicated = 0;
  uint64_t answer_bytes = 0;
};

// Runs the gate queries through one fresh service, with `extra` (e.g.
// ,"top_k":5) appended to every request body.
GateTotals RunGateQueries(const collection::Collection& collection,
                          const std::string& extra) {
  server::QueryService service(collection);
  GateTotals totals;
  for (int beta = 3; beta <= 6; ++beta) {
    const std::string body = StrFormat(
        R"({"terms":["gateone","gatetwo"],"filter":"size<=%d",)"
        R"("strategy":"pushdown"%s})",
        beta, extra.c_str());
    server::QueryOutcome outcome = service.HandleQuery(body);
    EXPECT_EQ(outcome.http_status, 200) << body << "\n" << outcome.body.Dump();
    totals.fragment_joins += outcome.metrics.fragment_joins;
    totals.pairs_considered += outcome.metrics.pairs_considered;
    totals.pairs_examined += outcome.metrics.pairs_examined;
    totals.documents_evaluated +=
        outcome.body.Find("documents_evaluated")->AsInt();
    totals.documents_skipped += outcome.body.Find("documents_skipped")->AsInt();
    totals.answer_bytes += outcome.body.Find("answers")->Dump().size();
  }
  totals.documents_deduplicated =
      service.DagStatsJson().Find("documents_deduplicated")->AsInt();
  return totals;
}

TEST(CollectionWorkCounterGateTest, CommittedTotalsUnranked) {
  const collection::Collection collection = MakeGateCollection();
  const GateTotals totals = RunGateQueries(collection, "");
  EXPECT_EQ(totals.fragment_joins, 100621u);
  EXPECT_EQ(totals.pairs_considered, 100621u);
  EXPECT_EQ(totals.pairs_examined, 57962u);
  EXPECT_EQ(totals.documents_evaluated, 28u);
  EXPECT_EQ(totals.documents_skipped, 4u);
  EXPECT_EQ(totals.documents_deduplicated, 16u);
  EXPECT_EQ(totals.answer_bytes, 86760u);
}

TEST(CollectionWorkCounterGateTest, CommittedTotalsTopK) {
  const collection::Collection collection = MakeGateCollection();
  const GateTotals totals = RunGateQueries(collection, R"(,"top_k":5)");
  EXPECT_EQ(totals.fragment_joins, 83751u);
  EXPECT_EQ(totals.pairs_considered, 100621u);
  EXPECT_EQ(totals.pairs_examined, 54464u);
  EXPECT_EQ(totals.documents_evaluated, 28u);
  EXPECT_EQ(totals.documents_skipped, 4u);
  EXPECT_EQ(totals.documents_deduplicated, 16u);
  EXPECT_EQ(totals.answer_bytes, 2824u);
}

}  // namespace
}  // namespace xfrag::query

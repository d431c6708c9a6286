// The DAG-compression contract (docs/ALGEBRA.md, "DAG-compressed
// evaluation"): for every corpus — duplicated or not — the class-aware
// kernels return results bit-identical to the baseline and accumulate
// exactly the same *logical* OpMetrics, across strategies, top-k values,
// and tie-heavy (heavily duplicated) inputs.
// Property-tested over seeded stamped corpora (gen::StampDuplicateSubtrees),
// with the summary prefilter both on and off.
// Runs under ASan and TSan via `ctest -L parallel` (scripts/check.sh).

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "algebra/ops.h"
#include "doc/subtree_classes.h"
#include "gen/corpus.h"
#include "query/engine.h"
#include "query/ranking.h"

namespace xfrag::algebra {
namespace {

// Restores the summary-prefilter switch whatever path exits the test: replay
// must reproduce the kernels' results and logical counters on both the
// prefiltered and the plain path.
struct PrefilterSwitchGuard {
  explicit PrefilterSwitchGuard(bool enabled) {
    SetSummaryPrefilterEnabled(enabled);
  }
  ~PrefilterSwitchGuard() { SetSummaryPrefilterEnabled(true); }
};

// A stamped corpus with its subtree-class index and the two keywords'
// posting lists. Keywords are planted *before* stamping so duplicated
// subtrees carry them (the replay path gets exercised, not just bypassed),
// then topped up afterwards so neither posting list can come out empty.
struct StampedInput {
  std::unique_ptr<doc::Document> document;
  std::unique_ptr<text::InvertedIndex> index;
  std::unique_ptr<doc::SubtreeClassInterner> interner;
  std::unique_ptr<doc::SubtreeClassIndex> classes;
  FragmentSet set1;
  FragmentSet set2;
};

FragmentSet Singles(const std::vector<doc::NodeId>& nodes) {
  FragmentSet out;
  for (doc::NodeId n : nodes) out.Insert(Fragment::Single(n));
  return out;
}

StampedInput MakeStampedInput(uint64_t seed, double duplication) {
  gen::CorpusProfile profile;
  profile.target_nodes = 400;
  profile.seed = seed;
  gen::RawCorpus raw = gen::GenerateRaw(profile);
  Rng rng(seed ^ 0xDA61ULL);
  gen::PlantKeyword(&raw, "kwone", 20, gen::PlantMode::kScattered, &rng);
  gen::PlantKeyword(&raw, "kwtwo", 16, gen::PlantMode::kScattered, &rng);
  if (duplication > 0.0) {
    gen::StampDuplicateSubtrees(&raw, duplication, &rng);
  }
  // Stamping re-emits the tree, so occurrences may have multiplied (donor
  // carried them) or vanished (a replaced sibling did); re-plant a floor.
  gen::PlantKeyword(&raw, "kwone", 8, gen::PlantMode::kScattered, &rng);
  gen::PlantKeyword(&raw, "kwtwo", 8, gen::PlantMode::kScattered, &rng);

  StampedInput input;
  auto document = gen::Materialize(raw);
  EXPECT_TRUE(document.ok());
  input.document =
      std::make_unique<doc::Document>(std::move(document).value());
  input.index = std::make_unique<text::InvertedIndex>(
      text::InvertedIndex::Build(*input.document));
  input.interner = std::make_unique<doc::SubtreeClassInterner>();
  input.classes = std::make_unique<doc::SubtreeClassIndex>(
      doc::SubtreeClassIndex::Build(*input.document, input.interner.get()));
  input.set1 = Singles(input.index->Lookup("kwone"));
  input.set2 = Singles(input.index->Lookup("kwtwo"));
  EXPECT_FALSE(input.set1.empty());
  EXPECT_FALSE(input.set2.empty());
  if (duplication >= 0.5) {
    EXPECT_TRUE(input.classes->has_duplication());
  }
  return input;
}

void ExpectIdenticalSets(const FragmentSet& baseline, const FragmentSet& dag) {
  ASSERT_EQ(baseline.size(), dag.size());
  for (size_t i = 0; i < baseline.size(); ++i) {
    ASSERT_EQ(baseline[i], dag[i])
        << "divergence at position " << i << ": baseline "
        << baseline[i].ToString() << " vs dag " << dag[i].ToString();
  }
}

// Every logical counter must be invariant under compression — replays
// advance them by the exact deltas of the evaluation they avoided. The dag
// counters themselves (and the other physical ones) are mode-dependent by
// design, which operator== already encodes.
void ExpectInvariantLogicalMetrics(const OpMetrics& baseline,
                                   const OpMetrics& dag) {
  EXPECT_EQ(baseline.fragment_joins, dag.fragment_joins);
  EXPECT_EQ(baseline.filter_evals, dag.filter_evals);
  EXPECT_EQ(baseline.filter_rejections, dag.filter_rejections);
  EXPECT_EQ(baseline.fixed_point_iterations, dag.fixed_point_iterations);
  EXPECT_EQ(baseline.fragments_produced, dag.fragments_produced);
  EXPECT_EQ(baseline.pairs_considered, dag.pairs_considered);
  EXPECT_EQ(baseline.pairs_rejected_summary, dag.pairs_rejected_summary);
  EXPECT_TRUE(baseline == dag);
}

// (seed, duplication rate, summary prefilter on).
class DagEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, double, bool>> {
 protected:
  void SetUp() override {
    prefilter_ = std::make_unique<PrefilterSwitchGuard>(prefilter());
  }
  void TearDown() override { prefilter_.reset(); }

  uint64_t seed() const { return std::get<0>(GetParam()); }
  double duplication() const { return std::get<1>(GetParam()); }
  bool prefilter() const { return std::get<2>(GetParam()); }

 private:
  std::unique_ptr<PrefilterSwitchGuard> prefilter_;
};

TEST_P(DagEquivalenceTest, PairwiseJoinFiltered) {
  StampedInput input = MakeStampedInput(seed(), duplication());
  FilterPtr filter = filters::SizeAtMost(5);
  FilterContext context{input.document.get(), input.index.get()};
  OpMetrics baseline_metrics, serial_metrics;
  FragmentSet baseline =
      PairwiseJoinFiltered(*input.document, input.set1, input.set2, filter,
                           context, &baseline_metrics, /*dag=*/nullptr);
  FragmentSet serial_dag =
      PairwiseJoinFiltered(*input.document, input.set1, input.set2, filter,
                           context, &serial_metrics, input.classes.get());
  ExpectIdenticalSets(baseline, serial_dag);
  ExpectInvariantLogicalMetrics(baseline_metrics, serial_metrics);
  if (!prefilter()) {
    EXPECT_EQ(serial_metrics.pairs_rejected_summary, 0u);
  }
}

TEST_P(DagEquivalenceTest, SelectAndFixedPointFiltered) {
  StampedInput input = MakeStampedInput(seed(), duplication());
  FilterPtr filter = filters::SizeAtMost(6);
  FilterContext context{input.document.get(), input.index.get()};

  OpMetrics select_base, select_dag;
  FragmentSet selected_base = Select(input.set1, filter, context, &select_base,
                                     /*dag=*/nullptr);
  FragmentSet selected_dag =
      Select(input.set1, filter, context, &select_dag, input.classes.get());
  ExpectIdenticalSets(selected_base, selected_dag);
  ExpectInvariantLogicalMetrics(select_base, select_dag);

  OpMetrics fp_base, fp_serial;
  FragmentSet fixed_base =
      FixedPointFiltered(*input.document, input.set1, filter, context,
                         &fp_base, /*cancel=*/nullptr, /*dag=*/nullptr);
  FragmentSet fixed_serial =
      FixedPointFiltered(*input.document, input.set1, filter, context,
                         &fp_serial, /*cancel=*/nullptr, input.classes.get());
  ExpectIdenticalSets(fixed_base, fixed_serial);
  ExpectInvariantLogicalMetrics(fp_base, fp_serial);
}

TEST_P(DagEquivalenceTest, TopKBitIdenticalAcrossKValues) {
  StampedInput input = MakeStampedInput(seed(), duplication());
  FilterPtr filter = filters::SizeAtMost(5);
  FilterContext context{input.document.get(), input.index.get()};
  query::AnswerScorer scorer({"kwone", "kwtwo"}, *input.document,
                             *input.index);
  // Heavily duplicated corpora are tie-heavy by construction (isomorphic
  // copies score identically), so small k exercises the deterministic
  // tie-break under replay.
  for (size_t k : {size_t{1}, size_t{3}, size_t{8}, size_t{1000}}) {
    TopKCollector baseline_collector(k);
    PairwiseJoinTopK(*input.document, input.set1, input.set2, filter, context,
                     scorer, {}, &baseline_collector, /*metrics=*/nullptr,
                     /*cancel=*/nullptr, /*dag=*/nullptr);
    TopKCollector serial_collector(k);
    PairwiseJoinTopK(*input.document, input.set1, input.set2, filter, context,
                     scorer, {}, &serial_collector, /*metrics=*/nullptr,
                     /*cancel=*/nullptr, input.classes.get());
    auto baseline = baseline_collector.TakeSorted();
    auto serial = serial_collector.TakeSorted();
    ASSERT_EQ(baseline.size(), serial.size()) << "k=" << k;
    for (size_t i = 0; i < baseline.size(); ++i) {
      // Bit-identical: same fragments, same doubles, same order.
      ASSERT_EQ(baseline[i].fragment, serial[i].fragment)
          << "k=" << k << " position " << i;
      ASSERT_EQ(baseline[i].score, serial[i].score)
          << "k=" << k << " position " << i;
    }
  }
}

// Engine-wiring input: planted *after* stamping, so posting lists keep the
// small exact sizes the unfiltered naive fixed point can afford (stamping
// first would multiply pre-planted occurrences corpus-dependently — the
// closure is exponential in the posting-list size). Duplication elsewhere
// in the corpus still arms the class index and the `dag:` EXPLAIN line;
// replay depth itself is exercised by the kernel-level tests above.
StampedInput MakeEngineInput(uint64_t seed, double duplication) {
  gen::CorpusProfile profile;
  profile.target_nodes = 400;
  profile.seed = seed;
  gen::RawCorpus raw = gen::GenerateRaw(profile);
  Rng rng(seed ^ 0xE46ULL);
  if (duplication > 0.0) {
    gen::StampDuplicateSubtrees(&raw, duplication, &rng);
  }
  gen::PlantKeyword(&raw, "kwone", 6, gen::PlantMode::kClustered, &rng);
  gen::PlantKeyword(&raw, "kwtwo", 5, gen::PlantMode::kScattered, &rng);

  StampedInput input;
  auto document = gen::Materialize(raw);
  EXPECT_TRUE(document.ok());
  input.document =
      std::make_unique<doc::Document>(std::move(document).value());
  input.index = std::make_unique<text::InvertedIndex>(
      text::InvertedIndex::Build(*input.document));
  input.interner = std::make_unique<doc::SubtreeClassInterner>();
  input.classes = std::make_unique<doc::SubtreeClassIndex>(
      doc::SubtreeClassIndex::Build(*input.document, input.interner.get()));
  input.set1 = Singles(input.index->Lookup("kwone"));
  input.set2 = Singles(input.index->Lookup("kwtwo"));
  EXPECT_FALSE(input.set1.empty());
  EXPECT_FALSE(input.set2.empty());
  return input;
}

TEST_P(DagEquivalenceTest, EngineBitIdenticalAcrossStrategiesAndSwitch) {
  StampedInput input = MakeEngineInput(seed(), duplication());
  query::QueryEngine engine(*input.document, *input.index);
  query::Query q;
  q.terms = {"kwone", "kwtwo"};
  q.filter = filters::SizeAtMost(8);
  for (query::Strategy strategy :
       {query::Strategy::kFixedPointNaive, query::Strategy::kFixedPointReduced,
        query::Strategy::kPushDown}) {
    // DAG compression is off when no class index is passed.
    query::EvalOptions options;
    options.strategy = strategy;
    auto off = engine.Evaluate(q, options);
    ASSERT_TRUE(off.ok()) << off.status().ToString();

    options.executor.subtree_classes = input.classes.get();
    auto on = engine.Evaluate(q, options);
    ASSERT_TRUE(on.ok()) << on.status().ToString();
    ExpectIdenticalSets(off->answers, on->answers);
    ExpectInvariantLogicalMetrics(off->metrics, on->metrics);
    EXPECT_NE(on->explain.find("dag:"), std::string::npos) << on->explain;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByDuplicationByPrefilter, DagEquivalenceTest,
    ::testing::Combine(::testing::Values(uint64_t{51}, uint64_t{52},
                                         uint64_t{53}, uint64_t{54},
                                         uint64_t{55}, uint64_t{56}),
                       ::testing::Values(0.5, 0.9), ::testing::Bool()));

// The replay path must actually engage on a duplicated corpus — otherwise
// the equivalence assertions above would pass vacuously.
// Replay requires both fragments of a pair to live inside the SAME
// occurrence of a duplicated subtree (see DagJoinState::PairCacheable) — a
// condition randomized stamping at unit-test scale essentially never
// produces for cross-keyword pairs. Build it by hand instead: two
// byte-identical 'a' subtrees, each carrying one kwone node and one kwtwo
// node, so (kwone@occ1 × kwtwo@occ1) gets evaluated and cached and
// (kwone@occ2 × kwtwo@occ2) is a pure replay.
TEST(DagEngagementTest, ReplayCountersAdvanceOnDuplicatedCorpus) {
  auto document = doc::Document::FromParents(
      {doc::kNoNode, 0, 1, 1, 1, 1, 0, 6, 6, 6, 6, 0},
      {"r", "a", "h", "k", "h", "k", "a", "h", "k", "h", "k", "c"},
      {"", "", "filler one", "kwone", "filler two", "kwtwo", "",
       "filler one", "kwone", "filler two", "kwtwo", "unique tail"});
  ASSERT_TRUE(document.ok());
  auto index = text::InvertedIndex::Build(*document);
  doc::SubtreeClassInterner interner;
  doc::SubtreeClassIndex classes =
      doc::SubtreeClassIndex::Build(*document, &interner);
  ASSERT_TRUE(classes.has_duplication());
  ASSERT_EQ(classes.dup_anchor(3), classes.dup_anchor(5));
  ASSERT_EQ(classes.dup_anchor(8), classes.dup_anchor(10));
  ASSERT_NE(classes.dup_anchor(3), classes.dup_anchor(8));

  FragmentSet set1 = Singles(index.Lookup("kwone"));
  FragmentSet set2 = Singles(index.Lookup("kwtwo"));
  ASSERT_EQ(set1.size(), 2u);
  ASSERT_EQ(set2.size(), 2u);
  FilterPtr filter = filters::SizeAtMost(5);
  FilterContext context{document.operator->(), &index};
  OpMetrics baseline_metrics, dag_metrics;
  FragmentSet baseline =
      PairwiseJoinFiltered(*document, set1, set2, filter, context,
                          &baseline_metrics, /*dag=*/nullptr);
  FragmentSet with_dag = PairwiseJoinFiltered(
      *document, set1, set2, filter, context, &dag_metrics, &classes);
  ExpectIdenticalSets(baseline, with_dag);
  ExpectInvariantLogicalMetrics(baseline_metrics, dag_metrics);
  // The second occurrence's in-anchor pair replays the first's outcome.
  EXPECT_GT(dag_metrics.class_pairs_considered, 0u);
  EXPECT_GT(dag_metrics.answers_multiplied_out, 0u);
}

// Zero-duplication regression guard: a duplicate-free document must take the
// has_duplication() bypass — no class bookkeeping, dag counters stay zero —
// while producing the same results.
TEST(DagEngagementTest, DuplicateFreeCorpusBypasses) {
  StampedInput input = MakeStampedInput(71, /*duplication=*/0.0);
  ASSERT_FALSE(input.classes->has_duplication());
  FilterPtr filter = filters::SizeAtMost(5);
  FilterContext context{input.document.get(), input.index.get()};
  OpMetrics baseline_metrics, dag_metrics;
  FragmentSet baseline =
      PairwiseJoinFiltered(*input.document, input.set1, input.set2, filter,
                           context, &baseline_metrics, /*dag=*/nullptr);
  FragmentSet with_dag =
      PairwiseJoinFiltered(*input.document, input.set1, input.set2, filter,
                           context, &dag_metrics, input.classes.get());
  ExpectIdenticalSets(baseline, with_dag);
  ExpectInvariantLogicalMetrics(baseline_metrics, dag_metrics);
  EXPECT_EQ(dag_metrics.classes_total, 0u);
  EXPECT_EQ(dag_metrics.class_pairs_considered, 0u);
  EXPECT_EQ(dag_metrics.answers_multiplied_out, 0u);
}

// Position-dependent predicate: accepts fragments by their root's parity —
// the canonical example of a filter whose verdict does NOT transfer between
// occurrences of a subtree class.
class ParityFilter : public Filter {
 public:
  bool Matches(const Fragment& fragment,
               const FilterContext&) const override {
    return fragment.root() % 2 == 0;
  }
  bool anti_monotonic() const override { return false; }
  bool TranslationInvariant() const override { return false; }
  std::string ToString() const override { return "even_root"; }
};

// A filter that is not translation-invariant must disable the class-aware
// path (DagUsable) — outcomes at one occurrence do not transfer.
TEST(DagEngagementTest, NonTranslationInvariantFilterDisablesReplay) {
  StampedInput input = MakeStampedInput(81, 0.9);
  FilterContext context{input.document.get(), input.index.get()};
  FilterPtr parity = std::make_shared<ParityFilter>();
  ASSERT_FALSE(parity->TranslationInvariant());
  OpMetrics baseline_metrics, dag_metrics;
  FragmentSet baseline =
      PairwiseJoinFiltered(*input.document, input.set1, input.set2, parity,
                           context, &baseline_metrics, /*dag=*/nullptr);
  FragmentSet with_dag =
      PairwiseJoinFiltered(*input.document, input.set1, input.set2, parity,
                           context, &dag_metrics, input.classes.get());
  ExpectIdenticalSets(baseline, with_dag);
  EXPECT_EQ(dag_metrics.class_pairs_considered, 0u);
}

}  // namespace
}  // namespace xfrag::algebra

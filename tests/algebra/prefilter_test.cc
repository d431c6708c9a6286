// The summary-prefilter contract (ops.h): with the prefilter enabled, the
// filtered join kernels and ⊖'s candidate index must return results (and
// deterministic metrics) identical to the unoptimized kernels — the O(1)
// bounds only ever skip work whose outcome is already decided. Exercised at
// the boundaries (size<=0, size<=1, height<=0, a filter exactly at the join's
// size lower bound) and property-style over random corpora. Runs under
// `ctest -L parallel` (see XFRAG_SANITIZE).

#include <gtest/gtest.h>

#include "../testutil.h"
#include "algebra/ops.h"

namespace xfrag::algebra {
namespace {

using testutil::Frag;
using testutil::RandomTree;
using testutil::Singles;
using testutil::TreeFromParents;

// Restores the process-wide prefilter switch on scope exit.
class PrefilterToggle {
 public:
  explicit PrefilterToggle(bool enabled) : prev_(SummaryPrefilterEnabled()) {
    SetSummaryPrefilterEnabled(enabled);
  }
  ~PrefilterToggle() { SetSummaryPrefilterEnabled(prev_); }

 private:
  bool prev_;
};

// Logical-counter equality across the on/off toggle. operator== is not
// usable here: it includes pairs_rejected_summary, which is 0 with the
// prefilter off by construction.
void ExpectSameLogicalWork(const OpMetrics& off, const OpMetrics& on) {
  EXPECT_EQ(off.fragment_joins, on.fragment_joins);
  EXPECT_EQ(off.filter_evals, on.filter_evals);
  EXPECT_EQ(off.filter_rejections, on.filter_rejections);
  EXPECT_EQ(off.fixed_point_iterations, on.fixed_point_iterations);
  EXPECT_EQ(off.fragments_produced, on.fragments_produced);
  EXPECT_EQ(off.pairs_considered, on.pairs_considered);
}

void ExpectIdenticalSets(const FragmentSet& a, const FragmentSet& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i], b[i]) << "divergence at position " << i;
  }
}

// 0 → 1 → ... → 9 chain: join of two singles is the connecting path, so
// every bound is exact and easy to state.
doc::Document Chain(size_t n = 10) {
  std::vector<doc::NodeId> parents{doc::kNoNode};
  for (size_t i = 1; i < n; ++i) {
    parents.push_back(static_cast<doc::NodeId>(i - 1));
  }
  return TreeFromParents(std::move(parents));
}

TEST(JoinBoundsTest, ExactFactsOnAChain) {
  doc::Document d = Chain();
  Fragment f1 = Fragment::Single(5);
  Fragment f2 = Fragment::Single(9);
  JoinBounds bounds = ComputeJoinBounds(d, f1.Summary(d), f2.Summary(d));
  Fragment joined = Join(d, f1, f2);  // {5,6,7,8,9}.
  EXPECT_EQ(bounds.root_depth, d.depth(joined.root()));
  EXPECT_EQ(bounds.height, FragmentHeight(joined, d));
  EXPECT_EQ(bounds.span, FragmentSpan(joined));
  EXPECT_EQ(bounds.size_lower, 5u);  // Exact for singles.
  EXPECT_EQ(bounds.roots_distance, 4u);
  EXPECT_EQ(joined.size(), 5u);
}

TEST(JoinBoundsTest, SizeLowerBoundNeverExceedsActualSize) {
  doc::Document d = RandomTree(200, 4, 77);
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    Fragment f1 = Fragment::Single(static_cast<doc::NodeId>(
        rng.Uniform(d.size())));
    Fragment f2 = Fragment::Single(static_cast<doc::NodeId>(
        rng.Uniform(d.size())));
    // Grow the operands a little so multi-node summaries are covered too.
    f1 = Join(d, f1, Fragment::Single(static_cast<doc::NodeId>(
                         rng.Uniform(d.size()))));
    JoinBounds bounds = ComputeJoinBounds(d, f1.Summary(d), f2.Summary(d));
    Fragment joined = Join(d, f1, f2);
    EXPECT_LE(bounds.size_lower, joined.size());
    EXPECT_EQ(bounds.height, FragmentHeight(joined, d));
    EXPECT_EQ(bounds.span, FragmentSpan(joined));
    EXPECT_EQ(bounds.root_depth, d.depth(joined.root()));
  }
}

// size<=0 rejects every fragment; every pair must be prefilter-rejected and
// the result empty, exactly as without the prefilter.
TEST(PrefilterBoundaryTest, SizeAtMostZero) {
  doc::Document d = Chain();
  FragmentSet set1 = Singles({1, 3, 5});
  FragmentSet set2 = Singles({2, 4, 6});
  FilterPtr filter = filters::SizeAtMost(0);
  FilterContext context{&d, nullptr};

  OpMetrics off_metrics;
  FragmentSet off;
  {
    PrefilterToggle toggle(false);
    off = PairwiseJoinFiltered(d, set1, set2, filter, context, &off_metrics);
  }
  OpMetrics on_metrics;
  FragmentSet on;
  {
    PrefilterToggle toggle(true);
    on = PairwiseJoinFiltered(d, set1, set2, filter, context, &on_metrics);
  }
  EXPECT_TRUE(on.empty());
  ExpectIdenticalSets(off, on);
  ExpectSameLogicalWork(off_metrics, on_metrics);
  EXPECT_EQ(off_metrics.pairs_rejected_summary, 0u);
  EXPECT_EQ(on_metrics.pairs_rejected_summary, 9u);  // Every pair, in O(1).
}

// size<=1 admits a join only when both operands are the same single node
// (f ⋈ f = f); the prefilter must keep exactly those pairs.
TEST(PrefilterBoundaryTest, SizeAtMostOne) {
  doc::Document d = Chain();
  FragmentSet set1 = Singles({2, 5});
  FragmentSet set2 = Singles({5, 7});
  FilterPtr filter = filters::SizeAtMost(1);
  FilterContext context{&d, nullptr};
  PrefilterToggle toggle(true);
  OpMetrics metrics;
  FragmentSet out =
      PairwiseJoinFiltered(d, set1, set2, filter, context, &metrics);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], Fragment::Single(5));
  EXPECT_EQ(metrics.pairs_rejected_summary, 3u);
}

// height<=0 likewise admits only single-node self-joins.
TEST(PrefilterBoundaryTest, HeightAtMostZero) {
  doc::Document d = Chain();
  FragmentSet set1 = Singles({3, 6});
  FragmentSet set2 = Singles({6, 8});
  FilterPtr filter = filters::HeightAtMost(0);
  FilterContext context{&d, nullptr};

  OpMetrics off_metrics, on_metrics;
  FragmentSet off, on;
  {
    PrefilterToggle toggle(false);
    off = PairwiseJoinFiltered(d, set1, set2, filter, context, &off_metrics);
  }
  {
    PrefilterToggle toggle(true);
    on = PairwiseJoinFiltered(d, set1, set2, filter, context, &on_metrics);
  }
  ASSERT_EQ(on.size(), 1u);
  EXPECT_EQ(on[0], Fragment::Single(6));
  ExpectIdenticalSets(off, on);
  ExpectSameLogicalWork(off_metrics, on_metrics);
  EXPECT_GT(on_metrics.pairs_rejected_summary, 0u);
}

// A filter threshold exactly at the join's size lower bound must NOT be
// prefilter-rejected (the bound is not *above* the threshold), and one step
// tighter must be. This pins the strict inequality in RejectsJoinBounds.
TEST(PrefilterBoundaryTest, FilterExactlyAtJoinLowerBound) {
  doc::Document d = Chain();
  FragmentSet set1 = Singles({5});
  FragmentSet set2 = Singles({9});  // Join {5..9}: size 5, exactly bounded.
  FilterContext context{&d, nullptr};
  PrefilterToggle toggle(true);

  OpMetrics at_metrics;
  FragmentSet at = PairwiseJoinFiltered(d, set1, set2,
                                        filters::SizeAtMost(5), context,
                                        &at_metrics);
  ASSERT_EQ(at.size(), 1u);
  EXPECT_EQ(at[0].size(), 5u);
  EXPECT_EQ(at_metrics.pairs_rejected_summary, 0u);

  OpMetrics below_metrics;
  FragmentSet below = PairwiseJoinFiltered(d, set1, set2,
                                           filters::SizeAtMost(4), context,
                                           &below_metrics);
  EXPECT_TRUE(below.empty());
  EXPECT_EQ(below_metrics.pairs_rejected_summary, 1u);
  // The rejected pair still counts as logical work (ops.h contract).
  EXPECT_EQ(below_metrics.fragment_joins, at_metrics.fragment_joins);
  EXPECT_EQ(below_metrics.filter_evals, at_metrics.filter_evals);
}

// Property: prefilter on and off agree — same fragments, same insertion
// order, same deterministic metrics — across corpora and filters.
TEST(PrefilterEquivalenceTest, OnOffAgree) {
  for (uint64_t seed : {101ull, 102ull, 103ull}) {
    doc::Document d = RandomTree(300, 3, seed);
    Rng rng(seed ^ 0xf00d);
    std::vector<doc::NodeId> nodes1, nodes2;
    for (int i = 0; i < 16; ++i) {
      nodes1.push_back(static_cast<doc::NodeId>(rng.Uniform(d.size())));
      nodes2.push_back(static_cast<doc::NodeId>(rng.Uniform(d.size())));
    }
    FragmentSet set1 = Singles(nodes1);
    FragmentSet set2 = Singles(nodes2);
    FilterContext context{&d, nullptr};
    const std::vector<FilterPtr> filter_cases = {
        filters::SizeAtMost(0),
        filters::SizeAtMost(1),
        filters::SizeAtMost(6),
        filters::HeightAtMost(0),
        filters::HeightAtMost(2),
        filters::SpanAtMost(12),
        filters::DistanceAtMost(3),
        filters::RootDepthAtLeast(2),
        filters::And(filters::SizeAtMost(8), filters::HeightAtMost(3)),
        filters::Or(filters::SizeAtMost(3), filters::SpanAtMost(6)),
    };
    for (const FilterPtr& filter : filter_cases) {
      OpMetrics off_metrics;
      FragmentSet off;
      {
        PrefilterToggle toggle(false);
        off = PairwiseJoinFiltered(d, set1, set2, filter, context,
                                   &off_metrics);
      }
      PrefilterToggle toggle(true);
      OpMetrics on_metrics;
      FragmentSet on =
          PairwiseJoinFiltered(d, set1, set2, filter, context, &on_metrics);
      ExpectIdenticalSets(off, on);
      // Logical counters are invariant under the prefilter; only
      // pairs_rejected_summary may differ (it records the physical saving).
      EXPECT_EQ(off_metrics.fragment_joins, on_metrics.fragment_joins);
      EXPECT_EQ(off_metrics.filter_evals, on_metrics.filter_evals);
      EXPECT_EQ(off_metrics.filter_rejections, on_metrics.filter_rejections);
      EXPECT_EQ(off_metrics.fragments_produced, on_metrics.fragments_produced);
      EXPECT_EQ(off_metrics.pairs_considered, on_metrics.pairs_considered);
      EXPECT_EQ(off_metrics.pairs_rejected_summary, 0u);
    }
  }
}

// Reduce: the interval/size candidate index must not change the reduced set,
// and must actually skip subsumption checks on clustered
// inputs (where eliminations are plentiful).
TEST(PrefilterEquivalenceTest, ReduceIndexAgrees) {
  for (uint64_t seed : {7ull, 8ull}) {
    // window=1 chains cluster members along root paths: many eliminations.
    doc::Document d = RandomTree(120, 2, seed);
    Rng rng(seed);
    std::vector<doc::NodeId> nodes;
    for (int i = 0; i < 20; ++i) {
      nodes.push_back(static_cast<doc::NodeId>(rng.Uniform(d.size())));
    }
    FragmentSet set = Singles(nodes);
    OpMetrics off_metrics;
    FragmentSet off;
    {
      PrefilterToggle toggle(false);
      off = Reduce(d, set, &off_metrics);
    }
    PrefilterToggle toggle(true);
    OpMetrics on_metrics;
    FragmentSet on = Reduce(d, set, &on_metrics);
    ExpectIdenticalSets(off, on);
    EXPECT_TRUE(off_metrics == on_metrics);  // Excludes the skip counter.
    EXPECT_GT(on_metrics.subsume_checks_skipped, 0u);
  }
}

}  // namespace
}  // namespace xfrag::algebra

// TopKCollector semantics (dedup, eviction, tie-breaking, order
// independence) and the score-bounded serial kernel's contract: for every k,
// PairwiseJoinTopK retains exactly the k best answers of the unbounded
// evaluation under (score desc, canonical fragment order asc), while
// rejecting pairs whose upper bound cannot reach the heap.

#include "algebra/topk.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "../testutil.h"
#include "algebra/ops.h"
#include "common/rng.h"

namespace xfrag::algebra {
namespace {

using testutil::RandomSingles;
using testutil::RandomTree;

Fragment Single(doc::NodeId n) { return Fragment::Single(n); }

// Smaller fragments score higher. Sound bound: |f1 ⋈ f2| >= size_lower and
// the score is decreasing in size. Leaves QuickUpperBound at the base-class
// default ("no information") so the kernel's two-stage check degrades
// gracefully.
class InverseSizeScorer : public JoinScorer {
 public:
  double Score(const Fragment& fragment) const override {
    return 10.0 / (1.0 + static_cast<double>(fragment.size()));
  }
  double UpperBound(const JoinBounds& bounds) const override {
    return 10.0 / (1.0 + static_cast<double>(bounds.size_lower));
  }
};

TEST(TopKCollectorTest, ZeroCapacityAcceptsNothing) {
  TopKCollector collector(0);
  EXPECT_FALSE(collector.CouldAccept(1e9));
  EXPECT_FALSE(collector.Offer(Single(1), 5.0));
  EXPECT_EQ(collector.size(), 0u);
}

TEST(TopKCollectorTest, EvictsTheMinimumWhenFull) {
  TopKCollector collector(2);
  EXPECT_TRUE(collector.Offer(Single(1), 1.0));
  EXPECT_TRUE(collector.Offer(Single(2), 3.0));
  EXPECT_TRUE(collector.full());
  // Outranks the current minimum (Single(1), 1.0): retained, minimum gone.
  EXPECT_TRUE(collector.Offer(Single(3), 2.0));
  auto sorted = collector.TakeSorted();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0].fragment, Single(2));
  EXPECT_EQ(sorted[1].fragment, Single(3));
}

TEST(TopKCollectorTest, CouldAcceptIsStrictOnlyBelowTheMinimum) {
  TopKCollector collector(1);
  EXPECT_TRUE(collector.CouldAccept(0.0));  // not yet full
  collector.Offer(Single(1), 2.0);
  EXPECT_FALSE(collector.CouldAccept(1.99));
  // A candidate *tying* the minimum could still win on fragment order.
  EXPECT_TRUE(collector.CouldAccept(2.0));
}

TEST(TopKCollectorTest, TiesBreakOnCanonicalFragmentOrder) {
  TopKCollector collector(1);
  EXPECT_TRUE(collector.Offer(Single(2), 1.0));
  // Same score, canonically earlier fragment: replaces the retained entry.
  EXPECT_TRUE(collector.Offer(Single(1), 1.0));
  // Same score, canonically later fragment: rejected.
  EXPECT_FALSE(collector.Offer(Single(3), 1.0));
  auto sorted = collector.TakeSorted();
  ASSERT_EQ(sorted.size(), 1u);
  EXPECT_EQ(sorted[0].fragment, Single(1));
}

TEST(TopKCollectorTest, DuplicateOffersAreRejected) {
  TopKCollector collector(4);
  EXPECT_TRUE(collector.Offer(Single(1), 2.0));
  EXPECT_FALSE(collector.Offer(Single(1), 2.0));  // retained non-minimum dup
  EXPECT_TRUE(collector.Offer(Single(2), 1.0));
  EXPECT_FALSE(collector.Offer(Single(2), 1.0));  // duplicate of the minimum
  EXPECT_EQ(collector.size(), 2u);
}

TEST(TopKCollectorTest, ContainsTracksRetentionAndEviction) {
  TopKCollector collector(2);
  EXPECT_FALSE(collector.Contains(Single(1)));
  collector.Offer(Single(1), 1.0);
  collector.Offer(Single(2), 3.0);
  EXPECT_TRUE(collector.Contains(Single(1)));
  EXPECT_TRUE(collector.Contains(Single(2)));
  collector.Offer(Single(3), 2.0);  // evicts Single(1)
  EXPECT_FALSE(collector.Contains(Single(1)));
  EXPECT_TRUE(collector.Contains(Single(3)));
}

TEST(TopKCollectorTest, FinalContentIsOfferOrderIndependent) {
  std::vector<ScoredFragment> offers;
  Rng rng(0xc0de);
  for (doc::NodeId n = 0; n < 40; ++n) {
    // Few distinct scores, so ties are common; duplicates offered on purpose.
    offers.push_back({Single(n % 25), static_cast<double>(rng.Uniform(5))});
  }
  TopKCollector forward(8);
  for (const auto& offer : offers) {
    forward.Offer(offer.fragment, offer.score);
  }
  std::vector<ScoredFragment> shuffled = offers;
  for (size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.Uniform(i)]);
  }
  TopKCollector backward(8);
  for (const auto& offer : shuffled) {
    backward.Offer(offer.fragment, offer.score);
  }
  auto a = forward.TakeSorted();
  auto b = backward.TakeSorted();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].fragment, b[i].fragment);
    EXPECT_EQ(a[i].score, b[i].score);
  }
}

// The unbounded oracle: join, filter, accept, score everything, sort, cut.
std::vector<ScoredFragment> OracleTopK(const doc::Document& document,
                                       const FragmentSet& set1,
                                       const FragmentSet& set2,
                                       const FilterPtr& filter,
                                       const JoinScorer& scorer,
                                       const FragmentPredicate& accept,
                                       size_t k) {
  FilterContext context{&document, nullptr};
  FragmentSet joined =
      PairwiseJoinFiltered(document, set1, set2, filter, context);
  std::vector<ScoredFragment> scored;
  for (const Fragment& fragment : joined) {
    if (accept && !accept(fragment)) continue;
    scored.push_back({fragment, scorer.Score(fragment)});
  }
  std::sort(scored.begin(), scored.end(), OutranksScored);
  if (scored.size() > k) {
    scored.erase(scored.begin() + static_cast<ptrdiff_t>(k), scored.end());
  }
  return scored;
}

class TopKKernelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TopKKernelTest, MatchesUnboundedOracleForEveryK) {
  doc::Document document = RandomTree(120, 3, GetParam());
  Rng rng(GetParam() ^ 0xabcd);
  FragmentSet set1 = RandomSingles(document, 12, &rng);
  FragmentSet set2 = RandomSingles(document, 12, &rng);
  FilterPtr filter = filters::SizeAtMost(10);
  FilterContext context{&document, nullptr};
  InverseSizeScorer scorer;

  for (size_t k : {size_t{1}, size_t{3}, size_t{10}, size_t{1000}}) {
    auto oracle = OracleTopK(document, set1, set2, filter, scorer, {}, k);
    TopKCollector collector(k);
    OpMetrics metrics;
    PairwiseJoinTopK(document, set1, set2, filter, context, scorer, {},
                     &collector, &metrics);
    auto got = collector.TakeSorted();
    ASSERT_EQ(got.size(), oracle.size()) << "k=" << k;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].fragment, oracle[i].fragment) << "k=" << k;
      EXPECT_EQ(got[i].score, oracle[i].score) << "k=" << k;
    }
    EXPECT_EQ(metrics.pairs_considered, set1.size() * set2.size());
  }
}

TEST_P(TopKKernelTest, AcceptPredicateRestrictsTheHeapSoundly) {
  doc::Document document = RandomTree(100, 4, GetParam());
  Rng rng(GetParam() ^ 0x9f);
  FragmentSet set1 = RandomSingles(document, 10, &rng);
  FragmentSet set2 = RandomSingles(document, 10, &rng);
  FilterPtr filter = filters::True();
  FilterContext context{&document, nullptr};
  InverseSizeScorer scorer;
  // Only odd-sized answers are acceptable (stands in for the engine's
  // leaf-strict answer-mode condition).
  FragmentPredicate odd = [](const Fragment& f) { return f.size() % 2 == 1; };

  const size_t k = 5;
  auto oracle = OracleTopK(document, set1, set2, filter, scorer, odd, k);
  TopKCollector collector(k);
  PairwiseJoinTopK(document, set1, set2, filter, context, scorer, odd,
                   &collector);
  auto got = collector.TakeSorted();
  ASSERT_EQ(got.size(), oracle.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].fragment, oracle[i].fragment);
    EXPECT_EQ(got[i].score, oracle[i].score);
    EXPECT_EQ(got[i].fragment.size() % 2, 1u);
  }
}

TEST(TopKKernelTest, SmallKPrunesPairsOnChains) {
  // A pure chain: joins of far-apart singles are large, so with k=1 the
  // inverse-size scorer's bound rejects most pairs before materialization.
  doc::Document document = RandomTree(64, 1, 7);
  FragmentSet singles;
  for (doc::NodeId n = 0; n < 64; n += 4) singles.Insert(Single(n));
  FilterPtr filter = filters::True();
  FilterContext context{&document, nullptr};
  InverseSizeScorer scorer;

  TopKCollector collector(1);
  OpMetrics metrics;
  PairwiseJoinTopK(document, singles, singles, filter, context, scorer, {},
                   &collector, &metrics);
  auto got = collector.TakeSorted();
  // Best answer: any single joined with itself (size 1).
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].fragment.size(), 1u);
  EXPECT_GT(metrics.pairs_rejected_score, 0u);
  EXPECT_LT(metrics.fragment_joins, metrics.pairs_considered);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopKKernelTest,
                         ::testing::Values(1ull, 17ull, 2026ull));

// ---------------------------------------------------------------------------
// Seeded score floors (the distributed top-k shard contract): a collector
// seeded with a sound floor — the k-th best score over >= k real answers —
// must produce exactly the answers a cold collector produces, while
// rejecting at least as many pairs. An unsound (too high) floor must be
// detectable via the floor audit.
// ---------------------------------------------------------------------------

class SeededFloorTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeededFloorTest, SoundFloorKeepsTheTopKPrefixByteForByte) {
  doc::Document document = RandomTree(110, 3, GetParam());
  Rng rng(GetParam() ^ 0x5eed);
  FragmentSet set1 = RandomSingles(document, 12, &rng);
  FragmentSet set2 = RandomSingles(document, 12, &rng);
  FilterPtr filter = filters::SizeAtMost(12);
  FilterContext context{&document, nullptr};
  InverseSizeScorer scorer;

  for (size_t k : {size_t{1}, size_t{3}, size_t{10}}) {
    auto oracle = OracleTopK(document, set1, set2, filter, scorer, {}, k);
    if (oracle.size() < k) continue;  // floor only sound with >= k answers
    const double sound_floor = oracle.back().score;  // true k-th best score

    TopKCollector cold(k);
    OpMetrics cold_metrics;
    PairwiseJoinTopK(document, set1, set2, filter, context, scorer, {},
                     &cold, &cold_metrics);

    TopKCollector seeded(k);
    seeded.SeedFloor(sound_floor);
    OpMetrics seeded_metrics;
    PairwiseJoinTopK(document, set1, set2, filter, context, scorer, {},
                     &seeded, &seeded_metrics);

    EXPECT_TRUE(seeded.FloorAuditClean()) << "k=" << k;
    auto expect = cold.TakeSorted();
    auto got = seeded.TakeSorted();
    ASSERT_EQ(got.size(), expect.size()) << "k=" << k;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].fragment, expect[i].fragment) << "k=" << k;
      EXPECT_EQ(got[i].score, expect[i].score) << "k=" << k;
    }
    // The floor can only add pruning power, never remove it.
    EXPECT_GE(seeded_metrics.pairs_rejected_score,
              cold_metrics.pairs_rejected_score)
        << "k=" << k;
  }
}

TEST_P(SeededFloorTest, UnsoundFloorIsCaughtByTheAudit) {
  doc::Document document = RandomTree(90, 3, GetParam());
  Rng rng(GetParam() ^ 0xbad);
  FragmentSet set1 = RandomSingles(document, 10, &rng);
  FragmentSet set2 = RandomSingles(document, 10, &rng);
  FilterPtr filter = filters::True();
  FilterContext context{&document, nullptr};
  InverseSizeScorer scorer;

  const size_t k = 5;
  auto oracle = OracleTopK(document, set1, set2, filter, scorer, {}, k);
  ASSERT_GE(oracle.size(), k);
  // Deliberately unsound: strictly above the true best score, so every real
  // answer is pruned and the audit must flag the loss.
  TopKCollector seeded(k);
  seeded.SeedFloor(oracle.front().score + 1.0);
  PairwiseJoinTopK(document, set1, set2, filter, context, scorer, {},
                   &seeded);
  EXPECT_EQ(seeded.size(), 0u);
  EXPECT_FALSE(seeded.FloorAuditClean());
  EXPECT_GT(seeded.floor_rejections(), 0u);
  EXPECT_GE(seeded.max_floor_rejected(), oracle.front().score);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededFloorTest,
                         ::testing::Values(1ull, 17ull, 2026ull));

TEST(SeededFloorTest, FloorPrunesStrictlyBelowButNeverTies) {
  // Floor semantics: an offer strictly below the floor is rejected; one
  // *tying* the floor must survive (it could still win on fragment order).
  TopKCollector collector(2);
  collector.SeedFloor(2.0);
  EXPECT_FALSE(collector.Offer(Single(1), 1.99));
  EXPECT_TRUE(collector.Offer(Single(2), 2.0));
  EXPECT_TRUE(collector.Offer(Single(3), 5.0));
  auto sorted = collector.TakeSorted();
  ASSERT_EQ(sorted.size(), 2u);
  EXPECT_EQ(sorted[0].fragment, Single(3));
  EXPECT_EQ(sorted[1].fragment, Single(2));
}

TEST(SeededFloorTest, SeedFloorIsMonotonic) {
  TopKCollector collector(4);
  collector.SeedFloor(3.0);
  collector.SeedFloor(1.0);  // lowering attempt: ignored
  EXPECT_EQ(collector.seeded_floor(), 3.0);
  EXPECT_FALSE(collector.Offer(Single(1), 2.0));
  collector.SeedFloor(4.0);  // raising: applied
  EXPECT_EQ(collector.seeded_floor(), 4.0);
  EXPECT_FALSE(collector.Offer(Single(2), 3.5));
  EXPECT_TRUE(collector.Offer(Single(3), 4.0));
}

TEST(SeededFloorTest, AuditDistinguishesHarmlessFromLossyRejections) {
  // Rejections strictly below the final k-th score are harmless: the cold
  // collector would have evicted those answers anyway.
  TopKCollector harmless(1);
  harmless.SeedFloor(2.0);
  EXPECT_FALSE(harmless.Offer(Single(1), 1.0));  // counted, but...
  EXPECT_TRUE(harmless.Offer(Single(2), 3.0));   // ...outranked in the end
  EXPECT_GE(harmless.floor_rejections(), 1u);
  EXPECT_TRUE(harmless.FloorAuditClean());

  // A rejection at or above the final k-th score is a real loss.
  TopKCollector lossy(2);
  lossy.SeedFloor(2.0);
  EXPECT_FALSE(lossy.Offer(Single(1), 1.0));  // would have been kept (k=2)
  EXPECT_TRUE(lossy.Offer(Single(2), 3.0));
  EXPECT_FALSE(lossy.FloorAuditClean());  // heap never filled: answer lost
}

}  // namespace
}  // namespace xfrag::algebra

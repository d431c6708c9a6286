// Root windows (docs/ALGEBRA.md, "Root windows"). Filter::MinJoinRootDepth
// must be sound: every pair whose LCA lies above the depth it returns is
// rejected by RejectsJoinBounds. The join kernels skip exactly those pairs
// after one compare, so their results (in order) and every OpMetrics
// counter must equal a reference loop that computes the bounds of every
// pair. Checked over random trees and generated corpora, each both in
// memory and through a snapshot round trip (the two answer Lca differently:
// Euler sparse table vs parent climb).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "../testutil.h"
#include "algebra/ops.h"
#include "collection/collection.h"
#include "doc/subtree_classes.h"
#include "gen/corpus.h"
#include "storage/snapshot.h"

namespace xfrag::algebra {
namespace {

using testutil::Frag;
using testutil::TreeFromParents;

// A document under test, either owned in memory or served from a snapshot
// that `snapshot` keeps mapped.
struct Corpus {
  std::string name;
  std::unique_ptr<doc::Document> owned;
  std::shared_ptr<storage::SnapshotCollection> snapshot;
  const doc::Document* document = nullptr;
};

doc::Document GeneratedDocument(uint64_t seed) {
  gen::CorpusProfile profile;
  profile.target_nodes = 300;
  profile.seed = seed;
  auto document = gen::Materialize(gen::GenerateRaw(profile));
  EXPECT_TRUE(document.ok());
  return std::move(document).value();
}

Corpus InMemory(std::string name, doc::Document document) {
  Corpus corpus;
  corpus.name = std::move(name);
  corpus.owned = std::make_unique<doc::Document>(std::move(document));
  corpus.document = corpus.owned.get();
  return corpus;
}

Corpus ThroughSnapshot(std::string name, doc::Document document) {
  Corpus corpus;
  corpus.name = name + "/snapshot";
  collection::Collection collection;
  EXPECT_TRUE(collection.Add(name, std::move(document)).ok());
  const std::string path =
      testutil::ProcessTempDir() + "/root_window_" + name + ".snap";
  Status written =
      storage::WriteSnapshot(collection, text::IndexOptions{}, path);
  EXPECT_TRUE(written.ok()) << written.ToString();
  auto loaded = storage::LoadCollectionFromSnapshot(path);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  corpus.snapshot =
      std::make_shared<storage::SnapshotCollection>(std::move(*loaded));
  corpus.document = &corpus.snapshot->collection.entry(0).document;
  return corpus;
}

// Deep random trees (window 3 keeps them narrow) and generated articles,
// each in memory and through a snapshot.
std::vector<Corpus> Corpora() {
  std::vector<Corpus> out;
  out.push_back(InMemory("tree", testutil::RandomTree(160, 3, 41)));
  out.push_back(ThroughSnapshot("tree", testutil::RandomTree(160, 3, 41)));
  out.push_back(InMemory("gen", GeneratedDocument(17)));
  out.push_back(ThroughSnapshot("gen", GeneratedDocument(17)));
  return out;
}

// A random connected fragment: a node joined with up to two more nodes of
// the subtree of an ancestor at most two levels above it.
Fragment RandomFragment(const doc::Document& d, Rng* rng) {
  const auto a = static_cast<doc::NodeId>(rng->Uniform(d.size()));
  doc::NodeId top = a;
  for (uint64_t up = rng->Uniform(3); up > 0 && top != 0; --up) {
    top = d.parent(top);
  }
  Fragment f = Fragment::Single(a);
  for (uint64_t extra = rng->Uniform(3); extra > 0; --extra) {
    const auto b = static_cast<doc::NodeId>(
        top + rng->Uniform(d.subtree_size(top)));
    f = Join(d, f, Fragment::Single(b));
  }
  return f;
}

FragmentSet RandomFragments(const doc::Document& d, size_t count,
                            uint64_t seed) {
  Rng rng(seed);
  FragmentSet out;
  for (size_t t = 0; t < count; ++t) out.Insert(RandomFragment(d, &rng));
  return out;
}

// Every built-in filter at thresholds around the corpora's depths, plus
// conjunctions and disjunctions of them.
std::vector<FilterPtr> Filters() {
  std::vector<FilterPtr> base;
  for (uint32_t b = 0; b <= 8; ++b) base.push_back(filters::SizeAtMost(b));
  for (uint32_t h = 0; h <= 5; ++h) base.push_back(filters::HeightAtMost(h));
  for (uint32_t d = 0; d <= 7; ++d) {
    base.push_back(filters::DistanceAtMost(d));
  }
  for (uint32_t r = 0; r <= 6; ++r) {
    base.push_back(filters::RootDepthAtLeast(r));
  }
  base.push_back(filters::SpanAtMost(4));
  base.push_back(filters::True());
  base.push_back(filters::TagsWithin({"n", "par", "section"}));
  base.push_back(filters::SizeAtLeast(2));
  base.push_back(filters::RootDepthAtMost(3));
  base.push_back(filters::Not(filters::SizeAtMost(3)));
  std::vector<FilterPtr> all = base;
  for (size_t i = 0; i < base.size(); ++i) {
    const FilterPtr& other = base[(i * 7 + 3) % base.size()];
    all.push_back(filters::And(base[i], other));
    all.push_back(filters::Or(base[i], other));
  }
  return all;
}

TEST(RootWindowTest, EveryPairAboveTheWindowIsRejectedByItsBounds) {
  const std::vector<FilterPtr> all = Filters();
  for (const Corpus& corpus : Corpora()) {
    const doc::Document& d = *corpus.document;
    FilterContext context{&d, nullptr};
    const FragmentSet set = RandomFragments(d, 70, 99);
    uint64_t windowed = 0;
    for (const Fragment& f1 : set) {
      const FragmentSummary s1 = f1.Summary(d);
      for (const Fragment& f2 : set) {
        const FragmentSummary s2 = f2.Summary(d);
        const JoinBounds bounds = ComputeJoinBounds(d, s1, s2);
        const uint32_t lca_depth = d.depth(d.Lca(s1.root, s2.root));
        ASSERT_EQ(lca_depth, bounds.root_depth);
        for (const FilterPtr& filter : all) {
          const uint32_t limit =
              filter->MinJoinRootDepth(s1, s2.root_depth);
          if (lca_depth >= limit) continue;
          ++windowed;
          ASSERT_TRUE(filter->RejectsJoinBounds(bounds, context))
              << corpus.name << ": " << filter->ToString() << " window depth "
              << limit << " but the bounds of " << f1.ToString() << " ⋈ "
              << f2.ToString() << " (lca depth " << lca_depth
              << ") do not reject";
        }
      }
    }
    EXPECT_GT(windowed, 0u) << corpus.name;
  }
}

// The size rule is clamped at depth(root(f1)): when root(f1) is the LCA,
// size_lower drops the second connecting path. β = 3, f1 = {3, 4, 5} rooted
// at depth 3 and the depth-4 partner {4}: the unclamped rule would put the
// window at depth 4 and drop the answer f1 ⋈ {4} = f1.
TEST(RootWindowTest, SizeRuleIsClampedAtTheRowRootDepth) {
  // 0 → 1 → 2 → 3, with 4 and 5 children of 3.
  doc::Document d = TreeFromParents({doc::kNoNode, 0, 1, 2, 3, 3});
  const Fragment f1 = Frag(d, {3, 4, 5});
  const Fragment f2 = Fragment::Single(4);
  const FilterPtr filter = filters::SizeAtMost(3);
  FilterContext context{&d, nullptr};
  const FragmentSummary s1 = f1.Summary(d);
  const FragmentSummary s2 = f2.Summary(d);
  ASSERT_EQ(s1.root_depth, 3u);
  ASSERT_EQ(s2.root_depth, 4u);
  EXPECT_EQ(filter->MinJoinRootDepth(s1, s2.root_depth), 3u);
  const JoinBounds bounds = ComputeJoinBounds(d, s1, s2);
  EXPECT_EQ(bounds.size_lower, 3u);
  EXPECT_FALSE(filter->RejectsJoinBounds(bounds, context));

  FragmentSet set1;
  set1.Insert(f1);
  FragmentSet set2;
  set2.Insert(f2);
  OpMetrics metrics;
  FragmentSet out =
      PairwiseJoinFiltered(d, set1, set2, filter, context, &metrics);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], f1);
  EXPECT_EQ(metrics.pairs_examined, 1u);
  EXPECT_EQ(metrics.pairs_rejected_summary, 0u);
}

// ---------------------------------------------------------------------------
// Counter identity: the kernels against loops that compute the bounds of
// every pair. A pair inside its window is one the kernels examine, so the
// reference counts pairs_examined as the pairs whose LCA is at or below the
// filter's window depth.

void ReferenceCountJoin(OpMetrics* m) {
  ++m->fragment_joins;
  ++m->fragments_produced;
}

FragmentSet ReferenceJoinFiltered(const doc::Document& d,
                                  const FragmentSet& set1,
                                  const FragmentSet& set2,
                                  const FilterPtr& filter,
                                  const FilterContext& context, OpMetrics* m) {
  FragmentSet out;
  for (const Fragment& f1 : set1) {
    const FragmentSummary s1 = f1.Summary(d);
    for (const Fragment& f2 : set2) {
      const FragmentSummary s2 = f2.Summary(d);
      ++m->pairs_considered;
      const JoinBounds bounds = ComputeJoinBounds(d, s1, s2);
      if (bounds.root_depth >= filter->MinJoinRootDepth(s1, s2.root_depth)) {
        ++m->pairs_examined;
      }
      ReferenceCountJoin(m);
      ++m->filter_evals;
      if (filter->RejectsJoinBounds(bounds, context)) {
        ++m->filter_rejections;
        ++m->pairs_rejected_summary;
        continue;
      }
      Fragment joined = Join(d, f1, f2);
      if (filter->Matches(joined, context)) {
        out.Insert(std::move(joined));
      } else {
        ++m->filter_rejections;
      }
    }
  }
  return out;
}

FragmentSet ReferenceFixedPointFiltered(const doc::Document& d,
                                        const FragmentSet& set,
                                        const FilterPtr& filter,
                                        const FilterContext& context,
                                        OpMetrics* m) {
  FragmentSet current;
  for (const Fragment& f : set) {
    ++m->filter_evals;
    if (filter->Matches(f, context)) {
      current.Insert(f);
    } else {
      ++m->filter_rejections;
    }
  }
  const FragmentSet base = current;
  while (true) {
    ++m->fixed_point_iterations;
    FragmentSet joined =
        ReferenceJoinFiltered(d, current, base, filter, context, m);
    const size_t before = current.size();
    current = current.Union(joined);
    if (current.size() == before) break;
  }
  return current;
}

// Smaller joins score higher; the size lower bound is a sound upper bound.
// No evidence bound, so the top-k kernel runs no warmup and no row skips and
// its pair sequence is the plain double loop below.
class SmallFirstScorer final : public JoinScorer {
 public:
  double Score(const Fragment& fragment) const override {
    return 1.0 / static_cast<double>(fragment.size());
  }
  double UpperBound(const JoinBounds& bounds) const override {
    return 1.0 / static_cast<double>(std::max<uint32_t>(1, bounds.size_lower));
  }
};

std::vector<ScoredFragment> ReferenceTopK(const doc::Document& d,
                                          const FragmentSet& set1,
                                          const FragmentSet& set2,
                                          const FilterPtr& filter,
                                          const FilterContext& context,
                                          const JoinScorer& scorer, size_t k,
                                          OpMetrics* m) {
  TopKCollector collector(k);
  for (const Fragment& f1 : set1) {
    const FragmentSummary s1 = f1.Summary(d);
    for (const Fragment& f2 : set2) {
      const FragmentSummary s2 = f2.Summary(d);
      ++m->pairs_considered;
      const JoinBounds bounds = ComputeJoinBounds(d, s1, s2);
      if (bounds.root_depth >= filter->MinJoinRootDepth(s1, s2.root_depth)) {
        ++m->pairs_examined;
      }
      if (filter->RejectsJoinBounds(bounds, context)) {
        ReferenceCountJoin(m);
        ++m->filter_evals;
        ++m->filter_rejections;
        ++m->pairs_rejected_summary;
        continue;
      }
      if (!collector.CouldAccept(scorer.QuickUpperBound(bounds)) ||
          !collector.CouldAccept(scorer.UpperBound(bounds))) {
        ++m->pairs_rejected_score;
        continue;
      }
      Fragment joined = Join(d, f1, f2);
      ReferenceCountJoin(m);
      ++m->filter_evals;
      if (!filter->Matches(joined, context)) {
        ++m->filter_rejections;
        continue;
      }
      if (collector.Contains(joined)) continue;
      const double score = scorer.Score(joined);
      collector.Offer(std::move(joined), score);
    }
  }
  return collector.TakeSorted();
}

void ExpectIdenticalSets(const FragmentSet& expected, const FragmentSet& got,
                         const std::string& what) {
  ASSERT_EQ(expected.size(), got.size()) << what;
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i], got[i]) << what << ": divergence at " << i;
  }
}

// operator== covers the logical counters, pairs_considered and
// pairs_rejected_summary; the physical pairs_rejected_score and
// pairs_examined are compared explicitly.
void ExpectSameCounters(const OpMetrics& expected, const OpMetrics& got,
                        const std::string& what) {
  EXPECT_TRUE(expected == got) << what;
  EXPECT_EQ(expected.pairs_rejected_score, got.pairs_rejected_score) << what;
  EXPECT_EQ(expected.pairs_examined, got.pairs_examined) << what;
}

// The anti-monotonic filters the optimizer pushes into the kernels.
std::vector<FilterPtr> PushedFilters() {
  return {filters::SizeAtMost(3),
          filters::SizeAtMost(5),
          filters::HeightAtMost(2),
          filters::DistanceAtMost(3),
          filters::RootDepthAtLeast(3),
          filters::And(filters::SizeAtMost(6), filters::HeightAtMost(3)),
          filters::Or(filters::SizeAtMost(2), filters::DistanceAtMost(4)),
          filters::SpanAtMost(6)};
}

TEST(RootWindowTest, FilteredKernelsKeepEveryCounterOfTheReferenceLoop) {
  ASSERT_TRUE(SummaryPrefilterEnabled());
  uint64_t skipped = 0;
  for (const Corpus& corpus : Corpora()) {
    const doc::Document& d = *corpus.document;
    FilterContext context{&d, nullptr};
    const FragmentSet set1 = RandomFragments(d, 40, 5);
    const FragmentSet set2 = RandomFragments(d, 30, 6);
    Rng singles_rng(7);
    const FragmentSet singles = testutil::RandomSingles(d, 14, &singles_rng);
    for (const FilterPtr& filter : PushedFilters()) {
      const std::string what = corpus.name + " " + filter->ToString();
      OpMetrics want;
      FragmentSet expected =
          ReferenceJoinFiltered(d, set1, set2, filter, context, &want);
      OpMetrics got;
      FragmentSet out =
          PairwiseJoinFiltered(d, set1, set2, filter, context, &got);
      ExpectIdenticalSets(expected, out, what + " join");
      ExpectSameCounters(want, got, what + " join");
      EXPECT_LE(got.pairs_examined, got.pairs_considered) << what;
      skipped += got.pairs_considered - got.pairs_examined;

      OpMetrics want_fp;
      FragmentSet expected_fp =
          ReferenceFixedPointFiltered(d, singles, filter, context, &want_fp);
      OpMetrics got_fp;
      FragmentSet out_fp =
          FixedPointFiltered(d, singles, filter, context, &got_fp);
      ExpectIdenticalSets(expected_fp, out_fp, what + " fixed point");
      ExpectSameCounters(want_fp, got_fp, what + " fixed point");
    }
  }
  EXPECT_GT(skipped, 0u) << "no pair fell outside a window";
}

TEST(RootWindowTest, TopKKernelKeepsEveryCounterOfTheReferenceLoop) {
  ASSERT_TRUE(SummaryPrefilterEnabled());
  const SmallFirstScorer scorer;
  for (const Corpus& corpus : Corpora()) {
    const doc::Document& d = *corpus.document;
    FilterContext context{&d, nullptr};
    const FragmentSet set1 = RandomFragments(d, 40, 8);
    const FragmentSet set2 = RandomFragments(d, 30, 9);
    for (const FilterPtr& filter : PushedFilters()) {
      for (size_t k : {1u, 4u, 50u}) {
        const std::string what = corpus.name + " " + filter->ToString() +
                                 " k=" + std::to_string(k);
        OpMetrics want;
        std::vector<ScoredFragment> expected =
            ReferenceTopK(d, set1, set2, filter, context, scorer, k, &want);
        TopKCollector collector(k);
        OpMetrics got;
        PairwiseJoinTopK(d, set1, set2, filter, context, scorer, nullptr,
                         &collector, &got);
        std::vector<ScoredFragment> out = collector.TakeSorted();
        ASSERT_EQ(expected.size(), out.size()) << what;
        for (size_t i = 0; i < out.size(); ++i) {
          EXPECT_EQ(expected[i].fragment, out[i].fragment) << what;
          EXPECT_EQ(expected[i].score, out[i].score) << what;
        }
        ExpectSameCounters(want, got, what);
      }
    }
  }
}

// DAG replays stand in for the representative's evaluation, bounds
// included, so pairs_examined does not depend on DAG compression either.
TEST(RootWindowTest, ExaminedPairsAreTheSameWithDagCompression) {
  gen::CorpusProfile profile;
  profile.target_nodes = 400;
  profile.seed = 23;
  gen::RawCorpus raw = gen::GenerateRaw(profile);
  Rng rng(24);
  gen::StampDuplicateSubtrees(&raw, 0.8, &rng);
  auto document = gen::Materialize(raw);
  ASSERT_TRUE(document.ok());
  const doc::Document& d = *document;
  doc::SubtreeClassInterner interner;
  const doc::SubtreeClassIndex classes =
      doc::SubtreeClassIndex::Build(d, &interner);
  ASSERT_TRUE(classes.has_duplication());
  FilterContext context{&d, nullptr};
  const FragmentSet set1 = RandomFragments(d, 60, 25);
  const FragmentSet set2 = RandomFragments(d, 60, 26);
  uint64_t replayed = 0;
  for (const FilterPtr& filter : PushedFilters()) {
    const std::string what = filter->ToString();
    OpMetrics want;
    FragmentSet expected =
        ReferenceJoinFiltered(d, set1, set2, filter, context, &want);
    OpMetrics got;
    FragmentSet out = PairwiseJoinFiltered(d, set1, set2, filter, context,
                                           &got, &classes);
    ExpectIdenticalSets(expected, out, what);
    ExpectSameCounters(want, got, what);
    replayed += got.class_pairs_considered;
  }
  EXPECT_GT(replayed, 0u) << "no pair was replayed from its class";
}

}  // namespace
}  // namespace xfrag::algebra

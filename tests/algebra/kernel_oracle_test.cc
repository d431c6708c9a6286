// The serial kernels against the paper's definitions, on generated corpora.
// Each operator has exactly one kernel (ops.cc); this suite checks it
// against a direct transcription of its definition — nested loops, literal
// subset tests, sorted unbounded top-k — over seeded 400-node corpora
// (src/gen) × the three keyword placements (scattered, clustered, sibling
// runs). The hand-built trees of join_test / reduce_test / fixed_point_test
// pin small cases; this suite covers the shapes the benches and the
// servers actually run.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "algebra/ops.h"
#include "algebra/topk.h"
#include "common/rng.h"
#include "doc/document.h"
#include "gen/corpus.h"
#include "query/ranking.h"
#include "text/inverted_index.h"

namespace xfrag::algebra {
namespace {

// A generated document with two planted keywords' posting lists as
// single-node fragment sets.
struct PlantedInput {
  std::unique_ptr<doc::Document> document;
  std::unique_ptr<text::InvertedIndex> index;
  FragmentSet set1;
  FragmentSet set2;
};

FragmentSet Singles(const std::vector<doc::NodeId>& nodes) {
  FragmentSet out;
  for (doc::NodeId n : nodes) out.Insert(Fragment::Single(n));
  return out;
}

PlantedInput MakeInput(uint64_t seed, gen::PlantMode mode, size_t count1,
                       size_t count2) {
  gen::CorpusProfile profile;
  profile.target_nodes = 400;
  profile.seed = seed;
  gen::RawCorpus raw = gen::GenerateRaw(profile);
  Rng rng(seed ^ 0x0AC1EULL);
  auto planted1 = gen::PlantKeyword(&raw, "kwone", count1, mode, &rng);
  auto planted2 = gen::PlantKeyword(&raw, "kwtwo", count2, mode, &rng);
  auto document = gen::Materialize(raw);
  EXPECT_TRUE(document.ok());
  PlantedInput input;
  input.document =
      std::make_unique<doc::Document>(std::move(document).value());
  input.index = std::make_unique<text::InvertedIndex>(
      text::InvertedIndex::Build(*input.document));
  input.set1 = Singles(planted1);
  input.set2 = Singles(planted2);
  EXPECT_FALSE(input.set1.empty());
  EXPECT_FALSE(input.set2.empty());
  return input;
}

// Same size, same fragments, same insertion order.
void ExpectIdenticalSets(const FragmentSet& expected, const FragmentSet& got) {
  ASSERT_EQ(expected.size(), got.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(expected[i], got[i])
        << "divergence at position " << i << ": expected "
        << expected[i].ToString() << " vs got " << got[i].ToString();
  }
}

// Definition 5, literally: the double loop over set1 × set2.
FragmentSet ReferencePairwiseJoin(const doc::Document& document,
                                  const FragmentSet& set1,
                                  const FragmentSet& set2) {
  FragmentSet out;
  for (const Fragment& f1 : set1) {
    for (const Fragment& f2 : set2) out.Insert(Join(document, f1, f2));
  }
  return out;
}

// Definition 10 (as the complement, see ops.h): f survives unless two other
// distinct members f', f'' have f ⊆ f' ⋈ f''. Input order is kept.
FragmentSet ReferenceReduce(const doc::Document& document,
                            const FragmentSet& set) {
  FragmentSet out;
  for (size_t i = 0; i < set.size(); ++i) {
    bool eliminated = false;
    for (size_t a = 0; a < set.size() && !eliminated; ++a) {
      if (a == i) continue;
      for (size_t b = a + 1; b < set.size() && !eliminated; ++b) {
        if (b == i) continue;
        eliminated = Join(document, set[a], set[b]).ContainsFragment(set[i]);
      }
    }
    if (!eliminated) out.Insert(set[i]);
  }
  return out;
}

// ⋈ folded over every input member contained in `fragment`.
Fragment JoinOfContainedInputs(const doc::Document& document,
                               const FragmentSet& inputs,
                               const Fragment& fragment) {
  std::vector<Fragment> contained;
  for (const Fragment& input : inputs) {
    if (fragment.ContainsFragment(input)) contained.push_back(input);
  }
  EXPECT_FALSE(contained.empty()) << fragment.ToString();
  if (contained.empty()) return fragment;
  Fragment joined = contained.front();
  for (size_t i = 1; i < contained.size(); ++i) {
    joined = Join(document, joined, contained[i]);
  }
  return joined;
}

const char* PlantModeName(gen::PlantMode mode) {
  switch (mode) {
    case gen::PlantMode::kScattered:
      return "scattered";
    case gen::PlantMode::kClustered:
      return "clustered";
    case gen::PlantMode::kSiblings:
      return "siblings";
  }
  return "unknown";
}

// (seed, keyword placement).
class KernelOracleTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, gen::PlantMode>> {
 protected:
  uint64_t seed() const { return std::get<0>(GetParam()); }
  gen::PlantMode mode() const { return std::get<1>(GetParam()); }
};

TEST_P(KernelOracleTest, PairwiseJoinMatchesDefinition5) {
  PlantedInput input = MakeInput(seed(), mode(), 24, 20);
  OpMetrics metrics;
  FragmentSet got =
      PairwiseJoin(*input.document, input.set1, input.set2, &metrics);
  ExpectIdenticalSets(
      ReferencePairwiseJoin(*input.document, input.set1, input.set2), got);
  const uint64_t pairs = uint64_t{input.set1.size()} * input.set2.size();
  EXPECT_EQ(metrics.fragment_joins, pairs);
  EXPECT_EQ(metrics.fragments_produced, pairs);
}

TEST_P(KernelOracleTest, PairwiseJoinFilteredIsSelectOfJoin) {
  PlantedInput input = MakeInput(seed(), mode(), 24, 20);
  FilterPtr filter = filters::SizeAtMost(6);
  FilterContext context{input.document.get(), input.index.get()};
  OpMetrics metrics;
  FragmentSet got = PairwiseJoinFiltered(*input.document, input.set1,
                                         input.set2, filter, context, &metrics);
  FragmentSet joined = PairwiseJoin(*input.document, input.set1, input.set2);
  ExpectIdenticalSets(Select(joined, filter, context), got);
  for (const Fragment& fragment : got) EXPECT_LE(fragment.size(), 6u);
  // Every pair is enumerated and counts as one logical join, whether the
  // summary prefilter rejected it or the filter did.
  const uint64_t pairs = uint64_t{input.set1.size()} * input.set2.size();
  EXPECT_EQ(metrics.pairs_considered, pairs);
  EXPECT_EQ(metrics.fragment_joins, pairs);
}

TEST_P(KernelOracleTest, ReduceMatchesDefinition10) {
  PlantedInput input = MakeInput(seed(), mode(), 18, 1);
  FragmentSet got = Reduce(*input.document, input.set1);
  ExpectIdenticalSets(ReferenceReduce(*input.document, input.set1), got);
}

TEST_P(KernelOracleTest, FixedPointNaiveIsTheJoinClosure) {
  PlantedInput input = MakeInput(seed(), mode(), 7, 1);
  FragmentSet closure = FixedPointNaive(*input.document, input.set1);
  for (const Fragment& fragment : input.set1) {
    EXPECT_TRUE(closure.Contains(fragment)) << fragment.ToString();
  }
  // Closed: every pair of members joins to a member.
  for (const Fragment& a : closure) {
    for (const Fragment& b : closure) {
      ASSERT_TRUE(closure.Contains(Join(*input.document, a, b)))
          << a.ToString() << " ⋈ " << b.ToString();
    }
  }
  // Minimal: every member is the join of the inputs it contains.
  for (const Fragment& fragment : closure) {
    EXPECT_EQ(JoinOfContainedInputs(*input.document, input.set1, fragment),
              fragment);
  }
}

TEST_P(KernelOracleTest, FixedPointVariantsAgree) {
  PlantedInput input = MakeInput(seed(), mode(), 7, 1);
  FilterContext context{input.document.get(), input.index.get()};
  FragmentSet naive = FixedPointNaive(*input.document, input.set1);
  FragmentSet reduced = FixedPointReduced(*input.document, input.set1);
  FragmentSet unfiltered = FixedPointFiltered(*input.document, input.set1,
                                              filters::True(), context);
  EXPECT_TRUE(naive.SetEquals(reduced))
      << "naive " << naive.size() << " vs reduced " << reduced.size();
  EXPECT_TRUE(naive.SetEquals(unfiltered))
      << "naive " << naive.size() << " vs filtered(true) "
      << unfiltered.size();
}

TEST_P(KernelOracleTest, FixedPointFilteredIsSelectOfClosure) {
  // Theorem 3: an anti-monotonic filter pushed into every iteration yields
  // σ_P(F⁺).
  PlantedInput input = MakeInput(seed(), mode(), 7, 1);
  FilterPtr filter = filters::SizeAtMost(8);
  ASSERT_TRUE(filter->anti_monotonic());
  FilterContext context{input.document.get(), input.index.get()};
  FragmentSet pushed =
      FixedPointFiltered(*input.document, input.set1, filter, context);
  FragmentSet selected =
      Select(FixedPointNaive(*input.document, input.set1), filter, context);
  EXPECT_TRUE(pushed.SetEquals(selected))
      << "pushed " << pushed.size() << " vs selected " << selected.size();
}

TEST_P(KernelOracleTest, PowersetJoinTheorem2MatchesBruteForce) {
  // Theorem 2: F1 ⋈* F2 = F1⁺ ⋈ F2⁺. Operands are cut to five members so
  // the brute-force side stays at 31 × 31 subset pairs.
  PlantedInput input = MakeInput(seed(), mode(), 5, 5);
  auto brute =
      PowersetJoinBruteForce(*input.document, input.set1, input.set2);
  ASSERT_TRUE(brute.ok()) << brute.status().ToString();
  FragmentSet via_fixed_point =
      PowersetJoinViaFixedPoint(*input.document, input.set1, input.set2);
  EXPECT_TRUE(brute->SetEquals(via_fixed_point))
      << "brute " << brute->size() << " vs fixed point "
      << via_fixed_point.size();
}

TEST_P(KernelOracleTest, PairwiseJoinTopKIsSortedUnboundedPrefix) {
  PlantedInput input = MakeInput(seed(), mode(), 24, 20);
  FilterPtr filter = filters::SizeAtMost(6);
  FilterContext context{input.document.get(), input.index.get()};
  // The serving scorer.
  query::AnswerScorer scorer({"kwone", "kwtwo"}, *input.document,
                             *input.index);
  std::vector<ScoredFragment> unbounded;
  for (const Fragment& fragment :
       PairwiseJoinFiltered(*input.document, input.set1, input.set2, filter,
                            context)) {
    unbounded.push_back({fragment, scorer.Score(fragment)});
  }
  std::sort(unbounded.begin(), unbounded.end(), OutranksScored);
  for (size_t k : {size_t{1}, size_t{5}, size_t{1000}}) {
    TopKCollector collector(k);
    OpMetrics metrics;
    PairwiseJoinTopK(*input.document, input.set1, input.set2, filter, context,
                     scorer, {}, &collector, &metrics);
    auto got = collector.TakeSorted();
    ASSERT_EQ(got.size(), std::min(k, unbounded.size())) << "k=" << k;
    for (size_t i = 0; i < got.size(); ++i) {
      // Same fragments, same doubles, same order.
      ASSERT_EQ(got[i].fragment, unbounded[i].fragment)
          << "k=" << k << " position " << i;
      ASSERT_EQ(got[i].score, unbounded[i].score)
          << "k=" << k << " position " << i;
    }
    // Pruning skips work per pair, never pairs.
    EXPECT_EQ(metrics.pairs_considered,
              uint64_t{input.set1.size()} * input.set2.size());
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsByPlacement, KernelOracleTest,
    ::testing::Combine(::testing::Values(uint64_t{21}, uint64_t{22},
                                         uint64_t{23}, uint64_t{24},
                                         uint64_t{25}, uint64_t{26}),
                       ::testing::Values(gen::PlantMode::kScattered,
                                         gen::PlantMode::kClustered,
                                         gen::PlantMode::kSiblings)),
    [](const ::testing::TestParamInfo<KernelOracleTest::ParamType>& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_" +
             PlantModeName(std::get<1>(info.param));
    });

}  // namespace
}  // namespace xfrag::algebra

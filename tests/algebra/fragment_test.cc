#include "algebra/fragment.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "../testutil.h"
#include "algebra/fragment_set.h"

namespace xfrag::algebra {
namespace {

using testutil::Frag;
using testutil::TreeFromParents;

// Fixture (ids are pre-order):
//        0
//       / \.
//      1   5
//     /|\   \.
//    2 3 4   6
//            |
//            7
doc::Document Fixture() {
  return TreeFromParents({doc::kNoNode, 0, 1, 1, 1, 0, 5, 6});
}

TEST(FragmentTest, CreateValidatesConnectivity) {
  doc::Document d = Fixture();
  EXPECT_TRUE(Fragment::Create(d, {1, 2, 3}).ok());
  EXPECT_TRUE(Fragment::Create(d, {0, 1, 5}).ok());
  EXPECT_TRUE(Fragment::Create(d, {7}).ok());
  // 2 and 4 are siblings without their parent: disconnected.
  EXPECT_FALSE(Fragment::Create(d, {2, 4}).ok());
  // 0 and 7 without the 5,6 chain: disconnected.
  EXPECT_FALSE(Fragment::Create(d, {0, 7}).ok());
}

TEST(FragmentTest, CreateRejectsEmptyAndOutOfRange) {
  doc::Document d = Fixture();
  EXPECT_FALSE(Fragment::Create(d, {}).ok());
  EXPECT_EQ(Fragment::Create(d, {99}).status().code(),
            StatusCode::kOutOfRange);
}

TEST(FragmentTest, CreateSortsAndDeduplicates) {
  doc::Document d = Fixture();
  auto f = Fragment::Create(d, {3, 1, 2, 3, 1});
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->nodes(), (std::vector<doc::NodeId>{1, 2, 3}));
  EXPECT_EQ(f->size(), 3u);
}

TEST(FragmentTest, RootIsMinimalPreOrderId) {
  doc::Document d = Fixture();
  EXPECT_EQ(Frag(d, {5, 6, 7}).root(), 5u);
  EXPECT_EQ(Frag(d, {0, 1, 5}).root(), 0u);
  EXPECT_EQ(Fragment::Single(4).root(), 4u);
}

TEST(FragmentTest, ContainsNodeAndFragment) {
  doc::Document d = Fixture();
  Fragment f = Frag(d, {1, 2, 3, 4});
  EXPECT_TRUE(f.ContainsNode(3));
  EXPECT_FALSE(f.ContainsNode(5));
  EXPECT_TRUE(f.ContainsFragment(Frag(d, {1, 3})));
  EXPECT_TRUE(f.ContainsFragment(f));
  EXPECT_FALSE(f.ContainsFragment(Frag(d, {0, 1})));
  EXPECT_FALSE(Frag(d, {1, 3}).ContainsFragment(f));
}

TEST(FragmentTest, EqualityAndHash) {
  doc::Document d = Fixture();
  Fragment a = Frag(d, {1, 2});
  Fragment b = Frag(d, {2, 1});
  Fragment c = Frag(d, {1, 3});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_NE(a, c);
  EXPECT_NE(a.Hash(), c.Hash());  // Not guaranteed, but should hold here.
}

TEST(FragmentTest, OrderingIsLexicographic) {
  doc::Document d = Fixture();
  EXPECT_LT(Frag(d, {0, 1}), Frag(d, {1, 2}));
  EXPECT_LT(Frag(d, {1, 2}), Frag(d, {1, 2, 3}));
  EXPECT_FALSE(Frag(d, {1, 2}) < Frag(d, {1, 2}));
}

TEST(FragmentTest, ToStringUsesPaperNotation) {
  doc::Document d = Fixture();
  EXPECT_EQ(Frag(d, {5, 6, 7}).ToString(), "⟨n5,n6,n7⟩");
  EXPECT_EQ(Fragment::Single(0).ToString(), "⟨n0⟩");
}

TEST(FragmentMetricsTest, Height) {
  doc::Document d = Fixture();
  EXPECT_EQ(FragmentHeight(Fragment::Single(3), d), 0u);
  EXPECT_EQ(FragmentHeight(Frag(d, {1, 2}), d), 1u);
  EXPECT_EQ(FragmentHeight(Frag(d, {0, 5, 6, 7}), d), 3u);
  EXPECT_EQ(FragmentHeight(Frag(d, {5, 6, 7}), d), 2u);
}

TEST(FragmentMetricsTest, Span) {
  doc::Document d = Fixture();
  EXPECT_EQ(FragmentSpan(Fragment::Single(3)), 0u);
  EXPECT_EQ(FragmentSpan(Frag(d, {1, 2, 3})), 2u);
  EXPECT_EQ(FragmentSpan(Frag(d, {0, 1, 5})), 5u);
}

TEST(FragmentMetricsTest, Leaves) {
  doc::Document d = Fixture();
  EXPECT_EQ(FragmentLeaves(Frag(d, {1, 2, 3, 4}), d),
            (std::vector<doc::NodeId>{2, 3, 4}));
  EXPECT_EQ(FragmentLeaves(Frag(d, {5, 6, 7}), d),
            (std::vector<doc::NodeId>{7}));
  EXPECT_EQ(FragmentLeaves(Fragment::Single(0), d),
            (std::vector<doc::NodeId>{0}));
  // Node 1 is internal (2 hangs below it); 5 is a leaf of the fragment even
  // though it has children in the document.
  EXPECT_EQ(FragmentLeaves(Frag(d, {0, 1, 2, 5}), d),
            (std::vector<doc::NodeId>{2, 5}));
}

// The summary header must agree with a brute-force scan of the node vector.
TEST(FragmentSummaryTest, MatchesBruteForceScan) {
  doc::Document d = Fixture();
  for (const auto& nodes : std::vector<std::vector<doc::NodeId>>{
           {7}, {1, 2, 3, 4}, {0, 1, 5, 6, 7}, {5, 6}}) {
    Fragment f = Frag(d, nodes);
    FragmentSummary s = f.Summary(d);
    EXPECT_EQ(s.size, nodes.size());
    EXPECT_EQ(s.root, *std::min_element(nodes.begin(), nodes.end()));
    EXPECT_EQ(s.min_pre, *std::min_element(nodes.begin(), nodes.end()));
    EXPECT_EQ(s.max_pre, *std::max_element(nodes.begin(), nodes.end()));
    uint32_t max_depth = 0;
    for (doc::NodeId n : nodes) max_depth = std::max(max_depth, d.depth(n));
    EXPECT_EQ(s.max_depth, max_depth);
    EXPECT_EQ(s.root_depth, d.depth(s.root));
  }
}

// The hash is computed once at construction; FragmentSet dedup must reuse
// it instead of rescanning nodes.
TEST(FragmentHashTest, InterningDoesNotRecomputeHashes) {
  doc::Document d = Fixture();
  std::vector<Fragment> frags;
  frags.push_back(Frag(d, {1, 2, 3}));
  frags.push_back(Frag(d, {0, 1, 5}));
  frags.push_back(Frag(d, {5, 6, 7}));
  frags.push_back(Frag(d, {1, 2, 3}));  // Duplicate of the first.

  uint64_t before = Fragment::HashComputationsForTest();
  FragmentSet set;
  for (const Fragment& f : frags) set.Insert(f);
  EXPECT_EQ(set.size(), 3u);
  // Copies share the precomputed hash; no node vector was rescanned.
  EXPECT_EQ(Fragment::HashComputationsForTest(), before);
}

}  // namespace
}  // namespace xfrag::algebra

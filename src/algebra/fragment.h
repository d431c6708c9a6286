// The paper's Definition 2: a document fragment is a subset of document nodes
// whose induced subgraph is a rooted (connected) tree. Fragments are the value
// type of the whole algebra; they are immutable and canonical (sorted
// pre-order ids), so equality and hashing are structural.
//
// Every fragment carries a constant-size *summary header*: its size, root,
// pre-order interval [min,max], maximum member depth, and a 64-bit structural
// hash computed exactly once at construction. The summary is what makes the
// hot kernels cheap: joins can be rejected in O(1) against an anti-monotonic
// filter before any node vector is touched (ops.h), subsumption checks in
// ⊖(F) are prefiltered by interval containment, and set/pool deduplication
// reuses the cached hash instead of rescanning nodes.

#ifndef XFRAG_ALGEBRA_FRAGMENT_H_
#define XFRAG_ALGEBRA_FRAGMENT_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "doc/document.h"

namespace xfrag::algebra {

using doc::Document;
using doc::NodeId;

/// \brief The constant-size structural summary of a fragment.
///
/// All fields are derivable from the member node ids plus the document;
/// `min_pre` equals `root` because node ids are pre-order ranks and the root
/// is the minimal member. `max_depth` is the absolute document depth of the
/// deepest member, so height(f) = max_depth − root_depth.
struct FragmentSummary {
  uint32_t size = 0;
  NodeId root = 0;
  NodeId min_pre = 0;
  NodeId max_pre = 0;
  uint32_t root_depth = 0;
  uint32_t max_depth = 0;
};

/// \brief An immutable, canonical document fragment.
///
/// Invariants: node ids are sorted ascending and unique; the induced subgraph
/// is connected. Because ids are pre-order ranks, the fragment's root (the
/// unique member that is an ancestor-or-self of all members) is always the
/// first id.
class Fragment {
 public:
  /// \brief Validates connectivity and builds a fragment.
  ///
  /// Returns InvalidArgument when `nodes` is empty, contains an id out of
  /// range, or induces a disconnected subgraph. The summary header (including
  /// max depth) is fully populated.
  static StatusOr<Fragment> Create(const Document& document,
                                   std::vector<NodeId> nodes);

  /// \brief Single-node fragment (the paper calls these simply "nodes").
  ///
  /// Max depth is left unknown (no document in scope); Summary() recovers it
  /// in O(1) from the document when needed.
  static Fragment Single(NodeId node) {
    return Fragment(std::vector<NodeId>{node});
  }

  /// \brief Builds from nodes already known to be sorted, unique, and
  /// connected (used by the join kernels). Not validated in release builds.
  static Fragment FromSortedUnchecked(std::vector<NodeId> nodes) {
    return Fragment(std::move(nodes));
  }

  /// \brief Like FromSortedUnchecked, but records the known maximum member
  /// depth so the summary is O(1) complete — the join kernels derive it from
  /// their inputs' summaries without rescanning the produced nodes.
  static Fragment FromSortedUnchecked(std::vector<NodeId> nodes,
                                      uint32_t max_depth) {
    Fragment f(std::move(nodes));
    f.max_depth_ = max_depth;
    return f;
  }

  /// Sorted member node ids.
  const std::vector<NodeId>& nodes() const { return nodes_; }

  /// Number of nodes — the paper's size(f) (§3.3.1).
  size_t size() const { return nodes_.size(); }

  /// The fragment's root node (the minimal pre-order member).
  NodeId root() const { return nodes_.front(); }

  /// Smallest / largest member pre-order id — the fragment's interval.
  NodeId min_pre() const { return nodes_.front(); }
  NodeId max_pre() const { return nodes_.back(); }

  /// True when the max-depth summary field was recorded at construction.
  bool has_max_depth() const { return max_depth_ != kUnknownMaxDepth; }

  /// \brief Absolute document depth of the deepest member.
  ///
  /// O(1) when recorded at construction (Create and the join kernels) or the
  /// fragment is a single node; otherwise one O(|f|) scan.
  uint32_t MaxDepth(const Document& document) const {
    if (max_depth_ != kUnknownMaxDepth) return max_depth_;
    if (nodes_.size() == 1) return document.depth(nodes_.front());
    uint32_t max_depth = 0;
    for (NodeId n : nodes_) max_depth = std::max(max_depth, document.depth(n));
    return max_depth;
  }

  /// \brief The full summary header; O(1) except when MaxDepth must scan.
  FragmentSummary Summary(const Document& document) const {
    FragmentSummary s;
    s.size = static_cast<uint32_t>(nodes_.size());
    s.root = nodes_.front();
    s.min_pre = nodes_.front();
    s.max_pre = nodes_.back();
    s.root_depth = document.depth(s.root);
    s.max_depth = MaxDepth(document);
    return s;
  }

  /// True iff `node` is a member.
  bool ContainsNode(NodeId node) const {
    return std::binary_search(nodes_.begin(), nodes_.end(), node);
  }

  /// True iff every node of `other` is a member (f' ⊆ f).
  bool ContainsFragment(const Fragment& other) const {
    return std::includes(nodes_.begin(), nodes_.end(), other.nodes_.begin(),
                         other.nodes_.end());
  }

  /// Structural equality.
  bool operator==(const Fragment& other) const {
    return hash_ == other.hash_ && nodes_ == other.nodes_;
  }
  bool operator!=(const Fragment& other) const { return !(*this == other); }

  /// Deterministic ordering (lexicographic on node ids), for stable output.
  bool operator<(const Fragment& other) const { return nodes_ < other.nodes_; }

  /// 64-bit structural hash, computed once at construction and cached —
  /// FragmentSet lookups never rescan the nodes.
  uint64_t Hash() const { return hash_; }

  /// Total number of O(|f|) hash computations performed process-wide.
  /// Test hook for the "hash once at construction" guarantee.
  static uint64_t HashComputationsForTest();

  /// "⟨n16,n17,n18⟩" — the paper's fragment notation.
  std::string ToString() const;

 private:
  static constexpr uint32_t kUnknownMaxDepth = static_cast<uint32_t>(-1);

  static uint64_t ComputeHash(const std::vector<NodeId>& nodes);

  explicit Fragment(std::vector<NodeId> nodes)
      : nodes_(std::move(nodes)), hash_(ComputeHash(nodes_)) {}

  std::vector<NodeId> nodes_;
  uint64_t hash_ = 0;
  uint32_t max_depth_ = kUnknownMaxDepth;
};

/// \brief Vertical distance between the fragment root and its deepest node —
/// the paper's height(f) (§3.3.2).
uint32_t FragmentHeight(const Fragment& fragment, const Document& document);

/// \brief Horizontal extent of the fragment, formalised as the pre-order span
/// `max_pre − min_pre` between the leftmost and rightmost member (§3.3.2;
/// see DESIGN.md on this substitution).
uint32_t FragmentSpan(const Fragment& fragment);

/// \brief The member nodes that are leaves of the fragment's induced tree
/// (no member is their child). Used by Definition 8's leaf condition.
std::vector<NodeId> FragmentLeaves(const Fragment& fragment,
                                   const Document& document);

}  // namespace xfrag::algebra

#endif  // XFRAG_ALGEBRA_FRAGMENT_H_

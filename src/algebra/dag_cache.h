// Kernel-side machinery for DAG-compressed (class-aware) evaluation.
//
// A SubtreeClassIndex (doc/subtree_classes.h) marks every node's duplication
// anchor: the highest ancestor-or-self whose subtree occurs >= 2 times in the
// document. A fragment whose root has an anchor lives entirely inside one
// occurrence of that duplicated subtree; its *local form* — (class of the
// anchor, depth of the anchor, member offsets relative to the anchor) —
// identifies the fragment up to which occurrence it lives in. Two fragments
// with equal local forms are translates of each other inside isomorphic,
// equally-deep copies of the same subtree.
//
// The join kernels exploit this: for a candidate pair whose two fragments
// share one duplication anchor, the entire evaluation outcome (summary
// prefilter verdict, the join itself, the pushed filter, the acceptance
// predicate, the exact score) is a function of the two local forms only —
// every structural primitive involved (LCA, connecting paths, depths, sizes,
// textual content, posting membership) commutes with the subtree isomorphism.
// So the kernel evaluates one representative pair per (form, form) key and
// *replays* the outcome for every other occurrence: counters advance by
// exactly the deltas the real evaluation would have produced, and surviving
// answers are multiplied out by re-basing the recorded offsets onto the
// pair's own anchor. See docs/ALGEBRA.md, "DAG-compressed evaluation".
//
// Validity requires every predicate involved to be translation-invariant
// (Filter::TranslationInvariant); callers gate on DagUsable before passing a
// SubtreeClassIndex into a kernel.

#ifndef XFRAG_ALGEBRA_DAG_CACHE_H_
#define XFRAG_ALGEBRA_DAG_CACHE_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "algebra/filter.h"
#include "algebra/fragment_set.h"
#include "doc/subtree_classes.h"

namespace xfrag::algebra {

/// Sentinel: the fragment has no duplication anchor, so no class-level
/// outcome can be shared with any other fragment.
inline constexpr uint32_t kNoLocalForm = 0xFFFFFFFFu;

/// \brief Interner of fragment local forms for one (document, class index).
///
/// Not thread-safe; each kernel invocation owns one (FixedPointFiltered keeps
/// one across its iterations).
class DagFormTable {
 public:
  DagFormTable(const Document& document, const doc::SubtreeClassIndex& dag)
      : document_(document), dag_(dag) {}

  /// Local-form id of `f`, interning a new id on first sight. Returns
  /// kNoLocalForm (and leaves `*anchor_out` alone) when f's root has no
  /// duplication anchor; otherwise stores the anchor in `*anchor_out`.
  uint32_t Intern(const Fragment& f, NodeId* anchor_out);

  /// Interns every member of `set`; parallel arrays of form ids and anchors.
  void InternSet(const FragmentSet& set, std::vector<uint32_t>* forms,
                 std::vector<NodeId>* anchors);

  /// Distinct local forms interned so far.
  size_t size() const { return ids_.size(); }

 private:
  struct FormKey {
    doc::SubtreeClassId anchor_class = 0;
    uint32_t anchor_depth = 0;
    std::vector<NodeId> rel_nodes;  // member - anchor, ascending
    bool operator==(const FormKey& o) const {
      return anchor_class == o.anchor_class && anchor_depth == o.anchor_depth &&
             rel_nodes == o.rel_nodes;
    }
  };
  struct FormKeyHash {
    size_t operator()(const FormKey& k) const;
  };

  const Document& document_;
  const doc::SubtreeClassIndex& dag_;
  std::unordered_map<FormKey, uint32_t, FormKeyHash> ids_;
};

/// \brief Recorded outcome of one representative pair evaluation.
struct DagPairOutcome {
  enum Kind : uint8_t {
    /// The summary prefilter rejected the pair in O(1).
    kPrefilterRejected,
    /// The join was materialized and the pushed filter rejected it.
    kFilterRejected,
    /// (Top-k kernel) the join passed the filter but the acceptance
    /// predicate rejected it.
    kAcceptRejected,
    /// The join passed every predicate; `rel_nodes`/`rel_max_depth` hold its
    /// shape relative to the pair's anchor, `score` its exact score (top-k
    /// kernel only).
    kSurvived,
  };
  Kind kind = kSurvived;
  std::vector<NodeId> rel_nodes;
  uint32_t rel_max_depth = 0;
  double score = 0.0;
};

/// Pair-outcome cache, keyed by the two operands' local-form ids.
using DagOutcomeMap = std::unordered_map<uint64_t, DagPairOutcome>;

inline uint64_t DagPairKey(uint32_t form1, uint32_t form2) {
  return (static_cast<uint64_t>(form1) << 32) | form2;
}

/// \brief Re-bases a recorded survivor onto `anchor`.
Fragment TranslateOutcome(const DagPairOutcome& outcome, NodeId anchor,
                          uint32_t anchor_depth);

/// \brief True when the class-aware path may run: the caller passed a class
/// index (passing none is how DAG compression is switched off), the document
/// actually contains duplicated subtrees, and the pushed filter commutes
/// with subtree translation. Callers with additional opaque predicates (the
/// top-k acceptance lambda, the scorer) are responsible for only passing a
/// class index alongside translation-invariant ones.
bool DagUsable(const doc::SubtreeClassIndex* dag, const FilterPtr& filter);

}  // namespace xfrag::algebra

#endif  // XFRAG_ALGEBRA_DAG_CACHE_H_

// Selection predicates — the paper's "filters" (Definition 3, §3.3, §3.4).
//
// Each filter knows whether it is anti-monotonic (Definition 11:
// P(f) = true implies P(f') = true for every sub-fragment f' ⊆ f). The
// query optimizer relies on this flag for Theorem 3's selection push-down,
// so the flag is conservative: a composite filter only claims
// anti-monotonicity when the paper's closure results guarantee it
// (conjunction and disjunction preserve it; negation does not).

#ifndef XFRAG_ALGEBRA_FILTER_H_
#define XFRAG_ALGEBRA_FILTER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "algebra/fragment.h"
#include "text/inverted_index.h"

namespace xfrag::algebra {

/// Evaluation context handed to every filter.
struct FilterContext {
  /// The document the fragments belong to. Never null.
  const Document* document = nullptr;
  /// Keyword index; may be null for purely structural filters.
  const text::InvertedIndex* index = nullptr;
};

class Filter;
/// Filters are immutable and shared.
using FilterPtr = std::shared_ptr<const Filter>;

/// \brief O(1) structural facts about a prospective join f1 ⋈ f2, computed
/// from the operands' summary headers *before* the join is materialized
/// (ComputeJoinBounds in ops.h).
///
/// `height`, `span` and `root_depth` are exact: the joined fragment is rooted
/// at lca(r1, r2), its pre-order interval is [lca, max(max1, max2)], and no
/// connecting-path node is deeper than an operand member. `size_lower` is a
/// lower bound: the join contains each operand, that operand root's strict
/// ancestors down to the LCA, and — whenever the operand root is not the LCA
/// itself — the other root's path below the LCA too (any overlap between
/// those pieces would imply a common ancestor deeper than the LCA).
/// `roots_distance` is the exact tree distance between the two operand roots,
/// both members of the join, so it lower-bounds the join's diameter. Theorem
/// 3's anti-monotonic filters therefore reject with certainty when a bound
/// already violates their threshold.
struct JoinBounds {
  /// size(f1 ⋈ f2) ≥ size_lower.
  uint32_t size_lower = 0;
  /// Minimal pre-order member of f1 ⋈ f2 — lca(r1, r2), exactly. Together
  /// with `span` this gives the join's exact pre-order interval
  /// [min_pre, min_pre + span], which the top-k score bound intersects with
  /// per-term posting lists (see docs/ALGEBRA.md "Top-k and score bounds").
  uint32_t min_pre = 0;
  /// height(f1 ⋈ f2), exactly.
  uint32_t height = 0;
  /// Pre-order span of f1 ⋈ f2, exactly.
  uint32_t span = 0;
  /// depth(root(f1 ⋈ f2)) = depth(lca(r1, r2)), exactly.
  uint32_t root_depth = 0;
  /// distance(r1, r2) — a lower bound on the join's diameter.
  uint32_t roots_distance = 0;
};

/// \brief Abstract selection predicate over fragments.
class Filter {
 public:
  virtual ~Filter() = default;

  /// True iff `fragment` satisfies the predicate.
  virtual bool Matches(const Fragment& fragment,
                       const FilterContext& context) const = 0;

  /// True iff the filter is anti-monotonic (Definition 11). Conservative:
  /// false means "not guaranteed", not "provably monotone".
  virtual bool anti_monotonic() const = 0;

  /// \brief True when the filter can prove, from the summary bounds alone,
  /// that the join those bounds describe cannot satisfy it.
  ///
  /// Sound, never complete: `true` guarantees Matches(f1 ⋈ f2) is false
  /// (so the join kernels may skip materializing the join entirely), while
  /// `false` only means "cannot tell from O(1) facts". The default never
  /// rejects; conjunction rejects when either operand does, disjunction only
  /// when both do.
  virtual bool RejectsJoinBounds(const JoinBounds& bounds,
                                 const FilterContext& context) const {
    (void)bounds;
    (void)context;
    return false;
  }

  /// \brief The shallowest join-root depth this filter can still accept for
  /// f1 joined with a partner rooted at depth `partner_root_depth`.
  ///
  /// Returns a depth L such that every pair (f1, f2) whose f2 root sits at
  /// `partner_root_depth` and whose depth(lca(root(f1), root(f2))) < L is
  /// rejected by RejectsJoinBounds(ComputeJoinBounds(...)). The join kernels
  /// turn L into a pre-order window — the subtree of root(f1)'s ancestor at
  /// depth L, empty when L exceeds s1.root_depth — and count every partner
  /// root outside it as summary-rejected without computing its bounds
  /// (docs/ALGEBRA.md, "Root windows"). Sound, never complete, like
  /// RejectsJoinBounds: the default 0 means "no window". Conjunction takes
  /// the maximum of its operands, disjunction the minimum.
  virtual uint32_t MinJoinRootDepth(const FragmentSummary& s1,
                                    uint32_t partner_root_depth) const {
    (void)s1;
    (void)partner_root_depth;
    return 0;
  }

  /// \brief True when the predicate commutes with subtree translation: for
  /// fragments f, f' at the same offsets inside isomorphic, equally-deep
  /// copies of one subtree (same tags, texts, and shape — a subtree
  /// equivalence class of doc/subtree_classes.h), Matches(f) == Matches(f')
  /// and RejectsJoinBounds agrees on their pairs' bounds.
  ///
  /// This licenses DAG-compressed evaluation (docs/ALGEBRA.md): a filter
  /// verdict computed for one occurrence is replayed for every other. Every
  /// built-in filter qualifies — they depend only on fragment shape, member
  /// depths, content, and keyword containment, all preserved by the
  /// isomorphism — so the default is true; a custom filter that reads
  /// absolute pre-order positions (beyond what depth/shape determine) must
  /// override this to false, and composites must not claim invariance
  /// unless every child does.
  virtual bool TranslationInvariant() const { return true; }

  /// Human-readable form, e.g. "size<=3 & height<=2".
  virtual std::string ToString() const = 0;

  /// \brief Appends this filter's top-level conjuncts to `out`.
  ///
  /// The default appends `this`; conjunctions recurse, letting the optimizer
  /// split a filter into its anti-monotonic part and a residue.
  virtual void CollectConjuncts(std::vector<FilterPtr>* out,
                                const FilterPtr& self) const;
};

namespace filters {

/// Filter that accepts every fragment. Anti-monotonic (vacuously).
FilterPtr True();

/// size(f) <= beta (§3.3.1). Anti-monotonic.
FilterPtr SizeAtMost(uint32_t beta);

/// height(f) <= h (§3.3.2). Anti-monotonic.
FilterPtr HeightAtMost(uint32_t h);

/// Pre-order span of f <= w — the paper's horizontal "width" (§3.3.2).
/// Anti-monotonic.
FilterPtr SpanAtMost(uint32_t w);

/// size(f) >= beta — the paper's first non-anti-monotonic example (§3.4:
/// "fragments consisting of nodes whose number is greater than a certain
/// value").
FilterPtr SizeAtLeast(uint32_t beta);

/// Maximum tree distance (edges) between any two nodes of f is <= d. §3.3.2
/// motivates distance between nodes as a proximity measure; the maximum over
/// a subset can only shrink, so this is anti-monotonic. Evaluated in O(|f|)
/// as the diameter of the induced subtree.
FilterPtr DistanceAtMost(uint32_t d);

/// Every node of f has a tag in `allowed`. Anti-monotonic (node subsets keep
/// the property) — an example of a structural vocabulary filter ("only
/// sections and paragraphs").
FilterPtr TagsWithin(std::vector<std::string> allowed);

/// The fragment root's depth in the document is >= d ("answers no shallower
/// than a subsection"). Anti-monotonic: every member of a fragment — hence
/// every sub-fragment's root — is a descendant-or-self of its root, so root
/// depth can only grow when shrinking a fragment.
FilterPtr RootDepthAtLeast(uint32_t d);

/// The fragment root's depth is <= d. NOT anti-monotonic (the mirror image:
/// sub-fragments are rooted deeper, so a passing fragment can have failing
/// sub-fragments).
FilterPtr RootDepthAtMost(uint32_t d);

/// The paper's "equal depth filter" (§3.4, Figure 7): every node of f
/// containing `term1` lies at the same depth (relative to the fragment root)
/// as every node containing `term2`. Requires an index in the context.
/// NOT anti-monotonic — Figure 7's counterexample is reproduced in the tests.
FilterPtr EqualDepth(std::string term1, std::string term2);

/// Some node of f contains `term` (k ∈ keywords(n) for some n ∈ f). This is
/// the paper's 'keyword = k' selection when applied to single-node fragments.
/// Monotone rather than anti-monotonic, hence not push-down-safe.
FilterPtr ContainsKeyword(std::string term);

/// The fragment root's tag equals `tag`. Not anti-monotonic (sub-fragments
/// have different roots).
FilterPtr RootTagIs(std::string tag);

/// Conjunction; anti-monotonic iff both operands are (paper §3.3).
FilterPtr And(FilterPtr a, FilterPtr b);

/// Disjunction; anti-monotonic iff both operands are (paper §3.3).
FilterPtr Or(FilterPtr a, FilterPtr b);

/// Negation; never claims anti-monotonicity (paper §3.3 excludes it).
FilterPtr Not(FilterPtr inner);

/// Conjunction of all `conjuncts` (True() when empty).
FilterPtr AndAll(const std::vector<FilterPtr>& conjuncts);

}  // namespace filters

/// \brief Splits `filter` into its anti-monotonic top-level conjuncts and the
/// rest. `anti_monotonic` receives True() when no conjunct qualifies, and
/// likewise for `residue`; (anti ∧ residue) ≡ filter.
void SplitAntiMonotonic(const FilterPtr& filter, FilterPtr* anti_monotonic,
                        FilterPtr* residue);

}  // namespace xfrag::algebra

#endif  // XFRAG_ALGEBRA_FILTER_H_

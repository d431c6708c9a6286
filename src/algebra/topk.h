// Top-k machinery for score-bounded enumeration (docs/ALGEBRA.md, "Top-k and
// score bounds").
//
// A JoinScorer assigns every fragment an exact relevance score and, crucially,
// can bound from above the score of a *prospective* join f1 ⋈ f2 using only
// the O(1) JoinBounds computed from the operands' summary headers — before
// the join is materialized. The bound is anti-monotonic in spirit: growing a
// fragment can only add penalty and cannot add term hits beyond what its
// pre-order interval admits, so `UpperBound(bounds) >= Score(f1 ⋈ f2)` always.
//
// A TopKCollector is a fixed-capacity min-heap of the current k best scored
// fragments under the total order (score descending, canonical fragment order
// ascending). Because the order is total and duplicates are rejected, the
// collector's final content is a pure function of the *set* of offered
// (fragment, score) pairs — independent of offer order. That is what lets a
// seeded, warmed-up or live floor prune pairs without changing the result:
// a pruned pair could not have entered even the fuller final heap.

#ifndef XFRAG_ALGEBRA_TOPK_H_
#define XFRAG_ALGEBRA_TOPK_H_

#include <cstdint>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algebra/filter.h"
#include "algebra/fragment.h"

namespace xfrag::algebra {

/// \brief Exact scorer plus a sound O(1) score upper bound for joins.
///
/// Score and UpperBound must be logically const and touch only read-only
/// state, so every call on the same input returns the same value.
class JoinScorer {
 public:
  virtual ~JoinScorer() = default;

  /// The exact relevance score of `fragment`. Must be deterministic: the
  /// same fragment always yields the bit-identical double.
  virtual double Score(const Fragment& fragment) const = 0;

  /// \brief An upper bound on Score(f1 ⋈ f2) computed from the join's
  /// summary bounds alone.
  ///
  /// Soundness contract: for every pair (f1, f2) with bounds
  /// b = ComputeJoinBounds(doc, s1, s2), UpperBound(b) >= Score(f1 ⋈ f2).
  /// The kernels reject a pair only when the bound is *strictly* below the
  /// current k-th best score, so ties are never wrongly pruned.
  virtual double UpperBound(const JoinBounds& bounds) const = 0;

  /// \brief A cheaper (and weaker) bound tried before UpperBound.
  ///
  /// The kernels evaluate bounds coarsest-first: a pair rejected by
  /// QuickUpperBound never pays for UpperBound (which may, e.g., binary-search
  /// posting lists). Must satisfy the same soundness contract —
  /// QuickUpperBound(b) >= Score(f1 ⋈ f2) — which UpperBound already
  /// guarantees, so overriding is optional; the default is "no information".
  virtual double QuickUpperBound(const JoinBounds& bounds) const;

  /// \brief Opt-in to the per-fragment *evidence* bound (see below).
  ///
  /// Interval bounds (QuickUpperBound / UpperBound) look only at where a
  /// join could sit; they charge it for every scoring opportunity inside its
  /// pre-order interval, which is hopeless for pairs that straddle most of a
  /// document. The evidence bound instead charges a prospective join only
  /// for what its *operands* can actually reach: every member of f1 ⋈ f2 is
  /// an ancestor-or-self of some member of f1 ∪ f2 (the join is a union of
  /// tree paths, and each node on a path between u and v is an ancestor of
  /// u or of v), so any per-fragment score contribution of the join is
  /// bounded by the operands' ancestor-closure contributions. Scorers that
  /// can express their score that way return true here; the kernels then
  /// precompute FragmentEvidence once per *input* fragment and combine two
  /// summaries per pair in O(summary size).
  virtual bool HasEvidenceBound() const { return false; }

  /// \brief A per-fragment evidence summary for EvidenceUpperBound.
  ///
  /// Opaque to the kernels: they only pass it back to EvidenceUpperBound of
  /// the same scorer. Called once per input fragment (never per pair), so it
  /// may do real work — e.g. count, per query term, the posting nodes whose
  /// subtree contains a member of `fragment`. Only consulted when
  /// HasEvidenceBound() is true.
  virtual std::vector<double> FragmentEvidence(
      const Fragment& /*fragment*/) const {
    return {};
  }

  /// \brief An upper bound on Score(f1 ⋈ f2) from the operands' evidence
  /// summaries plus the join's summary bounds.
  ///
  /// Soundness contract: for every pair (f1, f2),
  /// EvidenceUpperBound(FragmentEvidence(f1), FragmentEvidence(f2), b)
  /// >= Score(f1 ⋈ f2). The kernels take the minimum with the interval
  /// bounds implicitly by testing each against the collector separately.
  virtual double EvidenceUpperBound(const std::vector<double>& left,
                                    const std::vector<double>& right,
                                    const JoinBounds& bounds) const {
    (void)left;
    (void)right;
    (void)bounds;
    return std::numeric_limits<double>::infinity();
  }

  /// \brief An upper bound on Score(f1 ⋈ f2) for a fixed f1 and f2 ranging
  /// over a whole set.
  ///
  /// `right_max` is the termwise maximum of the set's FragmentEvidence
  /// summaries and `join_size_lower` a lower bound on |f1 ⋈ f2| valid for
  /// every f2 in the set (e.g. |f1|). Soundness contract: the result
  /// dominates EvidenceUpperBound(left, FragmentEvidence(f2), b) — and hence
  /// Score(f1 ⋈ f2) — for every f2 in the set, at the computed-doubles
  /// level. The kernels use it twice: with the true termwise maximum to skip
  /// an entire row of pairs in one arithmetic test once the collector's
  /// floor outgrows everything f1 could reach (the skipped row is counted in
  /// bulk: pairs_considered and pairs_rejected_score advance by the row
  /// width, deterministically), and with a single fragment's evidence as a
  /// per-pair pre-check that rejects doomed pairs before ComputeJoinBounds
  /// pays for an LCA.
  virtual double EvidenceUpperBoundFromSize(
      const std::vector<double>& left, const std::vector<double>& right_max,
      uint32_t join_size_lower) const {
    (void)left;
    (void)right_max;
    (void)join_size_lower;
    return std::numeric_limits<double>::infinity();
  }
};

/// A fragment with its exact score.
struct ScoredFragment {
  Fragment fragment;
  double score = 0.0;
};

/// True iff `a` outranks `b`: higher score first, canonical fragment order
/// (Fragment::operator<) breaking ties. A strict weak (in fact total) order
/// over distinct fragments.
inline bool OutranksScored(const ScoredFragment& a, const ScoredFragment& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.fragment < b.fragment;
}

/// \brief Fixed-capacity collector of the k best distinct scored fragments.
///
/// Offers are deduplicated by fragment equality (cached hashes, exact
/// comparison on collision), so the same fragment produced by many candidate
/// pairs occupies one slot. The retained set after any sequence of offers is
/// exactly the k best distinct fragments offered, independent of order.
///
/// A collector may additionally be seeded with an external *score floor*
/// (SeedFloor): a promise by the caller that at least k distinct answers
/// with score >= floor exist globally, even if they will never be offered
/// to this collector. Candidates strictly below the floor
/// are rejected as if the heap were already full of floor-scoring entries.
/// Soundness: if the promise holds, every rejected candidate is outranked by
/// k others, so the global k best are unaffected; candidates *tying* the
/// floor are never rejected because they could still win on canonical
/// fragment order against the floor's witnesses.
class TopKCollector {
 public:
  explicit TopKCollector(size_t k) : k_(k) {}

  size_t k() const { return k_; }
  size_t size() const { return heap_.size(); }
  bool full() const { return heap_.size() >= k_; }

  /// \brief Raises the static score floor to at least `floor` (monotonic:
  /// a lower value than the current floor is ignored).
  void SeedFloor(double floor) {
    if (floor > floor_) floor_ = floor;
  }

  /// The floor seeded so far (-inf when never seeded).
  double seeded_floor() const { return floor_; }

  /// Number of candidates rejected *because of the external floor* (i.e.
  /// they would have been retained by an unseeded collector in the same
  /// state). Offers the heap itself would reject anyway are not counted.
  uint64_t floor_rejections() const { return floor_rejections_; }

  /// The best score among floor-rejected candidates (-inf when none).
  double max_floor_rejected() const { return max_floor_rejected_; }

  /// \brief Debug audit: true iff the floor provably never suppressed a
  /// top-k answer *of this collector's offer stream*.
  ///
  /// Clean when nothing was floor-rejected, or when the heap filled to
  /// capacity with every retained score at or above the best rejected score
  /// (then each rejected candidate is outranked by k retained ones). A dirty
  /// audit does not prove the floor unsound — a document seeded from earlier
  /// documents legally ends with fewer than k local answers — so callers
  /// opt in only where the full answer stream is offered locally (see
  /// ExecutorOptions).
  bool FloorAuditClean() const {
    if (floor_rejections_ == 0) return true;
    if (heap_.size() < k_) return false;
    return store_[heap_.front()].score >= max_floor_rejected_;
  }

  /// \brief True iff a candidate whose score is at most `upper` could still
  /// enter the collector.
  ///
  /// False when the heap is full and `upper` is strictly below the current
  /// k-th best score — a candidate tying the minimum could still win on
  /// canonical fragment order, so equality never rejects. An external floor
  /// (see SeedFloor) rejects strictly-below candidates the same way even
  /// before the heap fills.
  bool CouldAccept(double upper) const {
    if (k_ == 0) return false;
    if (upper < floor_) {
      // Count only rejections the heap alone would not have produced, so
      // floor_rejections() isolates the floor's effect. `upper` bounds the
      // true score from above, so max_floor_rejected_ stays conservative.
      if (heap_.size() < k_ || upper >= store_[heap_.front()].score) {
        ++floor_rejections_;
        if (upper > max_floor_rejected_) max_floor_rejected_ = upper;
      }
      return false;
    }
    if (heap_.size() < k_) return true;
    return upper >= store_[heap_.front()].score;
  }

  /// \brief True iff an equal fragment is currently retained.
  ///
  /// Lets enumeration kernels skip scoring a joined fragment that is a
  /// duplicate of a retained answer — Offer rejects duplicates regardless of
  /// score, and duplicates share the retained entry's score by purity of the
  /// scorer, so skipping them cannot change the result.
  bool Contains(const Fragment& fragment) const {
    auto chain = members_.find(fragment.Hash());
    if (chain == members_.end()) return false;
    for (uint32_t slot : chain->second) {
      if (store_[slot].fragment == fragment) return true;
    }
    return false;
  }

  /// \brief Offers one scored fragment; returns true iff it was retained
  /// (possibly evicting the previous minimum). Candidates with score
  /// strictly below the effective floor are rejected (see SeedFloor).
  bool Offer(Fragment fragment, double score);

  /// \brief Moves the retained fragments out, best first. The collector is
  /// left empty.
  std::vector<ScoredFragment> TakeSorted();

 private:
  /// Heap comparator: "a outranks b" as less-than makes std::*_heap keep the
  /// *worst* retained entry at heap_.front().
  bool HeapLess(uint32_t a, uint32_t b) const {
    return OutranksScored(store_[a], store_[b]);
  }

  size_t k_;
  /// External score floor (see SeedFloor); -inf means "no floor".
  double floor_ = -std::numeric_limits<double>::infinity();
  /// Floor-audit state; mutable because CouldAccept is logically const but
  /// must record rejections the heap alone would not have produced.
  mutable uint64_t floor_rejections_ = 0;
  mutable double max_floor_rejected_ =
      -std::numeric_limits<double>::infinity();
  /// Stable slots; heap_ and members_ index into it so fragments never move
  /// while heap positions shuffle.
  std::vector<ScoredFragment> store_;
  std::vector<uint32_t> heap_;
  /// Fragment hash → slots with that hash (collision chain), for O(1)
  /// duplicate detection.
  std::unordered_map<uint64_t, std::vector<uint32_t>> members_;
};

}  // namespace xfrag::algebra

#endif  // XFRAG_ALGEBRA_TOPK_H_

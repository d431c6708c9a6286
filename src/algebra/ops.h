// The algebra's operators (paper §2.2, §3.1):
//
//   Join            f1 ⋈ f2       Definition 4 (minimal containing fragment)
//   PairwiseJoin    F1 ⋈ F2       Definition 5
//   PowersetJoin    F1 ⋈* F2      Definition 6 (brute-force subset form and
//                                  the Theorem-2 fixed-point form)
//   FixedPoint      F⁺            Definition 9 (naive §3.1.1 and the
//                                  Theorem-1 reduced-count variant §3.1.2)
//   Reduce          ⊖(F)          Definition 10
//   Select          σ_P(F)        Definition 3
//
// Each operator optionally reports work done through OpMetrics, which the
// bench harness uses to show *why* one strategy beats another (join counts,
// filter rejections) independently of wall-clock noise.

#ifndef XFRAG_ALGEBRA_OPS_H_
#define XFRAG_ALGEBRA_OPS_H_

#include <cstdint>
#include <functional>

#include "algebra/filter.h"
#include "algebra/fragment_set.h"
#include "algebra/topk.h"
#include "common/cancel.h"
#include "common/status.h"

namespace xfrag::doc {
class SubtreeClassIndex;
}  // namespace xfrag::doc

namespace xfrag::algebra {

/// Work counters accumulated by the operators.
///
/// The first five counters measure *logical* algebra work — the joins and
/// filter evaluations the definitions mandate — and are invariant under the
/// summary prefilters: a pair rejected from its O(1) summary bounds still
/// counts as one (rejected) filtered join, so these counters match the
/// unoptimized kernels exactly. The prefilter counters below them measure
/// *physical* work avoided.
struct OpMetrics {
  /// Number of binary fragment-join evaluations.
  uint64_t fragment_joins = 0;
  /// Number of filter evaluations.
  uint64_t filter_evals = 0;
  /// Fragments rejected by a pushed-down filter before further joins.
  uint64_t filter_rejections = 0;
  /// Pairwise-join iterations executed by fixed-point computations.
  uint64_t fixed_point_iterations = 0;
  /// Fragments produced (pre-dedup) across all join operators.
  uint64_t fragments_produced = 0;

  /// Candidate pairs enumerated by the filtered join kernels (each pair is
  /// either prefilter-rejected, filter-rejected, or kept).
  uint64_t pairs_considered = 0;
  /// Pairs rejected in O(1) from the operands' summary bounds — no node
  /// vector was merged and no filter ran. Deterministic per input.
  uint64_t pairs_rejected_summary = 0;
  /// Subsumption tests (std::includes) that ⊖'s interval/size candidate
  /// index proved unnecessary. Physical: excluded from operator== (it is
  /// zero with the summary prefilter off).
  uint64_t subsume_checks_skipped = 0;
  /// Pairs rejected in O(1) by the top-k score upper bound (PairwiseJoinTopK):
  /// ubound(f1 ⋈ f2) could not beat the current k-th best score, so neither
  /// the join nor its score was computed. Depends on the collector's floor
  /// (seeded, live or warmed up), hence excluded from operator==; the
  /// *results* stay the same regardless.
  uint64_t pairs_rejected_score = 0;
  /// Pairs whose join bounds the kernels computed (ComputeJoinBounds' LCA),
  /// or replayed from a class representative that did: every pair the
  /// summary prefilter looked at beyond its root window (docs/ALGEBRA.md,
  /// "Root windows"). Physical, excluded from operator==: zero in the
  /// filtered kernel with the prefilter off, and its top-k share depends on
  /// the collector's floor like pairs_rejected_score.
  uint64_t pairs_examined = 0;

  // DAG-compressed evaluation counters (docs/ALGEBRA.md, "DAG-compressed
  // evaluation"). Physical like the two above — they measure work *shared*
  // by the class-aware path, which replays the exact logical counter deltas
  // of the evaluation it avoided, so every logical counter stays invariant
  // with DAG compression on or off. Excluded from operator== because they
  // are zero with compression off.
  /// Distinct subtree equivalence classes (fragment local forms at the
  /// kernel level, document root classes at the collection level) the
  /// class-aware path interned.
  uint64_t classes_total = 0;
  /// Candidate evaluations (join pairs, or unary selection checks) answered
  /// from a cached class-level outcome instead of being evaluated.
  uint64_t class_pairs_considered = 0;
  /// Concrete answers materialized by re-basing a cached class-level
  /// survivor onto another occurrence of its subtree class.
  uint64_t answers_multiplied_out = 0;

  void Reset() { *this = OpMetrics(); }

  /// Adds `other`'s counters into this one — how the collection engine
  /// aggregates per-document metrics.
  void Merge(const OpMetrics& other) {
    fragment_joins += other.fragment_joins;
    filter_evals += other.filter_evals;
    filter_rejections += other.filter_rejections;
    fixed_point_iterations += other.fixed_point_iterations;
    fragments_produced += other.fragments_produced;
    pairs_considered += other.pairs_considered;
    pairs_rejected_summary += other.pairs_rejected_summary;
    subsume_checks_skipped += other.subsume_checks_skipped;
    pairs_rejected_score += other.pairs_rejected_score;
    pairs_examined += other.pairs_examined;
    classes_total += other.classes_total;
    class_pairs_considered += other.class_pairs_considered;
    answers_multiplied_out += other.answers_multiplied_out;
  }

  /// Compares every logical counter plus the summary-prefilter rejections.
  /// The other physical counters are deliberately excluded: how many checks
  /// the ⊖ index skips, how many pairs the top-k bound prunes or the kernels
  /// examine, and how much work DAG compression shares depend on switches
  /// and floors that never affect any result.
  bool operator==(const OpMetrics& other) const {
    return fragment_joins == other.fragment_joins &&
           filter_evals == other.filter_evals &&
           filter_rejections == other.filter_rejections &&
           fixed_point_iterations == other.fixed_point_iterations &&
           fragments_produced == other.fragments_produced &&
           pairs_considered == other.pairs_considered &&
           pairs_rejected_summary == other.pairs_rejected_summary;
  }
};

/// \brief Definition 4: the minimal fragment of `document` containing both
/// `f1` and `f2`.
///
/// For connected inputs rooted at r1 and r2 this is
/// f1 ∪ f2 ∪ path(r1, lca(r1,r2)) ∪ path(r2, lca(r1,r2)): every connecting
/// path between two disjoint subtrees passes through both roots and their
/// LCA, and minimal containing node sets in a tree are unique.
///
/// Reuses thread-local scratch buffers; the kernels keep their own per call.
Fragment Join(const Document& document, const Fragment& f1, const Fragment& f2,
              OpMetrics* metrics = nullptr);

/// \brief O(1) bounds on f1 ⋈ f2 from the operands' summary headers (one LCA
/// lookup plus arithmetic). See JoinBounds for the exactness guarantees.
JoinBounds ComputeJoinBounds(const Document& document,
                             const FragmentSummary& s1,
                             const FragmentSummary& s2);

/// \brief Process-wide switch for the summary prefilters (default on).
///
/// Exists for ablation benches and equivalence tests: results are identical
/// either way, only the physical work (and the prefilter counters) change.
/// Not intended to be toggled while kernels are running.
void SetSummaryPrefilterEnabled(bool enabled);
bool SummaryPrefilterEnabled();

/// \brief Definition 5: { f1 ⋈ f2 | f1 ∈ set1, f2 ∈ set2 }, deduplicated.
FragmentSet PairwiseJoin(const Document& document, const FragmentSet& set1,
                         const FragmentSet& set2, OpMetrics* metrics = nullptr);

/// \brief Pairwise join with an anti-monotonic filter applied to every
/// produced fragment — the push-down building block (Theorem 3). Fragments
/// failing `filter` are dropped immediately.
///
/// With the summary prefilter on, each row first turns
/// Filter::MinJoinRootDepth into pre-order windows: a partner whose root
/// lies outside its window is counted as summary-rejected after one
/// compare; the rest pay ComputeJoinBounds (counted as pairs_examined).
///
/// `dag` (optional, here and on Select / FixedPointFiltered /
/// PairwiseJoinTopK) enables the class-aware path: candidate pairs living in
/// duplicated subtrees are evaluated once per local-form pair and replayed —
/// with exact logical counter deltas and translated survivors — for every
/// other occurrence (algebra/dag_cache.h). Results and logical counters are
/// identical with or without it; pass the document's SubtreeClassIndex only
/// when every predicate involved is translation-invariant
/// (Filter::TranslationInvariant — the kernels re-check the pushed filter
/// themselves, opaque predicates are the caller's responsibility).
FragmentSet PairwiseJoinFiltered(const Document& document,
                                 const FragmentSet& set1,
                                 const FragmentSet& set2,
                                 const FilterPtr& filter,
                                 const FilterContext& context,
                                 OpMetrics* metrics = nullptr,
                                 const doc::SubtreeClassIndex* dag = nullptr);

/// \brief Definition 3: members of `set` satisfying `filter`.
FragmentSet Select(const FragmentSet& set, const FilterPtr& filter,
                   const FilterContext& context, OpMetrics* metrics = nullptr,
                   const doc::SubtreeClassIndex* dag = nullptr);

/// Extra acceptance predicate applied to a materialized join before it is
/// scored. The executor passes the residual (non-pushed) selection and the
/// answer-mode condition here so the collector only ever holds true final
/// answers — a prerequisite for the score bound to prune soundly. An empty
/// function accepts everything.
using FragmentPredicate = std::function<bool(const Fragment&)>;

/// \brief Score-bounded pairwise join — the top-k early-termination kernel.
///
/// Enumerates the |set1|·|set2| candidate pairs in the serial double-loop
/// order; each pair is (a) rejected in O(1) when the pushed `filter`'s
/// summary prefilter proves the join cannot match — by one compare against
/// the row's root window where Filter::MinJoinRootDepth gives one — (b) rejected in O(1) when
/// scorer.UpperBound(bounds) is *strictly* below the current k-th best score
/// in `collector` (counted as pairs_rejected_score), or (c) materialized,
/// filtered, run through `accept`, scored exactly, and offered to the
/// collector. `filter` must be non-null (use filters::True() for none).
///
/// The collector afterwards holds exactly the k best answers of the
/// unbounded evaluation under (score desc, canonical fragment order asc) —
/// see docs/ALGEBRA.md for the soundness argument. Unlike the unbounded
/// kernels, the logical OpMetrics counters here measure the work *actually
/// performed* (pruned pairs never join or filter), so they are intentionally
/// not comparable with PairwiseJoinFiltered's.
///
/// `cancel` is polled periodically; a tripped token returns early with a
/// partial collector, and callers that must not observe partial results
/// (the query executor) re-check the token after the call.
void PairwiseJoinTopK(const Document& document, const FragmentSet& set1,
                      const FragmentSet& set2, const FilterPtr& filter,
                      const FilterContext& context, const JoinScorer& scorer,
                      const FragmentPredicate& accept, TopKCollector* collector,
                      OpMetrics* metrics = nullptr,
                      const CancelToken* cancel = nullptr,
                      const doc::SubtreeClassIndex* dag = nullptr);

/// \brief Hard ceiling on PowersetJoinOptions::max_set_size.
///
/// The cross loop joins 2^|set1| × 2^|set2| subset pairs, so at 12 the worst
/// case is 4096 × 4096 ≈ 1.7·10⁷ fragment joins — bounded seconds. One step
/// to 13 quadruples that, and the pre-fix default of 20 would admit ~10¹²
/// joins (years). Limits above the ceiling are rejected as InvalidArgument.
inline constexpr size_t kMaxPowersetSetSize = 12;

/// Options for brute-force powerset join.
struct PowersetJoinOptions {
  /// Upper bound on |set1| and |set2|; 2^|set| subsets are enumerated per
  /// side, so this guards against runaway exponential work. Must not exceed
  /// kMaxPowersetSetSize.
  size_t max_set_size = kMaxPowersetSetSize;
  /// Optional cooperative cancellation, checked periodically inside the
  /// subset enumeration; a tripped token aborts with DeadlineExceeded.
  const CancelToken* cancel = nullptr;
};

/// \brief Definition 6, literally: fragment join over every pair of non-empty
/// subsets (F1', F2'). Exponential; the oracle for tests and the paper's
/// "brute-force evaluation" strategy (§4.1).
StatusOr<FragmentSet> PowersetJoinBruteForce(
    const Document& document, const FragmentSet& set1, const FragmentSet& set2,
    const PowersetJoinOptions& options = {}, OpMetrics* metrics = nullptr);

/// \brief Definition 10: the reduced set ⊖(F).
///
/// Drops every fragment f for which two *other distinct* members f', f''
/// exist with f ⊆ f' ⋈ f''. (The paper's Definition 10 literally defines the
/// eliminated set; the prose and the Figure-4 example make the complement the
/// intended result — see DESIGN.md.)
FragmentSet Reduce(const Document& document, const FragmentSet& set,
                   OpMetrics* metrics = nullptr);

/// \brief Definition 9 via §3.1.1: iterate F ← F ∪ (F ⋈ F) with fixed-point
/// checking until no new fragment appears.
///
/// All fixed-point variants poll `cancel` once per iteration: a tripped token
/// stops the loop and returns the working set *as accumulated so far* — a
/// subset of the true closure, never garbage. Callers that must not observe a
/// partial result (the query executor) re-check the token after the call.
FragmentSet FixedPointNaive(const Document& document, const FragmentSet& set,
                            OpMetrics* metrics = nullptr,
                            const CancelToken* cancel = nullptr);

/// \brief Definition 9 via Theorem 1: compute k = |⊖(F)| first, then run
/// exactly k−1 unchecked pairwise self-joins (⋈_k(F) = ⋈_n(F) = F⁺).
FragmentSet FixedPointReduced(const Document& document, const FragmentSet& set,
                              OpMetrics* metrics = nullptr,
                              const CancelToken* cancel = nullptr);

/// \brief Fixed point with an anti-monotonic filter pushed inside every
/// iteration (Theorem 3 applied to the expansion in §3.3): equals
/// σ_Pa(F⁺) when `filter` is anti-monotonic.
FragmentSet FixedPointFiltered(const Document& document, const FragmentSet& set,
                               const FilterPtr& filter,
                               const FilterContext& context,
                               OpMetrics* metrics = nullptr,
                               const CancelToken* cancel = nullptr,
                               const doc::SubtreeClassIndex* dag = nullptr);

/// \brief Theorem 2: F1 ⋈* F2 = F1⁺ ⋈ F2⁺, using the Theorem-1 fixed point.
FragmentSet PowersetJoinViaFixedPoint(const Document& document,
                                      const FragmentSet& set1,
                                      const FragmentSet& set2,
                                      OpMetrics* metrics = nullptr,
                                      const CancelToken* cancel = nullptr);

}  // namespace xfrag::algebra

#endif  // XFRAG_ALGEBRA_OPS_H_

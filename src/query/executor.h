// Bottom-up evaluation of logical plans against a document + keyword index.

#ifndef XFRAG_QUERY_EXECUTOR_H_
#define XFRAG_QUERY_EXECUTOR_H_

#include <limits>
#include <vector>

#include "algebra/fragment_set.h"
#include "algebra/ops.h"
#include "common/cancel.h"
#include "query/fixed_point_cache.h"
#include "query/plan.h"
#include "text/inverted_index.h"

namespace xfrag::query {

/// Executor configuration.
struct ExecutorOptions {
  /// Limits for literal powerset-join nodes (brute-force strategy).
  algebra::PowersetJoinOptions powerset;
  /// Optional cross-query memo table for FixedPoint-over-Scan plan
  /// fragments. The pointed-to cache must outlive the execution and must
  /// only ever be used with one (document, index) pair. Thread-safe.
  FixedPointCache* fixed_point_cache = nullptr;
  /// Optional per-request deadline/cancellation (owned by the caller, e.g.
  /// one token per server request). Checked before every plan node and
  /// propagated into the unbounded kernels (fixed-point loops, powerset
  /// enumeration); a tripped token makes ExecutePlan return DeadlineExceeded.
  /// Metrics accumulated up to that point remain in `*metrics` — partial
  /// observability for timed-out queries. Partial closures are never stored
  /// in the fixed-point cache.
  const CancelToken* cancel = nullptr;
  /// Initial score floor seeded into the top-k collector (ExecutePlanTopK
  /// only; -inf = none). Soundness is the caller's promise: at least k
  /// distinct answers *somewhere in the query's scope* — e.g. earlier
  /// documents of the same request — score at or above the floor. Candidates
  /// strictly below it are pruned; the returned prefix is then exactly the
  /// answers of the unseeded evaluation that score >= the floor.
  double score_floor = -std::numeric_limits<double>::infinity();
  /// Debug audit of the seeded floor: when true, ExecutePlanTopK fails with
  /// Internal if the floor provably suppressed a top-k answer of *this*
  /// plan's own answer stream (fewer than k retained, or a rejected
  /// candidate outscoring a retained one). Leave false when the floor's
  /// witnesses legitimately live elsewhere (other documents).
  bool audit_score_floor = false;
  /// Optional subtree-class index of `document` (doc/subtree_classes.h).
  /// When set, the join/select/fixed-point kernels evaluate filters and
  /// joins once per subtree equivalence class and replay the outcome for
  /// every other occurrence (DAG-compressed evaluation, docs/ALGEBRA.md);
  /// leaving it null is how DAG compression is switched off. Results and
  /// logical counters are bit-identical to the uncompressed run; only the
  /// dag:* counters of OpMetrics depend on it. The kernels self-gate on each
  /// plan filter's TranslationInvariant(); the top-k path additionally
  /// requires the residue filter to be invariant, and callers must only set
  /// this when their scorer/accept callbacks are translation-invariant too
  /// (the engine's built-ins all are).
  const doc::SubtreeClassIndex* subtree_classes = nullptr;
};

/// Per-node observation recorded during execution (EXPLAIN ANALYZE).
struct NodeCardinality {
  const PlanNode* node = nullptr;
  /// Output fragments of this node.
  size_t rows = 0;
};

/// \brief Evaluates `plan` and returns the resulting fragment set.
///
/// `metrics`, when non-null, accumulates operator work counters.
/// `cardinalities`, when non-null, receives one entry per executed plan
/// node with its output size (EXPLAIN ANALYZE support).
StatusOr<algebra::FragmentSet> ExecutePlan(
    const PlanNode& plan, const doc::Document& document,
    const text::InvertedIndex& index, const ExecutorOptions& options = {},
    algebra::OpMetrics* metrics = nullptr,
    std::vector<NodeCardinality>* cardinalities = nullptr);

/// \brief Top-k evaluation of `plan`: returns the `k` best answers under
/// (scorer score descending, canonical fragment order ascending) — exactly
/// the length-k prefix of scoring every answer of ExecutePlan and applying
/// `accept` (the engine's answer-mode condition; empty = accept all).
///
/// When the plan root is σ_residue over a final kPairwiseJoin (the shape
/// every fixed-point strategy produces), the children are evaluated normally
/// and the final join runs score-bounded (PairwiseJoinTopK): pairs whose
/// score upper bound cannot beat the current k-th best answer are rejected
/// in O(1) before any join is materialized. The residual
/// selection and `accept` are applied *before* a candidate enters the heap,
/// so pruning is sound. Any other root shape (single-term fixed point,
/// brute-force powerset join) falls back to full evaluation followed by
/// heap-selection — same results, no pruning.
///
/// Residual filter evaluations on the bounded path are not metered (how
/// many run depends on how far pruning got; see ops.h).
StatusOr<std::vector<algebra::ScoredFragment>> ExecutePlanTopK(
    const PlanNode& plan, const doc::Document& document,
    const text::InvertedIndex& index, const ExecutorOptions& options,
    const algebra::JoinScorer& scorer, size_t k,
    const algebra::FragmentPredicate& accept = {},
    algebra::OpMetrics* metrics = nullptr,
    std::vector<NodeCardinality>* cardinalities = nullptr);

}  // namespace xfrag::query

#endif  // XFRAG_QUERY_EXECUTOR_H_

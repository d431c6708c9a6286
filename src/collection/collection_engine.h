// Query evaluation over a Collection — the one per-document loop behind
// every collection-level caller (xfragd's QueryService, the CLI, the
// benches). Documents are independent retrieval units: each one holding all
// query terms is evaluated on its own, in document order; byte-identical
// documents replay one evaluation (document-class dedup, the collection-level
// form of DAG compression); and the per-document answers merge into one
// result — in document order, or ranked by score across documents.

#ifndef XFRAG_COLLECTION_COLLECTION_ENGINE_H_
#define XFRAG_COLLECTION_COLLECTION_ENGINE_H_

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "collection/collection.h"
#include "query/engine.h"
#include "query/fixed_point_cache.h"

namespace xfrag::collection {

/// `per_document.top_k` value that ranks every answer without a cutoff.
inline constexpr int64_t kRankAll = std::numeric_limits<int64_t>::max();

/// One answer fragment with its source document.
struct CollectionAnswer {
  /// Index of the document within the collection.
  size_t document_index = 0;
  /// The answer fragment (node ids are document-local).
  algebra::Fragment fragment;
  /// Ranking score; 0 for unranked evaluations.
  double score = 0.0;
};

/// One evaluated document's EXPLAIN (CollectionEvalOptions::explain).
struct DocumentExplain {
  size_t document_index = 0;
  query::Strategy strategy_used = query::Strategy::kAuto;
  std::string text;
};

/// Result of a collection-wide evaluation.
struct CollectionResult {
  /// Unranked: every answer, in document order, then the per-document
  /// canonical order. Ranked: the min(k, |A|) best answers across documents,
  /// ordered by score descending, document index, canonical fragment order.
  std::vector<CollectionAnswer> answers;
  /// Documents that contained all query terms (evaluated or replayed).
  size_t documents_evaluated = 0;
  /// Documents skipped by the term-presence pre-check.
  size_t documents_skipped = 0;
  /// Of the evaluated documents, how many replayed the stored result of an
  /// earlier byte-identical document (same root class) instead of being
  /// evaluated. A replay carries the same answers, scores and work counters
  /// as that evaluation.
  size_t documents_deduplicated = 0;
  /// Aggregated operator metrics across evaluated documents.
  algebra::OpMetrics metrics;
  /// Per-document EXPLAIN entries, in document order (explain only).
  std::vector<DocumentExplain> explains;
  /// Wall-clock time for the whole evaluation.
  double elapsed_ms = 0.0;
};

/// Evaluation options for a collection query.
struct CollectionEvalOptions {
  /// Applied to every document. `per_document.top_k` >= 0 ranks: each
  /// document yields its k best answers and the result holds the k best
  /// across documents (kRankAll ranks everything). Its `metrics_sink` is
  /// ignored; see Evaluate's `partial`.
  query::EvalOptions per_document;
  /// Explicit plan (a composed XQL query) run on each document instead of
  /// the plan built from the query's term set; the query's terms are the
  /// plan's scan terms. Must outlive the call.
  const query::PlanNode* plan = nullptr;
  /// Fixed-point caches indexed like the collection's documents (empty:
  /// none). Closures are document-specific, so each document gets its own.
  std::span<const std::unique_ptr<query::FixedPointCache>> fixed_point_caches;
  /// DAG compression: hand the kernels each document's subtree classes and
  /// replay documents whose root class an earlier document shares. Off
  /// evaluates every document plainly. Answers and logical counters are the
  /// same either way.
  bool dag_compression = true;
  /// Ranked with a finite k: seed each document's top-k collector with the
  /// k-th best score of the documents before it (docs/SERVING.md). Changes
  /// work counters (fewer joins), never answers.
  bool cross_document_floor = true;
  /// Collect every evaluated document's EXPLAIN. Every document is then
  /// evaluated on its own, without dedup.
  bool explain = false;
};

/// \brief Evaluates queries over every document of a collection.
class CollectionEngine {
 public:
  /// The collection must outlive the engine.
  explicit CollectionEngine(const Collection& collection)
      : collection_(collection) {}

  /// \brief Evaluates `query` against every document containing all query
  /// terms; other documents are skipped without building a plan. Stops at
  /// the first document whose evaluation fails (e.g. a cancel-token
  /// deadline) and returns that error; `*partial`, when given, then holds
  /// what was done before it: documents_evaluated and the merged metrics,
  /// including the failed document's partial work.
  StatusOr<CollectionResult> Evaluate(
      const query::Query& query, const CollectionEvalOptions& options = {},
      CollectionResult* partial = nullptr) const;

 private:
  const Collection& collection_;
};

}  // namespace xfrag::collection

#endif  // XFRAG_COLLECTION_COLLECTION_ENGINE_H_

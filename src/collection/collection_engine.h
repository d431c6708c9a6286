// Query evaluation over a Collection: per-document evaluation (documents
// are independent retrieval units) with term-presence pre-filtering and
// optional parallelism, merged into a provenance-tagged result.

#ifndef XFRAG_COLLECTION_COLLECTION_ENGINE_H_
#define XFRAG_COLLECTION_COLLECTION_ENGINE_H_

#include <string>
#include <vector>

#include "collection/collection.h"
#include "query/engine.h"

namespace xfrag::collection {

/// One answer fragment with its source document.
struct CollectionAnswer {
  /// Index of the document within the collection.
  size_t document_index = 0;
  /// The document's name.
  std::string document_name;
  /// The answer fragment (node ids are document-local).
  algebra::Fragment fragment;

  CollectionAnswer(size_t index, std::string name, algebra::Fragment f)
      : document_index(index),
        document_name(std::move(name)),
        fragment(std::move(f)) {}
};

/// Result of a collection-wide evaluation.
struct CollectionResult {
  /// Answers in document order, then the per-document canonical order.
  std::vector<CollectionAnswer> answers;
  /// Documents that contained all query terms (hence produced answers).
  size_t documents_evaluated = 0;
  /// Documents skipped by the term-presence pre-check.
  size_t documents_skipped = 0;
  /// Of the evaluated documents, how many were *replayed* from a
  /// byte-identical representative (same subtree root class) instead of
  /// being evaluated themselves. Identical documents yield identical
  /// answers, node ids, and work counters, so every other field of this
  /// result is unchanged by the dedup; 0 when DAG compression is disabled.
  size_t documents_deduplicated = 0;
  /// Aggregated operator metrics across evaluated documents.
  algebra::OpMetrics metrics;
  /// Wall-clock time for the whole evaluation.
  double elapsed_ms = 0.0;
};

/// Evaluation options for a collection query.
struct CollectionEvalOptions {
  query::EvalOptions per_document;
  /// Worker threads; 1 evaluates sequentially. Results are merged in
  /// document order either way, so the output is deterministic.
  unsigned parallelism = 1;
};

/// \brief Evaluates keyword queries over every document of a collection.
class CollectionEngine {
 public:
  /// The collection must outlive the engine.
  explicit CollectionEngine(const Collection& collection)
      : collection_(collection) {}

  /// \brief Evaluates `query` against every document containing all query
  /// terms; other documents are skipped without building a plan.
  StatusOr<CollectionResult> Evaluate(
      const query::Query& query,
      const CollectionEvalOptions& options = {}) const;

 private:
  const Collection& collection_;
};

}  // namespace xfrag::collection

#endif  // XFRAG_COLLECTION_COLLECTION_ENGINE_H_

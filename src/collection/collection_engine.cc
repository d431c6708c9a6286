#include "collection/collection_engine.h"

#include <unordered_map>

#include "common/thread_pool.h"
#include "common/timer.h"

namespace xfrag::collection {

namespace {

// Outcome of evaluating one document.
struct PerDocumentOutcome {
  bool skipped = false;
  Status status;
  algebra::FragmentSet answers;
  algebra::OpMetrics metrics;
};

PerDocumentOutcome EvaluateOne(const CollectionEntry& entry,
                               const query::Query& query,
                               const query::EvalOptions& options) {
  PerDocumentOutcome outcome;
  // Conjunctive pre-check: skip documents missing any term.
  for (const auto& term : query.terms) {
    if (entry.index.Lookup(term).empty()) {
      outcome.skipped = true;
      return outcome;
    }
  }
  query::QueryEngine engine(entry.document, entry.index);
  // Hand the kernels this document's subtree classes; they self-gate on the
  // global compression switch and on per-document duplication.
  query::EvalOptions doc_options = options;
  doc_options.executor.subtree_classes = &entry.classes;
  auto result = engine.Evaluate(query, doc_options);
  if (!result.ok()) {
    outcome.status = result.status();
    return outcome;
  }
  outcome.answers = std::move(result->answers);
  outcome.metrics = result->metrics;
  return outcome;
}

}  // namespace

StatusOr<CollectionResult> CollectionEngine::Evaluate(
    const query::Query& query, const CollectionEvalOptions& options) const {
  Timer timer;
  if (query.terms.empty()) {
    return Status::InvalidArgument("query must contain at least one term");
  }
  const size_t n = collection_.size();
  std::vector<PerDocumentOutcome> outcomes(n);

  // Document-class dedup: documents whose roots intern to the same subtree
  // class are byte-identical, so only the first member of each class (the
  // representative) is evaluated; the others replay its outcome after the
  // barrier. Identical documents produce identical answers (node ids are
  // document-local) and identical work counters, so the merged result is
  // bit-identical to evaluating every member.
  std::vector<size_t> representative(n);
  const bool dedup = algebra::DagCompressionEnabled();
  std::unordered_map<doc::SubtreeClassId, size_t> first_of_class;
  for (size_t i = 0; i < n; ++i) {
    representative[i] = i;
    if (!dedup) continue;
    auto [it, inserted] =
        first_of_class.emplace(collection_.entry(i).classes.root_class(), i);
    if (!inserted) representative[i] = it->second;
  }

  // Representatives fan out over a pool (one contiguous chunk per worker);
  // each outcome lands in its own slot, so the merge below is deterministic
  // for any parallelism.
  if (options.parallelism > 1 && n > 1) {
    ThreadPool pool(options.parallelism);
    pool.ParallelFor(n, [&](unsigned /*chunk*/, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        if (representative[i] != i) continue;
        outcomes[i] =
            EvaluateOne(collection_.entry(i), query, options.per_document);
      }
    });
  } else {
    for (size_t i = 0; i < n; ++i) {
      if (representative[i] != i) continue;
      outcomes[i] =
          EvaluateOne(collection_.entry(i), query, options.per_document);
    }
  }

  CollectionResult result;
  for (size_t i = 0; i < n; ++i) {
    const bool replayed = representative[i] != i;
    PerDocumentOutcome& outcome = outcomes[representative[i]];
    if (outcome.skipped) {
      ++result.documents_skipped;
      continue;
    }
    if (!outcome.status.ok()) return outcome.status;
    ++result.documents_evaluated;
    if (replayed) ++result.documents_deduplicated;
    result.metrics.Merge(outcome.metrics);
    for (const algebra::Fragment& fragment : outcome.answers.Sorted()) {
      result.answers.emplace_back(i, collection_.entry(i).name, fragment);
    }
  }
  result.elapsed_ms = timer.ElapsedMillis();
  return result;
}

}  // namespace xfrag::collection

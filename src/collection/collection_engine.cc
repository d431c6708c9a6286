#include "collection/collection_engine.h"

#include <algorithm>
#include <functional>
#include <queue>
#include <unordered_map>

#include "common/timer.h"

namespace xfrag::collection {

namespace {

// Conjunctive pre-check: a document missing any term cannot contribute
// answers.
bool HasAllTerms(const CollectionEntry& entry,
                 const std::vector<std::string>& terms) {
  for (const std::string& term : terms) {
    if (entry.index.Lookup(term).empty()) return false;
  }
  return true;
}

// Cross-document rank order: score descending, then document index, then
// canonical fragment order — fully deterministic.
bool Outranks(const CollectionAnswer& a, const CollectionAnswer& b) {
  if (a.score != b.score) return a.score > b.score;
  if (a.document_index != b.document_index) {
    return a.document_index < b.document_index;
  }
  return a.fragment < b.fragment;
}

// An evaluated document whose root class later documents share: its work
// counters and its answers, the range [begin, end) of the result's answers.
struct StoredDocument {
  algebra::OpMetrics metrics;
  size_t begin = 0;
  size_t end = 0;
};

}  // namespace

StatusOr<CollectionResult> CollectionEngine::Evaluate(
    const query::Query& query, const CollectionEvalOptions& options,
    CollectionResult* partial) const {
  Timer timer;
  if (query.terms.empty()) {
    return Status::InvalidArgument("query must contain at least one term");
  }
  const int64_t k = options.per_document.top_k;
  const bool ranked = k >= 0;
  CollectionResult result;

  // The k best scores of the documents already evaluated: once k answers are
  // known, the smallest of them is a sound floor for every later document
  // (its witnesses are real answers of this very query), so the bound each
  // collector prunes against only ever rises (docs/SERVING.md).
  const bool self_seed = options.cross_document_floor && k > 0 && k != kRankAll;
  std::priority_queue<double, std::vector<double>, std::greater<double>> best;

  // Document-class dedup: documents whose roots intern to the same subtree
  // class are byte-identical, so the first one evaluated stores its result
  // and later members replay it — same answers (node ids are
  // document-local), scores and counters. EXPLAIN evaluates every document.
  const bool dedup = options.dag_compression && !options.explain;
  std::unordered_map<doc::SubtreeClassId, StoredDocument> stored;

  auto add_answer = [&](size_t i, algebra::Fragment fragment, double score) {
    if (self_seed) {
      best.push(score);
      if (best.size() > static_cast<size_t>(k)) best.pop();
    }
    result.answers.push_back(CollectionAnswer{i, std::move(fragment), score});
  };

  for (size_t i = 0; i < collection_.size(); ++i) {
    const CollectionEntry& entry = collection_.entry(i);
    if (!HasAllTerms(entry, query.terms)) {
      ++result.documents_skipped;
      continue;
    }
    const bool dedup_this = dedup && entry.root_class_shared;
    if (dedup_this) {
      auto it = stored.find(entry.classes.root_class());
      if (it != stored.end()) {
        const StoredDocument& representative = it->second;
        result.metrics.Merge(representative.metrics);
        ++result.documents_evaluated;
        ++result.documents_deduplicated;
        for (size_t a = representative.begin; a < representative.end; ++a) {
          CollectionAnswer copy = result.answers[a];
          add_answer(i, std::move(copy.fragment), copy.score);
        }
        continue;
      }
    }

    query::EvalOptions eval = options.per_document;
    if (!options.fixed_point_caches.empty()) {
      eval.executor.fixed_point_cache = options.fixed_point_caches[i].get();
    }
    if (options.dag_compression) eval.executor.subtree_classes = &entry.classes;
    if (self_seed && best.size() >= static_cast<size_t>(k)) {
      eval.executor.score_floor = best.top();
    }
    algebra::OpMetrics metrics;
    eval.metrics_sink = &metrics;
    query::QueryEngine engine(entry.document, entry.index);
    auto evaluated =
        options.plan != nullptr
            ? engine.EvaluatePlan(*options.plan, query.terms, eval)
            : engine.Evaluate(query, eval);
    result.metrics.Merge(metrics);
    if (!evaluated.ok()) {
      if (partial != nullptr) *partial = std::move(result);
      return evaluated.status();
    }
    ++result.documents_evaluated;
    const size_t begin = result.answers.size();
    if (ranked) {
      for (query::RankedAnswer& answer : evaluated->ranked) {
        add_answer(i, std::move(answer.fragment), answer.score);
      }
    } else {
      for (algebra::Fragment& fragment : evaluated->answers.Sorted()) {
        add_answer(i, std::move(fragment), 0.0);
      }
    }
    if (dedup_this) {
      stored.emplace(entry.classes.root_class(),
                     StoredDocument{metrics, begin, result.answers.size()});
    }
    if (options.explain) {
      result.explains.push_back(DocumentExplain{
          i, evaluated->strategy_used, std::move(evaluated->explain)});
    }
  }

  if (ranked) {
    std::sort(result.answers.begin(), result.answers.end(), Outranks);
    if (result.answers.size() > static_cast<uint64_t>(k)) {
      result.answers.erase(result.answers.begin() + k, result.answers.end());
    }
  }
  result.elapsed_ms = timer.ElapsedMillis();
  return result;
}

}  // namespace xfrag::collection

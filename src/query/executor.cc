#include "query/executor.h"

#include "common/logging.h"

namespace xfrag::query {

using algebra::FilterContext;
using algebra::Fragment;
using algebra::FragmentSet;
using algebra::OpMetrics;

namespace {

StatusOr<FragmentSet> Execute(const PlanNode& node,
                              const doc::Document& document,
                              const text::InvertedIndex& index,
                              const ExecutorOptions& options,
                              const FilterContext& context,
                              OpMetrics* metrics,
                              std::vector<NodeCardinality>* cardinalities);

// Runs one node and records its output cardinality.
StatusOr<FragmentSet> ExecuteRecorded(
    const PlanNode& node, const doc::Document& document,
    const text::InvertedIndex& index, const ExecutorOptions& options,
    const FilterContext& context, OpMetrics* metrics,
    std::vector<NodeCardinality>* cardinalities) {
  auto result = Execute(node, document, index, options, context, metrics,
                        cardinalities);
  if (result.ok() && cardinalities != nullptr) {
    cardinalities->push_back({&node, result->size()});
  }
  return result;
}

Status DeadlineError() {
  return Status::DeadlineExceeded("query deadline exceeded during execution");
}

StatusOr<FragmentSet> Execute(const PlanNode& node,
                              const doc::Document& document,
                              const text::InvertedIndex& index,
                              const ExecutorOptions& options,
                              const FilterContext& context,
                              OpMetrics* metrics,
                              std::vector<NodeCardinality>* cardinalities) {
  // Cooperative deadline: one check per plan node, plus the finer-grained
  // checks inside the unbounded kernels below.
  if (ShouldStop(options.cancel)) return DeadlineError();
  switch (node.kind) {
    case PlanNodeKind::kScanKeyword: {
      FragmentSet out;
      for (doc::NodeId n : index.Lookup(node.term)) {
        Fragment f = Fragment::Single(n);
        if (node.filter != nullptr) {
          if (metrics != nullptr) ++metrics->filter_evals;
          if (!node.filter->Matches(f, context)) {
            if (metrics != nullptr) ++metrics->filter_rejections;
            continue;
          }
        }
        out.Insert(std::move(f));
      }
      return out;
    }
    case PlanNodeKind::kSelect: {
      XFRAG_CHECK(node.children.size() == 1);
      auto child = ExecuteRecorded(*node.children[0], document, index,
                                   options, context, metrics, cardinalities);
      if (!child.ok()) return child;
      return algebra::Select(child.value(), node.filter, context, metrics,
                             options.subtree_classes);
    }
    case PlanNodeKind::kPairwiseJoin: {
      XFRAG_CHECK(node.children.size() == 2);
      auto left = ExecuteRecorded(*node.children[0], document, index,
                                  options, context, metrics, cardinalities);
      if (!left.ok()) return left;
      auto right = ExecuteRecorded(*node.children[1], document, index,
                                   options, context, metrics, cardinalities);
      if (!right.ok()) return right;
      if (node.filter != nullptr) {
        return algebra::PairwiseJoinFiltered(
            document, left.value(), right.value(), node.filter, context,
            metrics, options.subtree_classes);
      }
      return algebra::PairwiseJoin(document, left.value(), right.value(),
                                   metrics);
    }
    case PlanNodeKind::kPowersetJoin: {
      XFRAG_CHECK(node.children.size() == 2);
      auto left = ExecuteRecorded(*node.children[0], document, index,
                                  options, context, metrics, cardinalities);
      if (!left.ok()) return left;
      auto right = ExecuteRecorded(*node.children[1], document, index,
                                   options, context, metrics, cardinalities);
      if (!right.ok()) return right;
      algebra::PowersetJoinOptions powerset = options.powerset;
      if (powerset.cancel == nullptr) powerset.cancel = options.cancel;
      return algebra::PowersetJoinBruteForce(document, left.value(),
                                             right.value(), powerset, metrics);
    }
    case PlanNodeKind::kFixedPoint: {
      XFRAG_CHECK(node.children.size() == 1);
      // Cross-query memoization: a FixedPoint directly over a Scan depends
      // only on the term and the attached filters, so its closure can be
      // reused between queries against the same document.
      std::string cache_key;
      if (options.fixed_point_cache != nullptr &&
          node.children[0]->kind == PlanNodeKind::kScanKeyword) {
        const PlanNode& scan = *node.children[0];
        cache_key = scan.term;
        cache_key += '\x1f';
        cache_key += scan.filter ? scan.filter->ToString() : "";
        cache_key += '\x1f';
        cache_key += node.filter ? node.filter->ToString() : "";
        cache_key += node.fixed_point_reduced ? "\x1fR" : "\x1fN";
        if (auto cached = options.fixed_point_cache->Find(cache_key)) {
          return *cached;
        }
      }
      auto child = ExecuteRecorded(*node.children[0], document, index,
                                   options, context, metrics, cardinalities);
      if (!child.ok()) return child;
      StatusOr<FragmentSet> closure = [&]() -> StatusOr<FragmentSet> {
        if (node.filter != nullptr) {
          return algebra::FixedPointFiltered(document, child.value(),
                                             node.filter, context, metrics,
                                             options.cancel,
                                             options.subtree_classes);
        }
        if (node.fixed_point_reduced) {
          return algebra::FixedPointReduced(document, child.value(), metrics,
                                            options.cancel);
        }
        return algebra::FixedPointNaive(document, child.value(), metrics,
                                        options.cancel);
      }();
      // A cancelled kernel returns the partial working set it had; it must
      // surface as an error, and above all must never be cached as if it
      // were the true closure.
      if (ShouldStop(options.cancel)) return DeadlineError();
      if (closure.ok() && !cache_key.empty()) {
        options.fixed_point_cache->Insert(cache_key, closure.value());
      }
      return closure;
    }
    case PlanNodeKind::kReduce: {
      XFRAG_CHECK(node.children.size() == 1);
      auto child = ExecuteRecorded(*node.children[0], document, index,
                                   options, context, metrics, cardinalities);
      if (!child.ok()) return child;
      return algebra::Reduce(document, child.value(), metrics);
    }
  }
  return Status::Internal("unknown plan node kind");
}

}  // namespace

StatusOr<FragmentSet> ExecutePlan(const PlanNode& plan,
                                  const doc::Document& document,
                                  const text::InvertedIndex& index,
                                  const ExecutorOptions& options,
                                  OpMetrics* metrics,
                                  std::vector<NodeCardinality>* cardinalities) {
  FilterContext context{&document, &index};
  return ExecuteRecorded(plan, document, index, options, context, metrics,
                         cardinalities);
}

StatusOr<std::vector<algebra::ScoredFragment>> ExecutePlanTopK(
    const PlanNode& plan, const doc::Document& document,
    const text::InvertedIndex& index, const ExecutorOptions& options,
    const algebra::JoinScorer& scorer, size_t k,
    const algebra::FragmentPredicate& accept, OpMetrics* metrics,
    std::vector<NodeCardinality>* cardinalities) {
  FilterContext context{&document, &index};

  // Peel σ_residue off the root; the shape σ(A ⋈ B) gets the bounded kernel.
  const PlanNode* root = &plan;
  algebra::FilterPtr residue;
  if (root->kind == PlanNodeKind::kSelect) {
    residue = root->filter;
    root = root->children[0].get();
  }
  if (root->kind == PlanNodeKind::kPairwiseJoin) {
    auto left = ExecuteRecorded(*root->children[0], document, index, options,
                                context, metrics, cardinalities);
    if (!left.ok()) return left.status();
    auto right = ExecuteRecorded(*root->children[1], document, index, options,
                                 context, metrics, cardinalities);
    if (!right.ok()) return right.status();
    // The collector must only ever hold true final answers (score pruning
    // compares candidates against heap members), so the residual selection
    // and the answer-mode condition gate admission. Not metered (see
    // header).
    algebra::FragmentPredicate admit;
    if (residue != nullptr || accept) {
      admit = [&residue, &accept, context](const Fragment& f) {
        if (residue != nullptr && !residue->Matches(f, context)) return false;
        if (accept && !accept(f)) return false;
        return true;
      };
    }
    algebra::FilterPtr join_filter =
        root->filter != nullptr ? root->filter : algebra::filters::True();
    algebra::TopKCollector collector(k);
    collector.SeedFloor(options.score_floor);
    // The bounded kernel caches accept-verdicts too, so DAG compression is
    // only licensed when the residual selection is translation-invariant
    // (the `accept` callback is the caller's promise; see ExecutorOptions).
    const doc::SubtreeClassIndex* dag =
        (residue == nullptr || residue->TranslationInvariant())
            ? options.subtree_classes
            : nullptr;
    algebra::PairwiseJoinTopK(document, left.value(), right.value(),
                              join_filter, context, scorer, admit, &collector,
                              metrics, options.cancel, dag);
    if (ShouldStop(options.cancel)) return DeadlineError();
    if (options.audit_score_floor && !collector.FloorAuditClean()) {
      return Status::Internal(
          "seeded score floor pruned a top-k answer (unsound floor)");
    }
    if (cardinalities != nullptr) {
      cardinalities->push_back({root, collector.size()});
      if (root != &plan) cardinalities->push_back({&plan, collector.size()});
    }
    return collector.TakeSorted();
  }

  // Fallback shapes (single-term fixed point, brute-force powerset join):
  // evaluate the whole plan — residual selection included — then heap-select.
  auto full = ExecuteRecorded(plan, document, index, options, context,
                              metrics, cardinalities);
  if (!full.ok()) return full.status();
  algebra::TopKCollector collector(k);
  collector.SeedFloor(options.score_floor);
  for (const Fragment& f : full.value()) {
    if (accept && !accept(f)) continue;
    collector.Offer(f, scorer.Score(f));
  }
  if (options.audit_score_floor && !collector.FloorAuditClean()) {
    return Status::Internal(
        "seeded score floor pruned a top-k answer (unsound floor)");
  }
  return collector.TakeSorted();
}

}  // namespace xfrag::query

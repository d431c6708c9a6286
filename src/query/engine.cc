#include "query/engine.h"

#include "common/strings.h"
#include "common/timer.h"
#include "doc/subtree_classes.h"
#include "query/cost_model.h"

namespace xfrag::query {

using algebra::Fragment;
using algebra::FragmentSet;

namespace {

// Definition 8's leaf condition: every term occurs in some *leaf* of f.
bool SatisfiesLeafCondition(const Fragment& fragment,
                            const std::vector<std::string>& terms,
                            const doc::Document& document,
                            const text::InvertedIndex& index) {
  std::vector<doc::NodeId> leaves = algebra::FragmentLeaves(fragment, document);
  for (const auto& term : terms) {
    bool found = false;
    for (doc::NodeId leaf : leaves) {
      if (index.Contains(term, leaf)) {
        found = true;
        break;
      }
    }
    if (!found) return false;
  }
  return true;
}

}  // namespace

StatusOr<std::unique_ptr<PlanNode>> QueryEngine::BuildPlan(
    const Query& query, Strategy strategy) const {
  if (query.terms.empty()) {
    return Status::InvalidArgument("query must contain at least one term");
  }
  if (strategy == Strategy::kAuto) {
    return Status::InvalidArgument(
        "kAuto must be resolved by Evaluate; BuildPlan needs a concrete "
        "strategy");
  }
  std::unique_ptr<PlanNode> plan = BuildInitialPlan(query.terms, query.filter);
  switch (strategy) {
    case Strategy::kBruteForce:
      // Initial plan already evaluates powerset joins literally. A
      // single-term brute-force query still uses the (naive) fixed point,
      // which is the subset enumeration's set equivalent.
      break;
    case Strategy::kFixedPointNaive:
      plan = RewritePowersetToFixedPoint(std::move(plan),
                                         /*reduced_fixed_point=*/false);
      break;
    case Strategy::kFixedPointReduced:
      plan = RewritePowersetToFixedPoint(std::move(plan),
                                         /*reduced_fixed_point=*/true);
      break;
    case Strategy::kPushDown:
      plan = RewritePowersetToFixedPoint(std::move(plan),
                                         /*reduced_fixed_point=*/false);
      plan = PushDownSelection(std::move(plan));
      break;
    case Strategy::kAuto:
      break;  // Unreachable; handled above.
    case Strategy::kExplicit:
      return Status::InvalidArgument(
          "kExplicit marks caller-supplied plans; use EvaluatePlan");
  }
  return plan;
}

StatusOr<EvalResult> QueryEngine::Evaluate(const Query& query,
                                           const EvalOptions& options) const {
  Timer timer;

  Strategy strategy = options.strategy;
  std::string rationale;
  if (strategy == Strategy::kAuto) {
    PlanDecision decision =
        options.optimizer.use_cost_model
            ? ChooseStrategyCostBased(query, document_, index_, CostModel(),
                                      options.optimizer)
            : ChooseStrategy(query, document_, index_, options.optimizer);
    strategy = decision.strategy;
    rationale = decision.rationale;
  }

  auto plan = BuildPlan(query, strategy);
  if (!plan.ok()) return plan.status();
  return RunPlan(*plan.value(), query.terms, strategy, rationale, options,
                 timer);
}

StatusOr<EvalResult> QueryEngine::EvaluatePlan(
    const PlanNode& plan, const std::vector<std::string>& terms,
    const EvalOptions& options) const {
  Timer timer;
  if (terms.empty()) {
    return Status::InvalidArgument(
        "explicit plans must name at least one scan term");
  }
  return RunPlan(plan, terms, Strategy::kExplicit, /*rationale=*/"", options,
                 timer);
}

StatusOr<EvalResult> QueryEngine::RunPlan(
    const PlanNode& plan, const std::vector<std::string>& terms,
    Strategy strategy_used, const std::string& rationale,
    const EvalOptions& options, Timer timer) const {
  EvalResult result;
  result.strategy_used = strategy_used;

  std::vector<NodeCardinality> cardinalities;
  if (options.top_k >= 0) {
    // Ranked top-k path: the answer-mode condition gates heap admission (the
    // collector must only hold true final answers for pruning to be sound).
    AnswerScorer scorer(terms, document_, index_, options.ranking);
    algebra::FragmentPredicate accept;
    if (options.answer_mode == AnswerMode::kLeafStrict) {
      accept = [this, &terms](const Fragment& f) {
        return SatisfiesLeafCondition(f, terms, document_, index_);
      };
    }
    auto topk = ExecutePlanTopK(plan, document_, index_,
                                options.executor, scorer,
                                static_cast<size_t>(options.top_k), accept,
                                &result.metrics,
                                options.analyze ? &cardinalities : nullptr);
    if (options.metrics_sink != nullptr) {
      *options.metrics_sink = result.metrics;
    }
    if (!topk.ok()) return topk.status();
    result.ranked.reserve(topk->size());
    for (algebra::ScoredFragment& sf : topk.value()) {
      result.answers.Insert(sf.fragment);
      result.ranked.emplace_back(std::move(sf.fragment), sf.score);
    }
  } else {
    auto answers = ExecutePlan(plan, document_, index_,
                               options.executor, &result.metrics,
                               options.analyze ? &cardinalities : nullptr);
    if (options.metrics_sink != nullptr) {
      *options.metrics_sink = result.metrics;
    }
    if (!answers.ok()) return answers.status();
    result.answers = std::move(answers).value();

    if (options.answer_mode == AnswerMode::kLeafStrict) {
      FragmentSet strict;
      for (const Fragment& f : result.answers) {
        if (SatisfiesLeafCondition(f, terms, document_, index_)) {
          strict.Insert(f);
        }
      }
      result.answers = std::move(strict);
    }
  }

  result.explain = StrFormat("strategy: %s\n",
                             std::string(StrategyName(strategy_used)).c_str());
  // Surface what the summary prefilters saved: how many candidate pairs the
  // filtered join kernels looked at, how many they rejected in O(1) without
  // materializing the join, and how many of them needed their join bounds
  // at all (the rest fell outside their root windows).
  if (result.metrics.pairs_considered > 0) {
    result.explain += StrFormat(
        "prefilter: %llu/%llu pairs rejected from summaries, %llu "
        "examined\n",
        static_cast<unsigned long long>(result.metrics.pairs_rejected_summary),
        static_cast<unsigned long long>(result.metrics.pairs_considered),
        static_cast<unsigned long long>(result.metrics.pairs_examined));
  }
  // Surface DAG compression: how much pair work was replayed from subtree
  // equivalence-class representatives instead of re-evaluated. Only emitted
  // when the caller attached a class index, so single-document EXPLAIN output
  // is unchanged.
  if (options.executor.subtree_classes != nullptr) {
    if (!options.executor.subtree_classes->has_duplication()) {
      result.explain += "dag: bypass (no duplicated subtrees)\n";
    } else {
      result.explain += StrFormat(
          "dag: %llu classes, %llu pairs replayed, %llu answers multiplied "
          "out\n",
          static_cast<unsigned long long>(result.metrics.classes_total),
          static_cast<unsigned long long>(
              result.metrics.class_pairs_considered),
          static_cast<unsigned long long>(
              result.metrics.answers_multiplied_out));
    }
  }
  // Surface the top-k score bound: how many candidate pairs never needed a
  // join because their score upper bound could not reach the heap, plus the
  // cost model's pricing of the bounded vs. unbounded final join.
  if (options.top_k >= 0) {
    result.explain += StrFormat(
        "top_k: %lld (%llu/%llu pairs rejected by score bound)\n",
        static_cast<long long>(options.top_k),
        static_cast<unsigned long long>(result.metrics.pairs_rejected_score),
        static_cast<unsigned long long>(result.metrics.pairs_considered));
    if (result.metrics.pairs_considered > 0) {
      double prune_rate =
          static_cast<double>(result.metrics.pairs_rejected_score) /
          static_cast<double>(result.metrics.pairs_considered);
      TopKCostEstimate cost = CostModel().EstimateTopKJoin(
          static_cast<double>(result.metrics.pairs_considered), prune_rate);
      result.explain += StrFormat(
          "top_k cost: bounded ~%.3f ms vs full ~%.3f ms (model estimate)\n",
          cost.bounded_ns / 1e6, cost.full_ns / 1e6);
    }
  }
  if (!rationale.empty()) {
    result.explain += "rationale: " + rationale + "\n";
  }
  if (options.analyze) {
    result.explain += plan.ToStringAnnotated(
        [&cardinalities](const PlanNode& node) -> std::string {
          for (const NodeCardinality& entry : cardinalities) {
            if (entry.node == &node) {
              return StrFormat("(rows=%zu)", entry.rows);
            }
          }
          return "";
        });
  } else {
    result.explain += plan.ToString();
  }
  result.elapsed_ms = timer.ElapsedMillis();
  return result;
}

}  // namespace xfrag::query

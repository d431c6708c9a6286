#include "router/merge.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/strings.h"

namespace xfrag::router {

namespace {

/// Fetches a required field, with a shard-attributed error.
StatusOr<const json::Value*> Require(const ShardBody& shard,
                                     std::string_view key,
                                     json::Value::Kind kind) {
  const json::Value* value = shard.body.Find(key);
  if (value == nullptr || value->kind() != kind) {
    return Status::InvalidArgument(
        StrFormat("shard %zu response is missing \"%.*s\"", shard.shard_index,
                  static_cast<int>(key.size()), key.data()));
  }
  return value;
}

StatusOr<uint64_t> RequireCount(const ShardBody& shard, std::string_view key) {
  XFRAG_ASSIGN_OR_RETURN(const json::Value* value,
                         Require(shard, key, json::Value::Kind::kNumber));
  if (!value->is_integral() || value->AsInt() < 0) {
    return Status::InvalidArgument(
        StrFormat("shard %zu \"%.*s\" is not a non-negative integer",
                  shard.shard_index, static_cast<int>(key.size()), key.data()));
  }
  return static_cast<uint64_t>(value->AsInt());
}

/// Rewrites a shard-local answer to global document numbering.
Status GlobalizeAnswer(json::Value* answer, size_t doc_base,
                       size_t shard_index) {
  const json::Value* index = answer->Find("document_index");
  if (index == nullptr || !index->is_integral() || index->AsInt() < 0) {
    return Status::InvalidArgument(StrFormat(
        "shard %zu answer is missing \"document_index\"", shard_index));
  }
  answer->Set("document_index",
              static_cast<uint64_t>(index->AsInt()) +
                  static_cast<uint64_t>(doc_base));
  return Status::OK();
}

/// One shard's cursor into its ranked answers array during the k-way merge.
struct RankedCursor {
  const ShardBody* shard = nullptr;
  size_t next = 0;

  double score() const {
    return (*shard->body.Find("answers"))[next].Find("score")->AsDouble();
  }
  uint64_t global_doc() const {
    const json::Value& answer = (*shard->body.Find("answers"))[next];
    return static_cast<uint64_t>(answer.Find("document_index")->AsInt()) +
           static_cast<uint64_t>(shard->doc_base);
  }
};

}  // namespace

StatusOr<json::Value> MergeQueryBodies(std::vector<ShardBody> bodies,
                                       const MergePlan& plan,
                                       size_t total_documents,
                                       const std::vector<size_t>&
                                           missing_shards) {
  if (bodies.empty()) {
    return Status::InvalidArgument("cannot merge zero shard responses");
  }
  const bool ranked_mode = plan.rank || plan.top_k >= 0;

  // Validate every body up front; sums double as validation receipts.
  uint64_t documents_evaluated = 0;
  uint64_t documents_skipped = 0;
  uint64_t answer_count = 0;
  bool want_explain = false;
  for (const ShardBody& shard : bodies) {
    XFRAG_RETURN_NOT_OK(
        Require(shard, "query", json::Value::Kind::kString).status());
    XFRAG_RETURN_NOT_OK(
        Require(shard, "answers", json::Value::Kind::kArray).status());
    XFRAG_RETURN_NOT_OK(
        Require(shard, "metrics", json::Value::Kind::kObject).status());
    XFRAG_ASSIGN_OR_RETURN(uint64_t evaluated,
                           RequireCount(shard, "documents_evaluated"));
    XFRAG_ASSIGN_OR_RETURN(uint64_t skipped,
                           RequireCount(shard, "documents_skipped"));
    XFRAG_ASSIGN_OR_RETURN(uint64_t count,
                           RequireCount(shard, "answer_count"));
    documents_evaluated += evaluated;
    documents_skipped += skipped;
    answer_count += count;
    if (shard.body.Find("explain") != nullptr) want_explain = true;
    if (ranked_mode) {
      for (const json::Value& answer : shard.body.Find("answers")->items()) {
        const json::Value* score = answer.Find("score");
        if (score == nullptr || !score->is_number()) {
          return Status::InvalidArgument(StrFormat(
              "shard %zu ranked answer is missing \"score\"",
              shard.shard_index));
        }
      }
    }
  }
  if (ranked_mode && plan.top_k >= 0) {
    answer_count = std::min(answer_count, static_cast<uint64_t>(plan.top_k));
  }
  const uint64_t emit_limit =
      plan.max_answers >= 0
          ? std::min(answer_count, static_cast<uint64_t>(plan.max_answers))
          : answer_count;
  const bool truncated = plan.max_answers >= 0 &&
                         answer_count > static_cast<uint64_t>(plan.max_answers);

  json::Value answers = json::Value::Array();
  if (ranked_mode) {
    // K-way merge on (score desc, global document asc). Ties on both keys
    // can only occur inside one body's already-ordered list (bodies cover
    // disjoint document ranges), so the comparator never has to reconstruct
    // canonical fragment order.
    std::vector<RankedCursor> cursors;
    for (const ShardBody& shard : bodies) {
      cursors.push_back(RankedCursor{&shard, 0});
    }
    while (answers.size() < emit_limit) {
      RankedCursor* best = nullptr;
      for (RankedCursor& cursor : cursors) {
        if (cursor.next >= cursor.shard->body.Find("answers")->size()) {
          continue;
        }
        if (best == nullptr || cursor.score() > best->score() ||
            (cursor.score() == best->score() &&
             cursor.global_doc() < best->global_doc())) {
          best = &cursor;
        }
      }
      if (best == nullptr) break;  // shard lists exhausted early
      json::Value answer =
          (*best->shard->body.Find("answers"))[best->next];
      XFRAG_RETURN_NOT_OK(GlobalizeAnswer(&answer, best->shard->doc_base,
                                          best->shard->shard_index));
      answers.Append(std::move(answer));
      ++best->next;
    }
  } else {
    // Full mode: shard ranges are contiguous and bodies arrive sorted by
    // doc_base, so concatenation is global document order.
    for (const ShardBody& shard : bodies) {
      for (const json::Value& item : shard.body.Find("answers")->items()) {
        if (answers.size() >= emit_limit) break;
        json::Value answer = item;
        XFRAG_RETURN_NOT_OK(
            GlobalizeAnswer(&answer, shard.doc_base, shard.shard_index));
        answers.Append(std::move(answer));
      }
    }
  }

  // Field-wise metric sums, preserving the single-node key order.
  json::Value metrics = json::Value::Object();
  for (const auto& [key, value] : bodies.front().body.Find("metrics")
                                      ->members()) {
    (void)value;
    uint64_t sum = 0;
    for (const ShardBody& shard : bodies) {
      const json::Value* field = shard.body.Find("metrics")->Find(key);
      if (field != nullptr && field->is_integral() && field->AsInt() >= 0) {
        sum += static_cast<uint64_t>(field->AsInt());
      }
    }
    metrics.Set(key, sum);
  }

  // Reassemble in the exact single-node field order (service.cc).
  json::Value body = json::Value::Object();
  body.Set("query", bodies.front().body.Find("query")->AsString());
  if (ranked_mode) {
    body.Set("ranked", true);
    if (plan.top_k >= 0) body.Set("top_k", plan.top_k);
  }
  body.Set("documents", static_cast<uint64_t>(total_documents));
  body.Set("documents_evaluated", documents_evaluated);
  body.Set("documents_skipped", documents_skipped);
  body.Set("answer_count", answer_count);
  if (truncated) body.Set("truncated", true);
  body.Set("answers", std::move(answers));
  body.Set("metrics", std::move(metrics));
  if (want_explain) {
    json::Value explains = json::Value::Array();
    for (const ShardBody& shard : bodies) {
      const json::Value* explain = shard.body.Find("explain");
      if (explain == nullptr || !explain->is_array()) continue;
      for (const json::Value& entry : explain->items()) {
        explains.Append(entry);
      }
    }
    body.Set("explain", std::move(explains));
  }
  if (!missing_shards.empty()) {
    json::Value missing = json::Value::Array();
    for (size_t index : missing_shards) {
      missing.Append(static_cast<uint64_t>(index));
    }
    json::Value partial = json::Value::Object();
    partial.Set("missing_shards", std::move(missing));
    body.Set("partial", std::move(partial));
  }
  return body;
}

}  // namespace xfrag::router

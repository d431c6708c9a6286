#include "server/service.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>

#include "collection/collection_engine.h"
#include "common/cancel.h"
#include "common/strings.h"
#include "common/timer.h"
#include "common/version.h"
#include "lang/diagnostics.h"
#include "lang/lower.h"
#include "query/answers.h"
#include "server/stats.h"

namespace xfrag::server {

using algebra::Fragment;
using algebra::OpMetrics;
using query::Strategy;

int HttpStatusForError(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
    case StatusCode::kParseError:
    case StatusCode::kOutOfRange:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kResourceExhausted:
      // A query that trips the powerset enumeration limits is the client's
      // to fix (choose another strategy), not a server overload.
      return 400;
    case StatusCode::kDeadlineExceeded:
      return 504;
    case StatusCode::kUnimplemented:
      return 501;
    case StatusCode::kInternal:
      return 500;
  }
  return 500;
}

StatusOr<Strategy> ParseStrategyName(std::string_view name) {
  if (name == "auto") return Strategy::kAuto;
  if (name == "brute") return Strategy::kBruteForce;
  if (name == "naive") return Strategy::kFixedPointNaive;
  if (name == "reduced") return Strategy::kFixedPointReduced;
  if (name == "pushdown") return Strategy::kPushDown;
  return Status::InvalidArgument(
      StrFormat("unknown strategy '%.*s' (expected auto|brute|naive|reduced|"
                "pushdown)",
                static_cast<int>(name.size()), name.data()));
}

namespace {

// A structured error body: {"error": ..., "code": ...} plus extra fields
// callers attach (offset, metrics).
json::Value ErrorBody(const Status& status) {
  json::Value body = json::Value::Object();
  body.Set("error", status.message());
  body.Set("code", std::string(StatusCodeName(status.code())));
  return body;
}

QueryOutcome ErrorOutcome(const Status& status) {
  QueryOutcome outcome;
  outcome.http_status = HttpStatusForError(status);
  outcome.body = ErrorBody(status);
  return outcome;
}

}  // namespace

// The decoded request, after validation. Namespace-scope (not anonymous) so
// the RunParsed declaration in service.h can forward-declare it.
struct ParsedRequest {
  query::Query query;
  // Explicit plan lowered from an XQL "q" field with a composed expression
  // (null for canonical term-set queries, which always go through
  // query.terms so JSON and XQL requests stay byte-identical). When set,
  // query.terms holds the plan's scan terms (for the conjunctive pre-check
  // and scoring) and `display` the normalized query text echoed back as
  // the response's "query" field.
  std::shared_ptr<const query::PlanNode> plan;
  std::string display;
  query::EvalOptions eval;
  double deadline_ms = 0.0;
  double debug_sleep_ms = 0.0;
  bool explain = false;
  bool include_xml = false;
  int64_t max_answers = -1;  // < 0 = unlimited
  int64_t top_k = -1;        // < 0 = no top-k cutoff
  bool rank = false;         // ranked evaluation ("top_k" implies it)
  bool rank_explicit = false;
};

namespace {

// A 15-digit deadline times 1e6 exceeds the int64 range, where the cast
// would be undefined — deadlines clamp to a representable ns ceiling
// (~285 years).
constexpr double kMaxDeadlineNanos = 9.0e18;

// The deadline policy: the request's value, else the server default, both
// clamped to the configured ceiling. 0 means no deadline.
double ResolvedDeadlineMs(const ParsedRequest& request,
                          const ServiceOptions& options) {
  double deadline_ms = request.deadline_ms > 0 ? request.deadline_ms
                                               : options.default_deadline_ms;
  if (options.max_deadline_ms > 0 &&
      (deadline_ms <= 0 || deadline_ms > options.max_deadline_ms)) {
    deadline_ms = options.max_deadline_ms;
  }
  return deadline_ms;
}

std::chrono::nanoseconds DeadlineNanos(double deadline_ms) {
  return std::chrono::nanoseconds(
      static_cast<int64_t>(std::min(deadline_ms * 1e6, kMaxDeadlineNanos)));
}

// True for request fields an XQL "q" query text already specifies — they
// conflict with "q" (debug_sleep_ms remains valid alongside it).
bool IsQueryShapingField(std::string_view key) {
  return key == "terms" || key == "filter" || key == "strategy" ||
         key == "answer_mode" || key == "explain" || key == "analyze" ||
         key == "xml" || key == "max_answers" || key == "top_k" ||
         key == "rank" || key == "deadline_ms";
}

// Decodes an XQL "q" field into the same ParsedRequest fields the JSON
// request schema fills. On parse failure, `*error_extra` (when non-null)
// receives the structured diagnostic fields ("offset", "snippet") merged
// into the 400 body — the same convention as unparseable JSON bodies.
Status DecodeXqlField(const json::Value& value, ParsedRequest* out,
                      json::Value* error_extra) {
  if (!value.is_string() || value.AsString().empty()) {
    return Status::InvalidArgument("\"q\" must be a non-empty XQL string");
  }
  const std::string& text = value.AsString();
  lang::Diagnostic diag;
  auto lowered = lang::ParseAndLower(text, &diag);
  if (!lowered.ok()) {
    if (error_extra != nullptr) {
      error_extra->Set("offset", static_cast<uint64_t>(diag.offset));
      error_extra->Set("snippet", lang::CaretSnippet(text, diag.offset));
    }
    return Status::InvalidArgument("q: " + lowered.status().message());
  }
  if (lowered->canonical) {
    out->query = std::move(lowered->canonical_query);
    out->eval.strategy = lowered->strategy;
  } else {
    out->plan = lowered->plan;
    out->query.terms = std::move(lowered->scan_terms);
    out->display = std::move(lowered->display);
  }
  if (lowered->leaf_strict) {
    out->eval.answer_mode = query::AnswerMode::kLeafStrict;
  }
  if (lowered->explain) out->explain = true;
  if (lowered->analyze) {
    out->eval.analyze = true;
    out->explain = true;
  }
  if (lowered->xml) out->include_xml = true;
  if (lowered->rank) out->rank = true;
  out->top_k = lowered->top_k;
  out->max_answers = lowered->limit;
  if (lowered->deadline_ms >= 0) {
    if (lowered->deadline_ms == 0) {
      return Status::InvalidArgument("DEADLINE must be a positive number");
    }
    out->deadline_ms = static_cast<double>(lowered->deadline_ms);
  }
  return Status::OK();
}

Status DecodeRequest(const json::Value& root, bool allow_debug_sleep,
                     ParsedRequest* out, json::Value* error_extra) {
  if (!root.is_object()) {
    return Status::InvalidArgument("request body must be a JSON object");
  }
  // Decode "q" first: it fills the same fields the JSON schema fills, so
  // the cross-field validation below applies uniformly to both surfaces.
  const json::Value* q = root.Find("q");
  if (q != nullptr) {
    XFRAG_RETURN_NOT_OK(DecodeXqlField(*q, out, error_extra));
  }
  for (const auto& [key, value] : root.members()) {
    if (key == "q") {
      continue;  // Decoded above.
    } else if (q != nullptr && IsQueryShapingField(key)) {
      return Status::InvalidArgument(StrFormat(
          "\"%s\" conflicts with \"q\" (the query text already specifies "
          "it)",
          key.c_str()));
    } else if (key == "terms") {
      if (!value.is_array() || value.size() == 0) {
        return Status::InvalidArgument(
            "\"terms\" must be a non-empty array of strings");
      }
      for (const json::Value& term : value.items()) {
        if (!term.is_string() || term.AsString().empty()) {
          return Status::InvalidArgument(
              "\"terms\" must be a non-empty array of strings");
        }
        out->query.terms.push_back(term.AsString());
      }
    } else if (key == "filter") {
      if (!value.is_string()) {
        return Status::InvalidArgument("\"filter\" must be a string");
      }
      auto filter = query::ParseFilterExpression(value.AsString());
      if (!filter.ok()) {
        return Status::InvalidArgument("filter: " + filter.status().message());
      }
      out->query.filter = *filter;
    } else if (key == "strategy") {
      if (!value.is_string()) {
        return Status::InvalidArgument("\"strategy\" must be a string");
      }
      XFRAG_ASSIGN_OR_RETURN(out->eval.strategy,
                             ParseStrategyName(value.AsString()));
    } else if (key == "answer_mode") {
      if (value.is_string() && value.AsString() == "algebraic") {
        out->eval.answer_mode = query::AnswerMode::kAlgebraic;
      } else if (value.is_string() && value.AsString() == "leaf_strict") {
        out->eval.answer_mode = query::AnswerMode::kLeafStrict;
      } else {
        return Status::InvalidArgument(
            "\"answer_mode\" must be \"algebraic\" or \"leaf_strict\"");
      }
    } else if (key == "deadline_ms") {
      if (!value.is_number() || value.AsDouble() <= 0) {
        return Status::InvalidArgument(
            "\"deadline_ms\" must be a positive number");
      }
      out->deadline_ms = value.AsDouble();
    } else if (key == "explain") {
      if (!value.is_bool()) {
        return Status::InvalidArgument("\"explain\" must be a boolean");
      }
      out->explain = value.AsBool();
    } else if (key == "analyze") {
      if (!value.is_bool()) {
        return Status::InvalidArgument("\"analyze\" must be a boolean");
      }
      out->eval.analyze = value.AsBool();
      if (value.AsBool()) out->explain = true;
    } else if (key == "xml") {
      if (!value.is_bool()) {
        return Status::InvalidArgument("\"xml\" must be a boolean");
      }
      out->include_xml = value.AsBool();
    } else if (key == "max_answers") {
      if (!value.is_integral() || value.AsInt() < 0) {
        return Status::InvalidArgument(
            "\"max_answers\" must be a non-negative integer");
      }
      out->max_answers = value.AsInt();
    } else if (key == "top_k") {
      if (!value.is_integral() || value.AsInt() < 0) {
        return Status::InvalidArgument(
            "\"top_k\" must be a non-negative integer");
      }
      out->top_k = value.AsInt();
    } else if (key == "rank") {
      if (!value.is_bool()) {
        return Status::InvalidArgument("\"rank\" must be a boolean");
      }
      out->rank = value.AsBool();
      out->rank_explicit = true;
    } else if (key == "debug_sleep_ms" && allow_debug_sleep) {
      if (!value.is_number() || value.AsDouble() < 0) {
        return Status::InvalidArgument(
            "\"debug_sleep_ms\" must be a non-negative number");
      }
      out->debug_sleep_ms = value.AsDouble();
    } else {
      return Status::InvalidArgument(
          StrFormat("unknown request field \"%s\"", key.c_str()));
    }
  }
  if (out->query.terms.empty()) {
    return Status::InvalidArgument("missing required field \"terms\"");
  }
  if (out->top_k >= 0) {
    if (out->rank_explicit && !out->rank) {
      return Status::InvalidArgument(
          "\"rank\": false conflicts with \"top_k\" (top-k answers are "
          "ranked by definition)");
    }
    out->rank = true;
  }
  return Status::OK();
}

// The one decoder behind a /query body and each /query_batch item. On
// failure returns the structured error outcome, with the XQL diagnostic
// fields ("offset", "snippet") merged into its body.
std::optional<QueryOutcome> DecodeQuery(const json::Value& root,
                                        bool allow_debug_sleep,
                                        ParsedRequest* out) {
  json::Value error_extra = json::Value::Object();
  Status decoded = DecodeRequest(root, allow_debug_sleep, out, &error_extra);
  if (decoded.ok()) return std::nullopt;
  QueryOutcome outcome = ErrorOutcome(decoded);
  for (const auto& [key, value] : error_extra.members()) {
    outcome.body.Set(key, value);
  }
  return outcome;
}

// The normalized-request cache key: terms case-folded (the index folds them
// anyway) and sorted (conjunctive semantics are order-free), then every
// field that can change the response body. '\x1f'/'\x1e' separators keep
// the key unambiguous. Deadline and debug-sleep are deliberately absent —
// they change timing, never a successful body, and debug-sleep requests
// bypass the cache entirely.
std::string ResultCacheKey(const ParsedRequest& request) {
  std::vector<std::string> terms;
  terms.reserve(request.query.terms.size());
  for (const std::string& term : request.query.terms) {
    terms.push_back(AsciiToLower(term));
  }
  std::sort(terms.begin(), terms.end());
  std::string key;
  for (const std::string& term : terms) {
    key += term;
    key += '\x1e';
  }
  key += '\x1f';
  key += request.query.filter != nullptr ? request.query.filter->ToString()
                                         : "";
  key += '\x1f';
  key += query::StrategyName(request.eval.strategy);
  key += '\x1f';
  key += request.eval.answer_mode == query::AnswerMode::kLeafStrict ? "L" : "A";
  key += '\x1f';
  key += StrFormat("%lld", static_cast<long long>(request.top_k));
  key += request.rank ? "\x1fR" : "\x1fU";
  key += '\x1f';
  key += StrFormat("%lld", static_cast<long long>(request.max_answers));
  key += request.include_xml ? "\x1f" "x" : "\x1f";
  key += request.explain ? "\x1f" "e" : "\x1f";
  key += request.eval.analyze ? "\x1f" "a" : "\x1f";
  // Explicit-plan queries key on the plan's rendering; canonical queries
  // leave the segment empty so a JSON request and its equivalent XQL text
  // share one cache entry.
  key += '\x1f';
  if (request.plan != nullptr) key += request.plan->ToString();
  return key;
}

}  // namespace

QueryService::QueryService(const collection::Collection& collection,
                           ServiceOptions options)
    : collection_(collection), options_(options) {
  caches_.reserve(collection_.size());
  for (size_t i = 0; i < collection_.size(); ++i) {
    caches_.push_back(std::make_unique<query::FixedPointCache>(
        options_.fixed_point_cache));
  }
  ResultCacheOptions cache_options;
  cache_options.max_bytes = options_.result_cache_bytes;
  cache_options.shards = options_.result_cache_shards;
  result_cache_ = std::make_unique<ResultCache>(cache_options);
}

json::Value QueryService::AnswerToJson(std::string_view document_name,
                                       size_t document_index,
                                       const Fragment& fragment,
                                       const doc::Document& document,
                                       bool include_xml) {
  json::Value answer = json::Value::Object();
  answer.Set("document", document_name);
  answer.Set("document_index", static_cast<uint64_t>(document_index));
  answer.Set("root", static_cast<uint64_t>(fragment.root()));
  answer.Set("root_tag", document.tag(fragment.root()));
  answer.Set("size", static_cast<uint64_t>(fragment.size()));
  json::Value nodes = json::Value::Array();
  for (doc::NodeId n : fragment.nodes()) {
    nodes.Append(static_cast<uint64_t>(n));
  }
  answer.Set("nodes", std::move(nodes));
  if (include_xml) {
    answer.Set("xml", query::FragmentToXml(fragment, document,
                                           /*mark_elisions=*/true));
  }
  return answer;
}

QueryOutcome QueryService::HandleQuery(std::string_view body_text) const {
  Timer timer;
  size_t error_offset = 0;
  auto root = json::Parse(body_text, &error_offset);
  if (!root.ok()) {
    QueryOutcome outcome = ErrorOutcome(root.status());
    outcome.body.Set("offset", static_cast<uint64_t>(error_offset));
    return outcome;
  }

  ParsedRequest request;
  if (auto error = DecodeQuery(*root, options_.enable_debug_sleep, &request)) {
    return std::move(*error);
  }
  return RunParsed(request, timer);
}

QueryOutcome QueryService::RunParsed(
    ParsedRequest& request, const Timer& timer,
    std::optional<std::chrono::steady_clock::time_point> batch_deadline)
    const {
  // Serve from the result cache when possible: a hit costs one key build and
  // one map lookup, and the engine never runs — the outcome carries zero
  // metrics, which is how the loopback tests prove the hit was served
  // without evaluation. Only request-specific echo fields are re-stamped.
  std::string cache_key;
  if (result_cache_->enabled() && request.debug_sleep_ms <= 0) {
    cache_key = ResultCacheKey(request);
    if (auto cached = result_cache_->Find(cache_key)) {
      QueryOutcome outcome;
      outcome.http_status = 200;
      outcome.body = *cached;
      outcome.body.Set("query", request.display.empty()
                                    ? request.query.ToString()
                                    : request.display);
      outcome.body.Set("result_cache", "hit");
      outcome.body.Set("elapsed_ms", timer.ElapsedMillis());
      return outcome;
    }
  }

  // The request's own deadline, capped by what is left of its batch's.
  std::optional<std::chrono::nanoseconds> budget;
  if (const double deadline_ms = ResolvedDeadlineMs(request, options_);
      deadline_ms > 0) {
    budget = DeadlineNanos(deadline_ms);
  }
  if (batch_deadline.has_value()) {
    const auto remaining = std::chrono::duration_cast<std::chrono::nanoseconds>(
        *batch_deadline - std::chrono::steady_clock::now());
    budget = budget.has_value() ? std::min(*budget, remaining) : remaining;
  }
  CancelToken cancel;
  if (budget.has_value()) {
    cancel.SetDeadlineAfter(*budget);
    request.eval.executor.cancel = &cancel;
  }

  // The stall never outlasts the deadline: past it the worker is only
  // holding a request nobody waits for.
  if (request.debug_sleep_ms > 0) {
    std::chrono::nanoseconds sleep = DeadlineNanos(request.debug_sleep_ms);
    if (budget.has_value()) {
      sleep = std::min(sleep, std::max(*budget, std::chrono::nanoseconds(0)));
    }
    std::this_thread::sleep_for(sleep);
  }

  // Ranked evaluation: "top_k" asks for the k best answers across the
  // collection; "rank" alone ranks them all.
  collection::CollectionEvalOptions eval;
  eval.per_document = request.eval;
  if (request.rank) {
    eval.per_document.top_k =
        request.top_k >= 0 ? request.top_k : collection::kRankAll;
  }
  eval.plan = request.plan.get();
  eval.fixed_point_caches = caches_;
  eval.dag_compression = options_.enable_dag_compression;
  eval.cross_document_floor = options_.enable_cross_document_floor;
  eval.explain = request.explain;
  collection::CollectionResult partial;
  auto result = collection::CollectionEngine(collection_)
                    .Evaluate(request.query, eval, &partial);
  if (!result.ok()) {
    QueryOutcome error = ErrorOutcome(result.status());
    error.metrics = partial.metrics;
    error.body.Set("documents_evaluated",
                   static_cast<uint64_t>(partial.documents_evaluated));
    error.body.Set("metrics", StatsRegistry::OpMetricsToJson(error.metrics));
    if (error.http_status == 504) {
      error.body.Set("partial", true);
    }
    return error;
  }

  json::Value answers = json::Value::Array();
  const size_t shown =
      request.max_answers >= 0
          ? std::min(result->answers.size(),
                     static_cast<size_t>(request.max_answers))
          : result->answers.size();
  for (size_t a = 0; a < shown; ++a) {
    const collection::CollectionAnswer& hit = result->answers[a];
    const collection::CollectionEntry& entry =
        collection_.entry(hit.document_index);
    json::Value answer = AnswerToJson(entry.name, hit.document_index,
                                      hit.fragment, entry.document,
                                      request.include_xml);
    if (request.rank) answer.Set("score", hit.score);
    answers.Append(std::move(answer));
  }

  json::Value body = json::Value::Object();
  body.Set("query", request.display.empty() ? request.query.ToString()
                                            : request.display);
  if (request.rank) {
    body.Set("ranked", true);
    if (request.top_k >= 0) body.Set("top_k", request.top_k);
  }
  body.Set("documents", static_cast<uint64_t>(collection_.size()));
  body.Set("documents_evaluated",
           static_cast<uint64_t>(result->documents_evaluated));
  body.Set("documents_skipped",
           static_cast<uint64_t>(result->documents_skipped));
  body.Set("answer_count", static_cast<uint64_t>(result->answers.size()));
  if (shown < result->answers.size()) body.Set("truncated", true);
  body.Set("answers", std::move(answers));
  body.Set("metrics", StatsRegistry::OpMetricsToJson(result->metrics));
  if (request.explain) {
    json::Value explains = json::Value::Array();
    for (const collection::DocumentExplain& doc : result->explains) {
      json::Value explain = json::Value::Object();
      explain.Set("document", collection_.entry(doc.document_index).name);
      explain.Set("strategy_used",
                  std::string(query::StrategyName(doc.strategy_used)));
      explain.Set("text", doc.text);
      explains.Append(std::move(explain));
    }
    body.Set("explain", std::move(explains));
  }
  body.Set("elapsed_ms", timer.ElapsedMillis());
  dag_documents_deduplicated_.fetch_add(result->documents_deduplicated,
                                        std::memory_order_relaxed);
  dag_class_pairs_considered_.fetch_add(
      result->metrics.class_pairs_considered, std::memory_order_relaxed);
  dag_answers_multiplied_out_.fetch_add(
      result->metrics.answers_multiplied_out, std::memory_order_relaxed);
  QueryOutcome outcome;
  outcome.metrics = result->metrics;
  outcome.body = std::move(body);
  // Only fully successful bodies are cached (errors and deadline
  // expirations returned above never reach this point).
  if (!cache_key.empty()) result_cache_->Insert(cache_key, outcome.body);
  return outcome;
}

QueryOutcome QueryService::HandleQueryBatch(std::string_view body_text) const {
  Timer timer;
  const auto batch_start = std::chrono::steady_clock::now();
  size_t error_offset = 0;
  auto root = json::Parse(body_text, &error_offset);
  if (!root.ok()) {
    QueryOutcome outcome = ErrorOutcome(root.status());
    outcome.body.Set("offset", static_cast<uint64_t>(error_offset));
    return outcome;
  }
  // Accept a bare array of query objects or the {"queries": [...]} envelope.
  const json::Value* queries = nullptr;
  if (root->is_array()) {
    queries = &*root;
  } else if (root->is_object()) {
    for (const auto& [key, value] : root->members()) {
      if (key == "queries") {
        if (!value.is_array()) {
          return ErrorOutcome(Status::InvalidArgument(
              "\"queries\" must be an array of query objects"));
        }
        queries = &value;
      } else {
        return ErrorOutcome(Status::InvalidArgument(
            StrFormat("unknown batch field \"%s\"", key.c_str())));
      }
    }
    if (queries == nullptr) {
      return ErrorOutcome(
          Status::InvalidArgument("missing required field \"queries\""));
    }
  } else {
    return ErrorOutcome(Status::InvalidArgument(
        "batch body must be a JSON array or {\"queries\": [...]}"));
  }
  if (queries->size() == 0) {
    return ErrorOutcome(
        Status::InvalidArgument("batch must contain at least one query"));
  }
  if (queries->size() > options_.batch_max_items) {
    return ErrorOutcome(Status::InvalidArgument(
        StrFormat("batch of %zu items exceeds the %zu-item limit",
                  queries->size(), options_.batch_max_items)));
  }

  // One deadline bounds the whole batch, armed at its start by the router's
  // gather rule: the most patient item's resolved deadline (each already
  // clamped by max_deadline_ms). Items are decoded up front to find it; an
  // item without any deadline leaves the batch unbounded.
  const size_t item_count = queries->size();
  std::vector<ParsedRequest> requests(item_count);
  std::vector<std::optional<QueryOutcome>> item_outcomes(item_count);
  double batch_deadline_ms = 0.0;
  bool unbounded = false;
  for (size_t i = 0; i < item_count; ++i) {
    item_outcomes[i] = DecodeQuery((*queries)[i], options_.enable_debug_sleep,
                                   &requests[i]);
    if (item_outcomes[i].has_value()) continue;  // A per-item 400.
    const double deadline_ms = ResolvedDeadlineMs(requests[i], options_);
    if (deadline_ms <= 0) unbounded = true;
    batch_deadline_ms = std::max(batch_deadline_ms, deadline_ms);
  }
  std::optional<std::chrono::steady_clock::time_point> batch_deadline;
  if (!unbounded && batch_deadline_ms > 0) {
    batch_deadline = batch_start + DeadlineNanos(batch_deadline_ms);
  }

  // Each item runs exactly as a POST /query of its body would, in
  // submission order on this thread, so responses and cache state match N
  // sequential /query calls — except that no item runs past the batch
  // deadline, and one that would start after it is a 504 without being
  // evaluated. A malformed item is its own structured 400 and never poisons
  // the rest of the batch.
  QueryOutcome outcome;
  outcome.http_status = 200;
  uint64_t evaluated = 0;
  uint64_t cache_hits = 0;
  json::Value results = json::Value::Array();
  for (size_t i = 0; i < item_count; ++i) {
    Timer item_timer;
    std::optional<QueryOutcome>& item_outcome = item_outcomes[i];
    if (!item_outcome.has_value() && batch_deadline.has_value() &&
        std::chrono::steady_clock::now() >= *batch_deadline) {
      item_outcome = ErrorOutcome(Status::DeadlineExceeded(
          "the batch deadline passed before this item started"));
      item_outcome->body.Set("documents_evaluated", uint64_t{0});
      item_outcome->body.Set("metrics",
                             StatsRegistry::OpMetricsToJson(OpMetrics()));
      item_outcome->body.Set("partial", true);
    }
    if (!item_outcome.has_value()) {
      item_outcome = RunParsed(requests[i], item_timer, batch_deadline);
      if (item_outcome->http_status == 200 &&
          item_outcome->body.Find("result_cache") != nullptr) {
        ++cache_hits;
      } else {
        ++evaluated;
      }
    }
    json::Value entry = json::Value::Object();
    entry.Set("status", static_cast<int64_t>(item_outcome->http_status));
    entry.Set("body", std::move(item_outcome->body));
    results.Append(std::move(entry));
    outcome.metrics.Merge(item_outcome->metrics);
  }
  json::Value batch = json::Value::Object();
  batch.Set("items", static_cast<uint64_t>(queries->size()));
  batch.Set("evaluated", evaluated);
  batch.Set("result_cache_hits", cache_hits);
  json::Value body = json::Value::Object();
  body.Set("results", std::move(results));
  body.Set("batch", std::move(batch));
  body.Set("elapsed_ms", timer.ElapsedMillis());
  outcome.body = std::move(body);

  batches_.fetch_add(1, std::memory_order_relaxed);
  batch_items_.fetch_add(queries->size(), std::memory_order_relaxed);
  batch_result_cache_hits_.fetch_add(cache_hits, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(batch_mu_);
    batch_sizes_.Record(queries->size());
  }
  return outcome;
}

json::Value QueryService::BatchStatsJson() const {
  json::Value body = json::Value::Object();
  body.Set("batches", batches_.load(std::memory_order_relaxed));
  body.Set("items", batch_items_.load(std::memory_order_relaxed));
  body.Set("result_cache_hits",
           batch_result_cache_hits_.load(std::memory_order_relaxed));
  {
    std::lock_guard<std::mutex> lock(batch_mu_);
    body.Set("size", StatsRegistry::LatencyToJson(batch_sizes_));
  }
  return body;
}

json::Value QueryService::DagStatsJson() const {
  const doc::SubtreeClassInterner& interner = collection_.subtree_classes();
  json::Value body = json::Value::Object();
  body.Set("enabled", options_.enable_dag_compression);
  body.Set("classes", static_cast<uint64_t>(interner.size()));
  const uint64_t total_nodes = collection_.TotalNodes();
  body.Set("total_nodes", total_nodes);
  body.Set("unique_subtree_nodes", interner.unique_subtree_nodes());
  body.Set("compression_ratio",
           interner.unique_subtree_nodes() > 0
               ? static_cast<double>(total_nodes) /
                     static_cast<double>(interner.unique_subtree_nodes())
               : 1.0);
  body.Set("documents", static_cast<uint64_t>(collection_.size()));
  body.Set("distinct_documents",
           static_cast<uint64_t>(collection_.DistinctDocuments()));
  body.Set("documents_deduplicated",
           dag_documents_deduplicated_.load(std::memory_order_relaxed));
  body.Set("class_pairs_considered",
           dag_class_pairs_considered_.load(std::memory_order_relaxed));
  body.Set("answers_multiplied_out",
           dag_answers_multiplied_out_.load(std::memory_order_relaxed));
  return body;
}

json::Value QueryService::HealthzJson() const {
  json::Value body = json::Value::Object();
  body.Set("status", "ok");
  body.Set("documents", static_cast<uint64_t>(collection_.size()));
  body.Set("total_nodes", static_cast<uint64_t>(collection_.TotalNodes()));
  return body;
}

json::Value QueryService::VersionJson() const {
  json::Value body = json::Value::Object();
  body.Set("version", kVersion);
  body.Set("build", BuildInfo("xfragd"));
  return body;
}

json::Value QueryService::CacheStatsJson() const {
  uint64_t entries = 0, bytes = 0, hits = 0, misses = 0, evictions = 0;
  for (const auto& cache : caches_) {
    entries += cache->size();
    bytes += cache->bytes();
    hits += cache->hits();
    misses += cache->misses();
    evictions += cache->evictions();
  }
  json::Value body = json::Value::Object();
  body.Set("entries", entries);
  body.Set("bytes", bytes);
  body.Set("hits", hits);
  body.Set("misses", misses);
  body.Set("evictions", evictions);
  return body;
}

json::Value QueryService::ResultCacheStatsJson() const {
  return result_cache_->StatsJson();
}

void QueryService::InvalidateCaches() const {
  result_cache_->Clear();
  for (const auto& cache : caches_) cache->Clear();
}

}  // namespace xfrag::server

#include "router/router.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <string_view>
#include <utility>

#include "common/json.h"
#include "common/strings.h"
#include "common/timer.h"
#include "common/version.h"
#include "lang/lower.h"
#include "router/merge.h"
#include "server/stats.h"

namespace xfrag::router {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::string_view kJsonType = "application/json";

server::HttpServerOptions ToHttpOptions(const RouterOptions& options) {
  server::HttpServerOptions http;
  http.host = options.host;
  http.port = options.port;
  http.workers = options.workers;
  http.queue_capacity = options.queue_capacity;
  http.request_timeout_ms = options.request_timeout_ms;
  http.max_body_bytes = options.max_body_bytes;
  http.keep_alive = options.keep_alive;
  http.keep_alive_idle_timeout_ms = options.keep_alive_idle_timeout_ms;
  http.max_requests_per_connection = options.max_requests_per_connection;
  http.keep_alive_linger_ms = options.keep_alive_linger_ms;
  http.keep_alive_linger_burst = options.keep_alive_linger_burst;
  return http;
}

/// The structured error shape shared with QueryService (service.cc): the
/// router's own errors look exactly like a shard's.
json::Value ErrorJson(const Status& status) {
  json::Value body = json::Value::Object();
  body.Set("error", status.message());
  body.Set("code", std::string(StatusCodeName(status.code())));
  return body;
}

json::Value MissingShardsJson(const std::vector<size_t>& missing) {
  json::Value out = json::Value::Array();
  for (size_t index : missing) out.Append(static_cast<uint64_t>(index));
  return out;
}

/// A client-supplied deadline as a shard budget in whole milliseconds,
/// clamped to [1, INT_MAX] before narrowing: DEADLINE accepts up to 15
/// digits, and a cast past INT_MAX would wrap to a bogus tiny budget.
int ClampDeadlineMs(double ms) {
  constexpr double kMax = std::numeric_limits<int>::max();
  return static_cast<int>(std::clamp(std::ceil(ms), 1.0, kMax));
}

/// What the router reads from one client query object: the merge plan and
/// the shard deadline the query asks for (0 = none).
struct QueryPlan {
  MergePlan merge;
  int deadline_ms = 0;
};

/// The one merge-plan extractor behind /query and every /query_batch item.
/// Best effort: a query the shards will reject keeps the defaults (their
/// 4xx is what the client sees). An XQL "q" text carries TOP/RANK/LIMIT/
/// DEADLINE inside it, so it is lowered here; the query itself is forwarded
/// untouched, since shards decode "q" themselves.
QueryPlan ExtractQueryPlan(const json::Value& query) {
  QueryPlan plan;
  if (!query.is_object()) return plan;
  if (const json::Value* v = query.Find("top_k");
      v != nullptr && v->is_integral() && v->AsInt() >= 0) {
    plan.merge.top_k = v->AsInt();
  }
  if (const json::Value* v = query.Find("rank"); v != nullptr && v->is_bool()) {
    plan.merge.rank = v->AsBool();
  }
  if (const json::Value* v = query.Find("max_answers");
      v != nullptr && v->is_integral() && v->AsInt() >= 0) {
    plan.merge.max_answers = v->AsInt();
  }
  if (const json::Value* v = query.Find("deadline_ms");
      v != nullptr && v->is_number() && v->AsDouble() > 0) {
    plan.deadline_ms = ClampDeadlineMs(v->AsDouble());
  }
  if (const json::Value* v = query.Find("q"); v != nullptr && v->is_string()) {
    auto lowered = lang::ParseAndLower(v->AsString(), nullptr);
    if (lowered.ok()) {
      if (lowered->top_k >= 0) plan.merge.top_k = lowered->top_k;
      if (lowered->rank || lowered->top_k >= 0) plan.merge.rank = true;
      if (lowered->limit >= 0) plan.merge.max_answers = lowered->limit;
      if (lowered->deadline_ms > 0) {
        plan.deadline_ms =
            ClampDeadlineMs(static_cast<double>(lowered->deadline_ms));
      }
    }
  }
  return plan;
}

}  // namespace

uint64_t Router::ShardState::P95Micros() const {
  std::lock_guard<std::mutex> lock(mutex);
  return latency.PercentileUpperBoundMicros(95);
}

uint64_t Router::ShardState::LatencyCount() const {
  std::lock_guard<std::mutex> lock(mutex);
  return latency.count();
}

/// Shared between the gather coordinator and its attempt tasks. Each shard
/// has a primary attempt and at most one hedge; the first attempt to come
/// back with a parsed HTTP response resolves the shard and cancels its
/// sibling. A shard with every attempt failed resolves as an error. The
/// coordinator may stop waiting (deadline) while attempts still run —
/// hence the shared_ptr lifetime.
struct Router::GatherState {
  struct PerShard {
    int attempts_running = 0;
    bool done = false;
    ShardOutcome outcome;
    std::shared_ptr<CallCancel> primary;
    std::shared_ptr<CallCancel> hedge;
    bool hedge_won = false;
  };

  std::mutex mutex;
  std::condition_variable cv;
  size_t outstanding = 0;
  std::vector<PerShard> shards;
};

Router::Router(ShardMap map, RouterOptions options)
    : map_(std::move(map)),
      options_(std::move(options)),
      http_(*this, ToHttpOptions(options_)) {
  shards_.reserve(map_.shards.size());
  for (const ShardInfo& info : map_.shards) {
    auto state = std::make_unique<ShardState>();
    state->info = info;
    state->client = std::make_unique<BackendClient>(info.host, info.port,
                                                    options_.backend);
    shards_.push_back(std::move(state));
  }
  // Sized so every worker can have all its shard legs plus a hedge in
  // flight without queuing behind another request's fan-out.
  size_t fanout = static_cast<size_t>(std::max(1, options_.workers)) *
                  (shards_.size() + 1);
  fanout_pool_ = std::make_unique<ThreadPool>(
      static_cast<unsigned>(std::clamp<size_t>(fanout, 1, 127)));
}

Router::~Router() { Shutdown(); }

Status Router::Start() {
  XFRAG_RETURN_NOT_OK(http_.Start());
  if (options_.health_check_interval_ms > 0) {
    health_thread_ = std::thread([this] { HealthLoop(); });
  }
  started_.store(true);
  return Status::OK();
}

void Router::Shutdown() {
  if (!started_.exchange(false)) return;
  {
    std::lock_guard<std::mutex> lock(health_mutex_);
    health_stop_ = true;
  }
  health_cv_.notify_all();
  if (health_thread_.joinable()) health_thread_.join();
  http_.Shutdown();
}

size_t Router::HealthyShards() const {
  size_t healthy = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mutex);
    if (shard->healthy) ++healthy;
  }
  return healthy;
}

void Router::HealthLoop() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(health_mutex_);
      health_cv_.wait_for(
          lock,
          std::chrono::milliseconds(options_.health_check_interval_ms),
          [this] { return health_stop_; });
      if (health_stop_) return;
    }
    for (const auto& shard : shards_) {
      std::string probe = shard->client->BuildRequest("GET", "/healthz", "");
      auto result = shard->client->Call(
          probe, options_.health_check_timeout_ms, nullptr);
      bool up = result.ok() && result->status == 200;
      std::lock_guard<std::mutex> lock(shard->mutex);
      if (up != shard->healthy) {
        shard->healthy = up;
        if (up) {
          ++shard->mark_ups;
        } else {
          ++shard->mark_downs;
        }
      }
    }
  }
}

int Router::HedgeDelayMs(int shard_deadline_ms) const {
  uint64_t max_p95_us = 0;
  uint64_t min_samples = std::numeric_limits<uint64_t>::max();
  for (const auto& shard : shards_) {
    max_p95_us = std::max(max_p95_us, shard->P95Micros());
    min_samples = std::min(min_samples, shard->LatencyCount());
  }
  int delay = min_samples < options_.hedge_warmup_samples
                  ? options_.hedge_default_delay_ms
                  : static_cast<int>(max_p95_us / 1000) + 1;
  delay = std::max(delay, options_.hedge_min_delay_ms);
  return std::min(delay, std::max(1, shard_deadline_ms / 2));
}

std::vector<Router::ShardOutcome> Router::ScatterGather(
    const std::string& forward_body, int shard_deadline_ms) {
  const size_t n = shards_.size();
  auto state = std::make_shared<GatherState>();
  state->shards.resize(n);
  state->outstanding = n;

  auto launch = [this, state, shard_deadline_ms](
                    size_t i, const std::string& request,
                    std::shared_ptr<CallCancel> cancel, bool is_hedge) {
    fanout_pool_->Post([this, state, i, request, cancel, is_hedge,
                        shard_deadline_ms] {
      Timer timer;
      auto result = shards_[i]->client->Call(request, shard_deadline_ms,
                                             cancel);
      {
        std::lock_guard<std::mutex> shard_lock(shards_[i]->mutex);
        ++shards_[i]->requests;
        if (result.ok()) {
          shards_[i]->latency.Record(
              static_cast<uint64_t>(timer.ElapsedMicros()));
        } else {
          ++shards_[i]->failures;
        }
      }
      std::lock_guard<std::mutex> lock(state->mutex);
      GatherState::PerShard& per = state->shards[i];
      --per.attempts_running;
      if (per.done) return;  // sibling already resolved the shard
      if (result.ok()) {
        per.done = true;
        per.outcome.resolved = true;
        per.outcome.http_status = result->status;
        per.outcome.body = std::move(result->body);
        per.hedge_won = is_hedge;
        // The loser's socket is shut down, not closed: its attempt still
        // owns the fd and fails out promptly instead of waiting for data.
        if (is_hedge && per.primary != nullptr) per.primary->Cancel();
        if (!is_hedge && per.hedge != nullptr) per.hedge->Cancel();
        --state->outstanding;
        state->cv.notify_all();
      } else {
        per.outcome.error = result.status();
        if (per.attempts_running == 0) {
          per.done = true;
          --state->outstanding;
          state->cv.notify_all();
        }
      }
    });
  };

  std::vector<std::string> requests;
  requests.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    requests.push_back(shards_[i]->client->BuildRequest(
        "POST", "/query_batch", forward_body));
  }
  {
    std::lock_guard<std::mutex> lock(state->mutex);
    for (size_t i = 0; i < n; ++i) {
      state->shards[i].primary = std::make_shared<CallCancel>();
      state->shards[i].attempts_running = 1;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    launch(i, requests[i], state->shards[i].primary, /*is_hedge=*/false);
  }

  const auto start = Clock::now();
  // 64-bit sum: shard_deadline_ms can legitimately be INT_MAX (clamped from
  // an oversized client deadline), and + grace must not wrap into the past.
  const auto deadline_tp =
      start + std::chrono::milliseconds(
                  static_cast<int64_t>(shard_deadline_ms) +
                  options_.deadline_grace_ms);
  const auto hedge_tp =
      start + std::chrono::milliseconds(HedgeDelayMs(shard_deadline_ms));
  bool hedged = !options_.enable_hedging || n == 0;

  std::unique_lock<std::mutex> lock(state->mutex);
  while (state->outstanding > 0) {
    auto wake = hedged ? deadline_tp : std::min(deadline_tp, hedge_tp);
    state->cv.wait_until(lock, wake,
                         [&] { return state->outstanding == 0; });
    if (state->outstanding == 0) break;
    auto now = Clock::now();
    if (!hedged && now >= hedge_tp) {
      hedged = true;
      // One hedge per request, aimed at the slowest straggler: of the
      // shards still outstanding, the one with the worst observed p95.
      size_t straggler = n;
      uint64_t worst_p95 = 0;
      for (size_t i = 0; i < n; ++i) {
        if (state->shards[i].done) continue;
        uint64_t p95 = shards_[i]->P95Micros();
        if (straggler == n || p95 > worst_p95) {
          straggler = i;
          worst_p95 = p95;
        }
      }
      if (straggler < n) {
        GatherState::PerShard& per = state->shards[straggler];
        per.hedge = std::make_shared<CallCancel>();
        ++per.attempts_running;
        hedges_launched_.fetch_add(1, std::memory_order_relaxed);
        launch(straggler, requests[straggler], per.hedge, /*is_hedge=*/true);
      }
      continue;
    }
    if (now >= deadline_tp) break;
  }

  // Harvest under the lock: stragglers are resolved as deadline-missing and
  // their attempts canceled; any late completion sees done and discards.
  std::vector<ShardOutcome> outcomes(n);
  for (size_t i = 0; i < n; ++i) {
    GatherState::PerShard& per = state->shards[i];
    if (!per.done) {
      if (per.primary != nullptr) per.primary->Cancel();
      if (per.hedge != nullptr) per.hedge->Cancel();
      if (per.outcome.error.ok()) {
        per.outcome.error = Status::DeadlineExceeded(StrFormat(
            "shard %s did not answer within %d ms",
            shards_[i]->info.Endpoint().c_str(), shard_deadline_ms));
      }
      per.done = true;
      --state->outstanding;
    }
    if (per.outcome.resolved && per.hedge_won) {
      hedges_won_.fetch_add(1, std::memory_order_relaxed);
    }
    outcomes[i] = per.outcome;
  }
  return outcomes;
}

int Router::MergeShardBodies(std::vector<ShardBody> bodies,
                             const std::vector<size_t>& missing,
                             const MergePlan& plan, bool require_complete,
                             json::Value* out) {
  if (bodies.empty() || (require_complete && !missing.empty())) {
    *out = ErrorJson(Status::DeadlineExceeded(
        bodies.empty() ? "no shard answered"
                       : "incomplete result refused (require_complete)"));
    out->Set("missing_shards", MissingShardsJson(missing));
    return 504;
  }
  auto merged =
      MergeQueryBodies(std::move(bodies), plan, map_.total_documents, missing);
  if (!merged.ok()) {
    *out = ErrorJson(
        Status::Internal("merge failed: " + merged.status().message()));
    return 502;
  }
  if (!missing.empty()) {
    partials_served_.fetch_add(1, std::memory_order_relaxed);
  }
  *out = std::move(*merged);
  return 200;
}

std::string Router::HandleQuery(const std::string& request_body,
                                int* status_out) {
  Timer timer;
  size_t error_offset = 0;
  auto root = json::Parse(request_body, &error_offset);
  if (!root.ok()) {
    json::Value body = ErrorJson(root.status());
    body.Set("offset", static_cast<uint64_t>(error_offset));
    *status_out = 400;
    return body.Dump();
  }

  // require_complete is router-protocol only: validate, consume, and strip
  // it before forwarding (a shard would reject the unknown field). Every
  // other field goes to the shards as sent; their decoder is the one place
  // that accepts or rejects request fields.
  bool require_complete = false;
  if (const json::Value* rc = root->Find("require_complete")) {
    if (!rc->is_bool()) {
      *status_out = 400;
      return ErrorJson(Status::InvalidArgument(
                           "\"require_complete\" must be a boolean"))
          .Dump();
    }
    require_complete = rc->AsBool();
    root->Remove("require_complete");
  }
  std::vector<json::Value> queries;
  queries.push_back(std::move(*root));
  RoutedQueries routed =
      RouteQueries(std::move(queries), require_complete, timer);
  if (routed.rejected) {
    *status_out = routed.rejected->http_status;
    return std::move(routed.rejected->body);
  }
  *status_out = routed.results[0].status;
  return routed.results[0].body.Dump();
}

std::string Router::HandleQueryBatch(const std::string& request_body,
                                     int* status_out) {
  Timer timer;
  size_t error_offset = 0;
  auto root = json::Parse(request_body, &error_offset);
  if (!root.ok()) {
    json::Value body = ErrorJson(root.status());
    body.Set("offset", static_cast<uint64_t>(error_offset));
    *status_out = 400;
    return body.Dump();
  }
  // Envelope: a bare array of queries, or {"queries": [...],
  // "require_complete": bool}. require_complete is batch-wide — the gather
  // has one deadline budget per shard per batch, so completeness is a
  // property of the whole scatter, applied per item at merge time.
  bool require_complete = false;
  json::Value* queries = nullptr;
  if (root->is_array()) {
    queries = &*root;
  } else if (root->is_object()) {
    for (const auto& [key, value] : root->members()) {
      if (key == "queries") {
        if (!value.is_array()) {
          *status_out = 400;
          return ErrorJson(Status::InvalidArgument(
                               "\"queries\" must be an array of query "
                               "objects"))
              .Dump();
        }
      } else if (key == "require_complete") {
        if (!value.is_bool()) {
          *status_out = 400;
          return ErrorJson(Status::InvalidArgument(
                               "\"require_complete\" must be a boolean"))
              .Dump();
        }
        require_complete = value.AsBool();
      } else {
        *status_out = 400;
        return ErrorJson(Status::InvalidArgument(StrFormat(
                             "unknown batch field \"%s\"", key.c_str())))
            .Dump();
      }
    }
    queries = root->Find("queries");
    if (queries == nullptr) {
      *status_out = 400;
      return ErrorJson(
                 Status::InvalidArgument("missing required field \"queries\""))
          .Dump();
    }
  } else {
    *status_out = 400;
    return ErrorJson(Status::InvalidArgument(
                         "batch body must be a JSON array or "
                         "{\"queries\": [...]}"))
        .Dump();
  }
  const size_t n_items = queries->size();
  if (n_items == 0) {
    *status_out = 400;
    return ErrorJson(
               Status::InvalidArgument("batch must contain at least one query"))
        .Dump();
  }
  if (n_items > options_.batch_max_items) {
    *status_out = 400;
    return ErrorJson(Status::InvalidArgument(StrFormat(
                         "batch of %zu items exceeds the %zu-item limit",
                         n_items, options_.batch_max_items)))
        .Dump();
  }
  batches_routed_.fetch_add(1, std::memory_order_relaxed);
  batch_items_routed_.fetch_add(n_items, std::memory_order_relaxed);

  std::vector<json::Value> items;
  items.reserve(n_items);
  for (size_t i = 0; i < n_items; ++i) {
    items.push_back(std::move((*queries)[i]));
  }
  RoutedQueries routed =
      RouteQueries(std::move(items), require_complete, timer);
  if (routed.rejected) {
    *status_out = routed.rejected->http_status;
    return std::move(routed.rejected->body);
  }
  json::Value results = json::Value::Array();
  for (QueryResult& result : routed.results) {
    json::Value entry = json::Value::Object();
    entry.Set("status", static_cast<int64_t>(result.status));
    entry.Set("body", std::move(result.body));
    results.Append(std::move(entry));
  }
  json::Value body = json::Value::Object();
  body.Set("results", std::move(results));
  body.Set("elapsed_ms", timer.ElapsedMillis());
  *status_out = 200;
  return body.Dump();
}

Router::RoutedQueries Router::RouteQueries(std::vector<json::Value> queries,
                                           bool require_complete,
                                           const Timer& timer) {
  RoutedQueries routed;
  routed.results.resize(queries.size());
  std::vector<MergePlan> plans(queries.size());
  std::vector<size_t> forwarded;  // client position per forwarded position
  json::Value forward = json::Value::Array();
  // One deadline budget per shard per scatter, wide enough for the most
  // patient forwarded query; a query without "deadline_ms" asks for the
  // default budget.
  int shard_deadline_ms = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    // require_complete belongs to the request (HandleQuery strips it from
    // the /query body; a batch carries it on the envelope); on an item it
    // would silently apply to nothing.
    if (queries[i].Find("require_complete") != nullptr) {
      routed.results[i].status = 400;
      routed.results[i].body = ErrorJson(Status::InvalidArgument(
          "\"require_complete\" applies to the whole batch; set it on the "
          "batch envelope, not on an item"));
      continue;
    }
    const QueryPlan plan = ExtractQueryPlan(queries[i]);
    plans[i] = plan.merge;
    shard_deadline_ms = std::max(shard_deadline_ms,
                                 plan.deadline_ms > 0
                                     ? plan.deadline_ms
                                     : options_.default_shard_deadline_ms);
    forwarded.push_back(i);
    forward.Append(std::move(queries[i]));
  }
  if (forwarded.empty()) return routed;

  std::vector<ShardOutcome> outcomes =
      ScatterGather(forward.Dump(), shard_deadline_ms);

  // Each shard's envelope, parsed once: its "results" array when it holds
  // one result per forwarded query, else null (the shard is missing for
  // every query: transport error, 5xx, gather deadline, malformed 200).
  const size_t n_shards = shards_.size();
  std::vector<json::Value> envelopes(n_shards);
  std::vector<json::Value*> shard_results(n_shards, nullptr);
  for (size_t s = 0; s < n_shards; ++s) {
    ShardOutcome& outcome = outcomes[s];
    if (!outcome.resolved) continue;
    if (outcome.http_status >= 400 && outcome.http_status < 500) {
      // An envelope 4xx is deterministic across shards (identical request,
      // identical limits) — the first speaks for the fleet.
      routed.results.clear();
      routed.rejected = std::move(outcome);
      return routed;
    }
    if (outcome.http_status != 200) continue;
    auto parsed = json::Parse(outcome.body);
    if (!parsed.ok()) continue;
    envelopes[s] = std::move(*parsed);
    json::Value* results = envelopes[s].Find("results");
    if (results != nullptr && results->is_array() &&
        results->size() == forwarded.size()) {
      shard_results[s] = results;
    }
  }

  for (size_t p = 0; p < forwarded.size(); ++p) {
    QueryResult& result = routed.results[forwarded[p]];
    const MergePlan& plan = plans[forwarded[p]];
    std::vector<ShardBody> bodies;
    std::vector<size_t> missing;
    for (size_t s = 0; s < n_shards; ++s) {
      json::Value* item =
          shard_results[s] != nullptr ? &(*shard_results[s])[p] : nullptr;
      const json::Value* status =
          item != nullptr ? item->Find("status") : nullptr;
      json::Value* body = item != nullptr ? item->Find("body") : nullptr;
      if (status == nullptr || !status->is_integral() || body == nullptr) {
        missing.push_back(s);
        continue;
      }
      const int64_t code = status->AsInt();
      if (code == 200 && body->is_object()) {
        bodies.push_back(
            ShardBody{s, shards_[s]->info.doc_begin, std::move(*body)});
      } else if (code >= 400 && code < 500) {
        // Per-query validation errors are deterministic across shards
        // (identical query, identical decoder) — the first one speaks for
        // the corpus.
        result.status = static_cast<int>(code);
        result.body = std::move(*body);
        break;
      } else {
        // A per-query 504/5xx (e.g. the query's deadline expired there).
        missing.push_back(s);
      }
    }
    if (result.status != 0) continue;
    result.status = MergeShardBodies(std::move(bodies), missing, plan,
                                     require_complete, &result.body);
    if (result.status != 200) continue;
    if (plan.top_k >= 0) {
      // Observability: how many candidate pairs the shards' score bounds
      // (engine-local floors included) rejected fleet-wide for this query.
      if (const json::Value* metrics = result.body.Find("metrics")) {
        if (const json::Value* rejected =
                metrics->Find("pairs_rejected_score");
            rejected != nullptr && rejected->is_integral() &&
            rejected->AsInt() >= 0) {
          topk_pairs_rejected_.fetch_add(
              static_cast<uint64_t>(rejected->AsInt()),
              std::memory_order_relaxed);
        }
      }
    }
    result.body.Set("elapsed_ms", timer.ElapsedMillis());
  }
  return routed;
}

json::Value Router::RouterMetricsJson() const {
  json::Value hedges = json::Value::Object();
  hedges.Set("launched", hedges_launched_.load(std::memory_order_relaxed));
  hedges.Set("won", hedges_won_.load(std::memory_order_relaxed));

  json::Value shards = json::Value::Array();
  for (const auto& shard : shards_) {
    json::Value entry = json::Value::Object();
    entry.Set("endpoint", shard->info.Endpoint());
    json::Value documents = json::Value::Object();
    documents.Set("begin", static_cast<uint64_t>(shard->info.doc_begin));
    documents.Set("count", static_cast<uint64_t>(shard->info.doc_count));
    entry.Set("documents", std::move(documents));
    entry.Set("weight", shard->info.weight);
    {
      std::lock_guard<std::mutex> lock(shard->mutex);
      entry.Set("healthy", shard->healthy);
      entry.Set("requests", shard->requests);
      entry.Set("failures", shard->failures);
      entry.Set("mark_downs", shard->mark_downs);
      entry.Set("mark_ups", shard->mark_ups);
      entry.Set("latency_us",
                server::StatsRegistry::LatencyToJson(shard->latency));
    }
    BackendClient::PoolStats pool = shard->client->Stats();
    json::Value pool_json = json::Value::Object();
    pool_json.Set("connects", pool.connects);
    pool_json.Set("reuses", pool.reuses);
    pool_json.Set("stale_retries", pool.stale_retries);
    pool_json.Set("pooled", static_cast<uint64_t>(pool.pooled));
    entry.Set("pool", std::move(pool_json));
    shards.Append(std::move(entry));
  }

  json::Value topk = json::Value::Object();
  topk.Set("pairs_rejected_score",
           topk_pairs_rejected_.load(std::memory_order_relaxed));

  json::Value batch = json::Value::Object();
  batch.Set("batches", batches_routed_.load(std::memory_order_relaxed));
  batch.Set("items", batch_items_routed_.load(std::memory_order_relaxed));

  json::Value out = json::Value::Object();
  out.Set("hedges", std::move(hedges));
  out.Set("partials_served",
          partials_served_.load(std::memory_order_relaxed));
  out.Set("distributed_topk", std::move(topk));
  out.Set("batch", std::move(batch));
  out.Set("shards", std::move(shards));
  return out;
}

std::string Router::Dispatch(const server::HttpRequest& request,
                             bool keep_alive, int* status_out,
                             algebra::OpMetrics* metrics_out,
                             bool* has_metrics_out) {
  (void)metrics_out;
  (void)has_metrics_out;
  const std::string& target = request.target;
  if (target == "/query") {
    if (request.method != "POST") {
      *status_out = 405;
      return server::RenderHttpResponse(
          405, kJsonType,
          "{\"error\":\"use POST for /query\",\"status\":405}",
          "Allow: POST\r\n", keep_alive);
    }
    std::string body = HandleQuery(request.body, status_out);
    return server::RenderHttpResponse(*status_out, kJsonType, body, {},
                                      keep_alive);
  }
  if (target == "/query_batch") {
    if (request.method != "POST") {
      *status_out = 405;
      return server::RenderHttpResponse(
          405, kJsonType,
          "{\"error\":\"use POST for /query_batch\",\"status\":405}",
          "Allow: POST\r\n", keep_alive);
    }
    std::string body = HandleQueryBatch(request.body, status_out);
    return server::RenderHttpResponse(*status_out, kJsonType, body, {},
                                      keep_alive);
  }
  if (target == "/healthz" || target == "/metrics" || target == "/version") {
    if (request.method != "GET") {
      *status_out = 405;
      return server::RenderHttpResponse(
          405, kJsonType,
          "{\"error\":\"use GET for this endpoint\",\"status\":405}",
          "Allow: GET\r\n", keep_alive);
    }
    json::Value body;
    if (target == "/healthz") {
      body = json::Value::Object();
      body.Set("status", "ok");
      body.Set("shards", static_cast<uint64_t>(shards_.size()));
      body.Set("healthy_shards", static_cast<uint64_t>(HealthyShards()));
      body.Set("documents", static_cast<uint64_t>(map_.total_documents));
    } else if (target == "/version") {
      body = json::Value::Object();
      body.Set("version", kVersion);
      body.Set("build", BuildInfo("xfrag_router"));
      body.Set("router_protocol_revision",
               static_cast<int64_t>(kRouterProtocolRevision));
    } else {
      body = http_.stats().ToJson();
      body.Set("in_flight", static_cast<int64_t>(InFlight()));
      body.Set("router", RouterMetricsJson());
    }
    *status_out = 200;
    return server::RenderHttpResponse(200, kJsonType, body.Dump(), {},
                                      keep_alive);
  }
  *status_out = 404;
  return server::RenderHttpResponse(
      404, kJsonType, "{\"error\":\"no such endpoint\",\"status\":404}", {},
      keep_alive);
}

}  // namespace xfrag::router

#include "server/server.h"

#include <memory>
#include <utility>

#include "common/json.h"
#include "common/version.h"

namespace xfrag::server {

namespace {

constexpr std::string_view kJsonType = "application/json";

std::string ErrorBody(const Status& status, int http_status) {
  json::Value body = json::Value::Object();
  body.Set("error", status.message());
  body.Set("status", static_cast<int64_t>(http_status));
  return body.Dump();
}

}  // namespace

HttpServerOptions Server::ToHttpOptions(const ServerOptions& options) {
  HttpServerOptions http;
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

Server::Server(const collection::Collection& collection, ServerOptions options)
    : options_(std::move(options)), http_(*this, ToHttpOptions(options_)) {
  auto state = std::make_shared<ServingState>();
  state->borrowed = &collection;
  state->query_service =
      std::make_unique<QueryService>(collection, options_.service);
  state_ = std::move(state);
}

Server::Server(std::string snapshot_path,
               storage::SnapshotCollection snapshot, ServerOptions options)
    : options_(std::move(options)), http_(*this, ToHttpOptions(options_)) {
  auto state = std::make_shared<ServingState>();
  state->snapshot = std::move(snapshot);
  state->from_snapshot = true;
  state->snapshot_path = std::move(snapshot_path);
  // The collection lives at a stable heap address inside the shared state
  // from here on, so the service's reference stays valid for this epoch.
  state->query_service = std::make_unique<QueryService>(
      state->snapshot.collection, options_.service);
  const storage::SnapshotOpenStats& open = state->snapshot.stats;
  http_.mutable_stats().RecordSnapshotOpen(open.open_ms, open.file_bytes,
                                           open.mapped_bytes,
                                           open.resident_bytes);
  state_ = std::move(state);
}

Server::~Server() { Shutdown(); }

StatusOr<json::Value> Server::ReloadSnapshot(const std::string& path) {
  // One reload at a time; queries are never blocked by this lock.
  std::lock_guard<std::mutex> reload_lock(reload_mutex_);
  std::shared_ptr<const ServingState> current = CurrentState();
  if (!current->from_snapshot) {
    reload_failures_.fetch_add(1, std::memory_order_relaxed);
    return Status::InvalidArgument(
        "reload requires a snapshot-backed server (start xfragd with "
        "--snapshot)");
  }
  const std::string& next_path =
      path.empty() ? current->snapshot_path : path;

  // Open and validate the replacement entirely off to the side; a corrupt
  // file fails here and the serving state is untouched.
  storage::SnapshotOpenOptions open_options;
  open_options.validate_structure = options_.validate_snapshot_on_reload;
  auto loaded = storage::LoadCollectionFromSnapshot(next_path, open_options);
  if (!loaded.ok()) {
    reload_failures_.fetch_add(1, std::memory_order_relaxed);
    return loaded.status();
  }

  auto next = std::make_shared<ServingState>();
  next->snapshot = std::move(*loaded);
  next->from_snapshot = true;
  next->snapshot_path = next_path;
  next->epoch = current->epoch + 1;
  next->query_service = std::make_unique<QueryService>(
      next->snapshot.collection, options_.service);

  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    state_ = next;
  }
  reloads_.fetch_add(1, std::memory_order_relaxed);
  const storage::SnapshotOpenStats& open = next->snapshot.stats;
  http_.mutable_stats().RecordSnapshotOpen(open.open_ms, open.file_bytes,
                                           open.mapped_bytes,
                                           open.resident_bytes);
  // The drained epoch's caches are useless now; dropping them means the old
  // state releases its memory as soon as the last in-flight request ends.
  current->service().InvalidateCaches();

  json::Value body = json::Value::Object();
  body.Set("reloaded", true);
  body.Set("epoch", next->epoch);
  body.Set("snapshot", next->snapshot_path);
  body.Set("documents", static_cast<uint64_t>(next->collection().size()));
  body.Set("total_nodes",
           static_cast<uint64_t>(next->collection().TotalNodes()));
  body.Set("open_ms", next->snapshot.stats.open_ms);
  return body;
}

json::Value Server::SnapshotMetricsJson(const ServingState& state) const {
  json::Value out = json::Value::Object();
  out.Set("enabled", state.from_snapshot);
  out.Set("epoch", state.epoch);
  out.Set("reloads", reloads_.load(std::memory_order_relaxed));
  out.Set("reload_failures",
          reload_failures_.load(std::memory_order_relaxed));
  if (state.from_snapshot) {
    out.Set("path", state.snapshot_path);
    out.Set("format_version", storage::kSnapshotFormatVersion);
    out.Set("tool_version", state.snapshot.meta.tool_version);
    out.Set("open_ms", state.snapshot.stats.open_ms);
    out.Set("file_bytes", state.snapshot.stats.file_bytes);
    out.Set("mapped_bytes", state.snapshot.stats.mapped_bytes);
    out.Set("resident_bytes", state.snapshot.reader != nullptr
                                  ? state.snapshot.reader->ResidentBytesNow()
                                  : 0);
  }
  return out;
}

std::string Server::Dispatch(const HttpRequest& request, bool keep_alive,
                             int* status_out, algebra::OpMetrics* metrics_out,
                             bool* has_metrics_out) {
  // Pin one serving epoch for this whole exchange; a concurrent reload
  // swaps the pointer without invalidating this state.
  std::shared_ptr<const ServingState> state = CurrentState();
  const std::string& target = request.target;
  if (target == "/query") {
    if (request.method != "POST") {
      *status_out = 405;
      return RenderHttpResponse(
          405, kJsonType,
          "{\"error\":\"use POST for /query\",\"status\":405}",
          "Allow: POST\r\n", keep_alive);
    }
    QueryOutcome outcome = state->service().HandleQuery(request.body);
    *status_out = outcome.http_status;
    *metrics_out = outcome.metrics;
    *has_metrics_out = true;
    return RenderHttpResponse(outcome.http_status, kJsonType,
                              outcome.body.Dump(), {}, keep_alive);
  }
  if (target == "/query_batch") {
    if (request.method != "POST") {
      *status_out = 405;
      return RenderHttpResponse(
          405, kJsonType,
          "{\"error\":\"use POST for /query_batch\",\"status\":405}",
          "Allow: POST\r\n", keep_alive);
    }
    QueryOutcome outcome = state->service().HandleQueryBatch(request.body);
    *status_out = outcome.http_status;
    *metrics_out = outcome.metrics;
    *has_metrics_out = true;
    return RenderHttpResponse(outcome.http_status, kJsonType,
                              outcome.body.Dump(), {}, keep_alive);
  }
  if (target == "/admin/reload") {
    if (request.method != "POST") {
      *status_out = 405;
      return RenderHttpResponse(
          405, kJsonType,
          "{\"error\":\"use POST for /admin/reload\",\"status\":405}",
          "Allow: POST\r\n", keep_alive);
    }
    // Body: {} or {"snapshot": "<path>"} (empty body = reload in place).
    std::string path;
    if (!request.body.empty()) {
      size_t error_offset = 0;
      auto root = json::Parse(request.body, &error_offset);
      if (!root.ok()) {
        *status_out = 400;
        return RenderHttpResponse(400, kJsonType,
                                  ErrorBody(root.status(), 400), {},
                                  keep_alive);
      }
      if (!root->is_object()) {
        *status_out = 400;
        return RenderHttpResponse(
            400, kJsonType,
            "{\"error\":\"reload body must be a JSON object\","
            "\"status\":400}",
            {}, keep_alive);
      }
      for (const auto& [key, value] : root->members()) {
        if (key == "snapshot" && value.is_string()) {
          path = value.AsString();
        } else {
          *status_out = 400;
          return RenderHttpResponse(
              400, kJsonType,
              "{\"error\":\"unknown reload field '" + key +
                  "' (expected \\\"snapshot\\\")\",\"status\":400}",
              {}, keep_alive);
        }
      }
    }
    auto reloaded = ReloadSnapshot(path);
    if (!reloaded.ok()) {
      int http_status = HttpStatusForError(reloaded.status());
      *status_out = http_status;
      return RenderHttpResponse(http_status, kJsonType,
                                ErrorBody(reloaded.status(), http_status), {},
                                keep_alive);
    }
    *status_out = 200;
    return RenderHttpResponse(200, kJsonType, reloaded->Dump(), {},
                              keep_alive);
  }
  if (target == "/healthz" || target == "/metrics" || target == "/version") {
    if (request.method != "GET") {
      *status_out = 405;
      return RenderHttpResponse(
          405, kJsonType,
          "{\"error\":\"use GET for this endpoint\",\"status\":405}",
          "Allow: GET\r\n", keep_alive);
    }
    json::Value body;
    if (target == "/healthz") {
      body = state->service().HealthzJson();
      body.Set("epoch", state->epoch);
    } else if (target == "/version") {
      body = state->service().VersionJson();
      if (state->from_snapshot) {
        json::Value snap = json::Value::Object();
        snap.Set("path", state->snapshot_path);
        snap.Set("format_version", storage::kSnapshotFormatVersion);
        snap.Set("tool_version", state->snapshot.meta.tool_version);
        snap.Set("epoch", state->epoch);
        body.Set("snapshot", std::move(snap));
      }
    } else {
      body = http_.stats().ToJson();
      body.Set("fixed_point_cache", state->service().CacheStatsJson());
      body.Set("result_cache", state->service().ResultCacheStatsJson());
      body.Set("dag", state->service().DagStatsJson());
      body.Set("batch", state->service().BatchStatsJson());
      body.Set("snapshot", SnapshotMetricsJson(*state));
      body.Set("in_flight", static_cast<int64_t>(InFlight()));
    }
    *status_out = 200;
    return RenderHttpResponse(200, kJsonType, body.Dump(), {}, keep_alive);
  }
  *status_out = 404;
  return RenderHttpResponse(404, kJsonType,
                            "{\"error\":\"no such endpoint\",\"status\":404}",
                            {}, keep_alive);
}

}  // namespace xfrag::server

// xfrag_router — the scatter-gather serving tier. One Router fronts N
// xfragd shards holding disjoint document slices (the ShardMap) and exposes
// the same HTTP surface as a single xfragd: POST /query and POST
// /query_batch plus GET /healthz, /metrics, /version. Both query endpoints
// share one request path: a /query is a batch of one. The router sends the
// client's queries to every shard concurrently in ONE backend /query_batch
// request per shard, merges each query's shard answers exactly (see
// router/merge.h), and its answers are byte-identical — modulo
// "elapsed_ms" — to a single xfragd hosting the whole corpus.
//
// Tail-latency control: after a p95-derived delay with stragglers still
// outstanding, the router launches at most ONE hedge — a duplicate request
// to the slowest straggler on a fresh exchange — and the first response
// wins; the loser is canceled via socket shutdown. Hedging is bounded (one
// per request) so a busy cluster sees at most 1/N extra load.
//
// Degraded mode: a shard that times out, refuses connections, or answers
// 5xx (or a per-query 5xx) becomes a "missing shard" for that query. By
// default the router still answers 200 with the merged remainder plus
// "partial": {"missing_shards": [...]}; a request carrying
// "require_complete": true gets 504 instead. A shard's per-query 4xx
// (validation errors) is forwarded verbatim — every shard validates
// identically, so the first one speaks for all.
//
// A background thread polls every shard's /healthz, maintaining mark-down /
// mark-up state that /metrics reports alongside per-shard latency
// histograms, hedge counters, partial counts, and connection-pool stats.

#ifndef XFRAG_ROUTER_ROUTER_H_
#define XFRAG_ROUTER_ROUTER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "router/backend_client.h"
#include "router/merge.h"
#include "router/shard_map.h"
#include "server/http_server.h"
#include "server/latency_histogram.h"

namespace xfrag::router {

struct RouterOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
  /// Concurrent client requests the router serves (each occupies one worker
  /// for the whole scatter-gather).
  int workers = 8;
  int queue_capacity = 64;
  int request_timeout_ms = 10000;
  size_t max_body_bytes = 1 << 20;
  bool keep_alive = true;
  int keep_alive_idle_timeout_ms = 5000;
  int max_requests_per_connection = 1000;
  /// Worker linger before parking a kept-alive connection (see
  /// HttpServerOptions::keep_alive_linger_ms; 0 = park immediately).
  int keep_alive_linger_ms = 1;
  int keep_alive_linger_burst = 32;

  /// Per-shard budget for requests that carry no "deadline_ms" of their
  /// own. The router waits this long (plus a small network grace) before
  /// declaring stragglers missing.
  int default_shard_deadline_ms = 30000;
  /// Extra wait beyond the shard deadline for bytes already in flight.
  int deadline_grace_ms = 100;

  bool enable_hedging = true;
  /// Floor for the p95-derived hedge delay.
  int hedge_min_delay_ms = 5;
  /// Hedge delay used until the latency histograms have enough samples.
  int hedge_default_delay_ms = 50;
  /// Samples required before p95 replaces the default delay.
  uint64_t hedge_warmup_samples = 32;

  /// Interval between background /healthz probes (0 disables the checker).
  int health_check_interval_ms = 1000;
  /// Budget for one health probe.
  int health_check_timeout_ms = 1000;

  /// Not settable; exists only for servebench's provenance block.
  static constexpr bool enable_bound_exchange = false;
  /// Not settable; exists only for servebench's provenance block.
  static constexpr int probe_documents = 0;

  /// Maximum items one POST /query_batch request may carry; larger batches
  /// are rejected whole with a structured 400. Keep at or below the shards'
  /// own batch_max_items — a shard-side envelope rejection is forwarded
  /// verbatim for the whole batch.
  size_t batch_max_items = 256;

  BackendClient::Options backend;
};

/// \brief The router daemon core: HTTP frontend + scatter-gather executor.
///
/// Lifecycle: construct → Start() → (serve) → Shutdown(); the destructor
/// calls Shutdown() if needed.
class Router : private server::HttpDispatcher {
 public:
  Router(ShardMap map, RouterOptions options);
  ~Router() override;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  Status Start();
  void Shutdown();

  uint16_t port() const { return http_.port(); }
  const server::StatsRegistry& stats() const { return http_.stats(); }
  int InFlight() const { return http_.InFlight(); }
  const ShardMap& shard_map() const { return map_; }

  /// Router-tier counters (also in /metrics under "router").
  uint64_t hedges_launched() const { return hedges_launched_.load(); }
  uint64_t hedges_won() const { return hedges_won_.load(); }
  uint64_t partials_served() const { return partials_served_.load(); }

  /// Sum of the merged "pairs_rejected_score" over every merged top-k
  /// query, /query and /query_batch items alike (also in /metrics under
  /// "router"."distributed_topk").
  uint64_t topk_pairs_rejected() const {
    return topk_pairs_rejected_.load();
  }
  /// Always 0; exists only for servebench's router counters.
  uint64_t threshold_updates_sent() const { return 0; }
  /// Always 0; exists only for servebench's router counters.
  uint64_t bound_exchange_fallbacks() const { return 0; }

  /// Healthy-shard count per the background checker (all shards are
  /// considered healthy before the first probe completes).
  size_t HealthyShards() const;

 private:
  /// Mutable per-shard runtime state next to the immutable ShardInfo.
  struct ShardState {
    ShardInfo info;
    std::unique_ptr<BackendClient> client;

    mutable std::mutex mutex;
    server::LatencyHistogram latency;  // successful exchanges only
    uint64_t requests = 0;
    uint64_t failures = 0;
    bool healthy = true;
    uint64_t mark_downs = 0;
    uint64_t mark_ups = 0;

    uint64_t P95Micros() const;
    uint64_t LatencyCount() const;
  };

  /// Outcome of one shard's scatter leg.
  struct ShardOutcome {
    bool resolved = false;  // a response (any HTTP status) arrived
    int http_status = 0;
    std::string body;
    Status error = Status::OK();
  };

  /// Shared between the coordinator and its in-flight attempt tasks; held
  /// by shared_ptr so the coordinator may return (deadline) while straggler
  /// attempts are still finishing in the fan-out pool.
  struct GatherState;

  std::string Dispatch(const server::HttpRequest& request, bool keep_alive,
                       int* status_out, algebra::OpMetrics* metrics_out,
                       bool* has_metrics_out) override;

  /// One client query's answer: HTTP status and JSON body.
  struct QueryResult {
    int status = 0;
    json::Value body;
  };

  /// What the request path returns for a list of client queries.
  struct RoutedQueries {
    /// One result per client query, in order (empty when `rejected`).
    std::vector<QueryResult> results;
    /// A shard's 4xx for the forwarded request as a whole (e.g. a body over
    /// its size limit). Every shard applies the same limits, so the first
    /// one speaks for the fleet; it is the client request's answer.
    std::optional<ShardOutcome> rejected;
  };

  /// The /query path: parse, take and strip "require_complete", route a
  /// one-query list, answer with its one result. Returns the response
  /// body; `*status_out` carries the HTTP status.
  std::string HandleQuery(const std::string& request_body, int* status_out);

  /// The /query_batch path: envelope parsing, then the same request path.
  /// Envelope fields: a bare array, or {"queries": [...],
  /// "require_complete": bool} (require_complete applies to every item;
  /// per-item occurrences are per-item 400s).
  std::string HandleQueryBatch(const std::string& request_body,
                               int* status_out);

  /// The one request path behind both endpoints. Each query's merge plan
  /// comes from the client query; the forwarded queries go to every shard
  /// in ONE /query_batch request (one connection, one parse, one deadline
  /// budget per shard), each shard's envelope is read once, and each query
  /// merges with the exact per-query merge. Top-k needs no exchange between
  /// shards: each shard's local top-k over its disjoint documents, merged
  /// k-way, is the exact global top-k. A query still carrying
  /// "require_complete" gets the router's own 400 and is not forwarded; a
  /// shard's per-query 4xx is that query's result; every other query goes
  /// through MergeShardBodies. `timer` stamps each merged body's
  /// "elapsed_ms".
  RoutedQueries RouteQueries(std::vector<json::Value> queries,
                             bool require_complete, const Timer& timer);

  /// Runs the scatter-gather of `forward_body` to every shard's
  /// /query_batch endpoint.
  std::vector<ShardOutcome> ScatterGather(const std::string& forward_body,
                                          int shard_deadline_ms);

  /// Merges one query's shard bodies into `*out` and returns its HTTP
  /// status: 504 when no shard answered, or when a shard is missing and the
  /// client asked for a complete answer; 502 when the bodies do not merge;
  /// 200 with the merged body (carrying "partial" if shards are missing).
  int MergeShardBodies(std::vector<ShardBody> bodies,
                       const std::vector<size_t>& missing,
                       const MergePlan& plan, bool require_complete,
                       json::Value* out);

  int HedgeDelayMs(int shard_deadline_ms) const;
  json::Value RouterMetricsJson() const;
  void HealthLoop();

  ShardMap map_;
  RouterOptions options_;
  std::vector<std::unique_ptr<ShardState>> shards_;
  std::unique_ptr<ThreadPool> fanout_pool_;

  std::atomic<uint64_t> hedges_launched_{0};
  std::atomic<uint64_t> hedges_won_{0};
  std::atomic<uint64_t> partials_served_{0};

  /// Batch routing observability (/metrics "router"."batch").
  std::atomic<uint64_t> batches_routed_{0};
  std::atomic<uint64_t> batch_items_routed_{0};

  /// Sum of merged "pairs_rejected_score" over top-k responses — the pairs
  /// the shards' own score bounds rejected across the fleet.
  std::atomic<uint64_t> topk_pairs_rejected_{0};

  std::thread health_thread_;
  std::mutex health_mutex_;
  std::condition_variable health_cv_;
  bool health_stop_ = false;

  std::atomic<bool> started_{false};
  server::HttpServer http_;
};

}  // namespace xfrag::router

#endif  // XFRAG_ROUTER_ROUTER_H_

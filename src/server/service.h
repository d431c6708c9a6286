// The serving core of xfragd, separated from the socket layer so the whole
// request→response path is unit-testable without a network: parse a JSON
// query request, evaluate it with the collection's one document loop
// (collection::CollectionEngine; shared per-document FixedPointCaches make
// concurrent identical queries hit warm closures), and render a JSON
// response with answers, metrics, and EXPLAIN.
//
// The JSON request schema (POST /query):
//   {
//     "terms": ["xquery", "optimization"],   // required, non-empty strings
//     "filter": "size<=5 & height<=3",       // optional, default "true"
//     "strategy": "auto",                    // auto|brute|naive|reduced|pushdown
//     "answer_mode": "algebraic",            // algebraic|leaf_strict
//     "deadline_ms": 250,                    // optional per-request deadline
//     "explain": false, "analyze": false,    // EXPLAIN / EXPLAIN ANALYZE
//     "xml": false,                          // render each answer as XML
//     "max_answers": 100,                    // truncate the answer array
//     "top_k": 10,                           // k best-ranked answers only
//     "rank": true                           // rank (all) answers by score
//   }
// Unknown fields are rejected with a structured 400 — a misspelled option
// must never be silently ignored.
//
// Alternatively a request may carry the textual form (docs/LANGUAGE.md):
//   { "q": "{xquery, optimization} WHERE size<=5 TOP 10" }
// "q" is decoded server-side into exactly the fields above — a canonical
// term-set query produces a byte-identical response to its JSON
// equivalent, and composed expressions (JOIN/POWERSET/FIXPOINT/REDUCE)
// lower to an explicit plan the engine runs as written (EXPLAIN reports
// "strategy: explicit"). "q" conflicts with every query-shaping field
// (terms, filter, strategy, answer_mode, explain, analyze, xml,
// max_answers, top_k, rank, deadline_ms) — the text already specifies
// them. A malformed "q" yields a structured 400 whose body carries the byte
// "offset" and a caret "snippet" pointing at the error.
//
// "top_k" asks for exactly the k best answers by the engine's ranking
// (docs/SERVING.md) and implies "rank": true; the evaluation itself runs
// score-bounded, so most candidate joins are rejected in O(1) before being
// materialized. "rank": true alone ranks the full answer set. Each ranked
// answer carries a "score" field; answers are ordered by (score desc,
// document index asc, canonical fragment order). "max_answers" still
// truncates the rendered array afterwards, as in unranked mode.

#ifndef XFRAG_SERVER_SERVICE_H_
#define XFRAG_SERVER_SERVICE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "collection/collection.h"
#include "common/json.h"
#include "common/timer.h"
#include "query/engine.h"
#include "query/fixed_point_cache.h"
#include "server/latency_histogram.h"
#include "server/result_cache.h"

namespace xfrag::server {

/// Serving-policy knobs, independent of the socket layer.
struct ServiceOptions {
  /// Deadline applied when a request does not carry "deadline_ms"
  /// (0 = unlimited).
  double default_deadline_ms = 0.0;
  /// Upper bound on any per-request deadline (0 = uncapped); larger
  /// requested deadlines are clamped, so a client cannot opt out of the
  /// operator-configured ceiling.
  double max_deadline_ms = 0.0;
  /// Accept the "debug_sleep_ms" request field, which stalls the worker
  /// before evaluation (never past the request's deadline). Exists for deterministic overload/drain/deadline
  /// tests and load benches; never enable it on a real deployment.
  bool enable_debug_sleep = false;
  /// Byte budget of the serving-side result cache (0 disables it). Whole
  /// successful /query bodies are cached by normalized request — terms
  /// sorted and case-folded, plus filter, strategy, answer mode, top_k, and
  /// every rendering option — and a hit is served without invoking the
  /// engine at all. Requests carrying "debug_sleep_ms" bypass the cache.
  size_t result_cache_bytes = 0;
  /// Lock-striping shard count of the result cache.
  size_t result_cache_shards = 8;
  /// Capacity limits applied to each per-document fixed-point cache. The
  /// default (both zero) is unlimited — the pre-bounded behaviour; xfragd
  /// sets real caps so long-running traffic cannot grow the caches without
  /// bound.
  query::FixedPointCacheLimits fixed_point_cache;
  /// Seed each successive document's top-k collector with the running k-th
  /// best score of the documents already evaluated (provably answer-
  /// preserving — see docs/SERVING.md). Changes work metrics (fewer joins),
  /// never answers; tests that compare metrics byte-for-byte across
  /// different document partitions turn it off.
  bool enable_cross_document_floor = true;
  /// DAG compression (docs/SERVING.md): the kernels replay work across
  /// identical subtrees and byte-identical documents replay one document's
  /// evaluation. Changes wall clock and the dag counters, never a body's
  /// answers or logical counters; off evaluates every document plainly.
  bool enable_dag_compression = true;
  /// Maximum items one POST /query_batch request may carry; a larger batch
  /// is rejected whole with a structured 400 (the batch holds exactly one
  /// admission slot, so the cap bounds the work a slot can claim).
  size_t batch_max_items = 256;
  /// Always 1 (batch items run serially); only for servebench's provenance.
  static constexpr unsigned batch_parallelism = 1;
};

struct ParsedRequest;  // service.cc: one decoded /query request

/// \brief Result of handling one /query request.
struct QueryOutcome {
  int http_status = 200;
  json::Value body;
  /// Aggregated operator metrics (partial when http_status == 504).
  algebra::OpMetrics metrics;
};

/// \brief Stateless-per-request query handler over an immutable collection.
///
/// Thread-safe: the Handle* methods may run on any number of worker threads
/// at once. The shared mutable state is the per-document FixedPointCache set
/// and the ResultCache, both internally synchronized, plus relaxed atomic
/// counters and the mutex-guarded batch-size histogram behind /metrics.
class QueryService {
 public:
  explicit QueryService(const collection::Collection& collection,
                        ServiceOptions options = {});

  /// \brief Handles one POST /query body.
  QueryOutcome HandleQuery(std::string_view body_text) const;

  /// \brief Handles one POST /query_batch body: a JSON array of standard
  /// /query objects (or {"queries": [...]}), each run as a POST /query of
  /// that object would be, strictly in submission order on the calling
  /// thread. The response is always HTTP 200 with
  ///   {"results": [{"status": N, "body": {...}}, ...],
  ///    "batch": {items, evaluated, result_cache_hits},
  ///    "elapsed_ms": ...}
  /// where results[i] is what a sequential POST /query of item i would have
  /// returned (modulo elapsed_ms) — including per-item 400s for malformed
  /// items and per-item 504s for expired deadlines; one bad item never
  /// poisons the batch — and the fixed-point and result caches end in the
  /// state those N sequential calls leave. The whole batch has one
  /// deadline, armed when it starts: the largest resolved item deadline
  /// (none if some item has none). No item runs past it, and an item that
  /// would start after it is a 504 ("partial": true, zero metrics) without
  /// being evaluated, so max_deadline_ms bounds the batch, not each item.
  /// Envelope-level errors
  /// (unparseable body, not an array, empty, above batch_max_items) are a
  /// structured 400 for the whole request.
  QueryOutcome HandleQueryBatch(std::string_view body_text) const;

  /// Batch-execution counters (batches, items, result-cache hits,
  /// batch-size histogram), merged into GET /metrics output as the "batch"
  /// section.
  json::Value BatchStatsJson() const;

  /// DAG-compression statistics (subtree classes, compression ratio, replay
  /// counters), merged into GET /metrics output.
  json::Value DagStatsJson() const;

  /// GET /healthz body.
  json::Value HealthzJson() const;

  /// GET /version body.
  json::Value VersionJson() const;

  /// Fixed-point cache statistics, merged into GET /metrics output.
  json::Value CacheStatsJson() const;

  /// Result cache statistics, merged into GET /metrics output.
  json::Value ResultCacheStatsJson() const;

  /// \brief Drops every cached result body and fixed-point closure. The
  /// invalidation hook for a future document-reload path: any change to the
  /// collection must call this before serving, since both caches assume
  /// immutable documents.
  void InvalidateCaches() const;

  /// \brief Renders one answer fragment the way /query responses do —
  /// exposed so tests can build the expected bytes from a direct
  /// QueryEngine::Evaluate call and compare byte-for-byte.
  static json::Value AnswerToJson(std::string_view document_name,
                                  size_t document_index,
                                  const algebra::Fragment& fragment,
                                  const doc::Document& document,
                                  bool include_xml);

 private:
  /// \brief Runs one decoded request end to end (result-cache lookup,
  /// deadline, collection::CollectionEngine::Evaluate, rendering, cache
  /// fill).
  /// `batch_deadline`, when set, caps the request's own deadline: a
  /// /query_batch item never runs past the end of its batch.
  QueryOutcome RunParsed(
      ParsedRequest& request, const Timer& timer,
      std::optional<std::chrono::steady_clock::time_point> batch_deadline =
          std::nullopt) const;

  const collection::Collection& collection_;
  ServiceOptions options_;
  /// One cache per collection entry: closures are document-specific.
  std::vector<std::unique_ptr<query::FixedPointCache>> caches_;
  /// Whole-response cache (internally synchronized; disabled by default).
  std::unique_ptr<ResultCache> result_cache_;
  /// DAG-compression observability (GET /metrics): documents served by
  /// replaying a byte-identical representative, and the kernel-level replay
  /// counters accumulated across successful /query requests.
  mutable std::atomic<uint64_t> dag_documents_deduplicated_{0};
  mutable std::atomic<uint64_t> dag_class_pairs_considered_{0};
  mutable std::atomic<uint64_t> dag_answers_multiplied_out_{0};
  /// Batch-execution observability (GET /metrics "batch" section).
  mutable std::atomic<uint64_t> batches_{0};
  mutable std::atomic<uint64_t> batch_items_{0};
  mutable std::atomic<uint64_t> batch_result_cache_hits_{0};
  /// Batch-size histogram ("size" in the batch metrics section); guarded by
  /// batch_mu_ (LatencyHistogram is synchronization-free by design).
  mutable std::mutex batch_mu_;
  mutable LatencyHistogram batch_sizes_;
};

/// \brief Maps a Status to the HTTP status the server answers with.
int HttpStatusForError(const Status& status);

/// \brief Parses a strategy name (auto|brute|naive|reduced|pushdown).
StatusOr<query::Strategy> ParseStrategyName(std::string_view name);

}  // namespace xfrag::server

#endif  // XFRAG_SERVER_SERVICE_H_

#include "server/stats.h"

#include "common/strings.h"

namespace xfrag::server {

void StatsRegistry::RecordRequest(int http_status, uint64_t latency_micros,
                                  const algebra::OpMetrics* metrics) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++by_status_[http_status];
  latency_.Record(latency_micros);
  if (metrics != nullptr) op_metrics_.Merge(*metrics);
}

void StatsRegistry::RecordSnapshotOpen(double open_ms, uint64_t file_bytes,
                                       uint64_t mapped_bytes,
                                       uint64_t resident_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++snapshot_open_.count;
  snapshot_open_.last_open_ms = open_ms;
  snapshot_open_.total_open_ms += open_ms;
  snapshot_open_.file_bytes = file_bytes;
  snapshot_open_.mapped_bytes = mapped_bytes;
  snapshot_open_.resident_bytes = resident_bytes;
}

StatsRegistry::SnapshotOpen StatsRegistry::snapshot_open() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_open_;
}

uint64_t StatsRegistry::TotalRequests() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return latency_.count();
}

uint64_t StatsRegistry::RequestsWithStatus(int http_status) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = by_status_.find(http_status);
  return it == by_status_.end() ? 0 : it->second;
}

json::Value StatsRegistry::OpMetricsToJson(const algebra::OpMetrics& metrics) {
  json::Value out = json::Value::Object();
  out.Set("fragment_joins", metrics.fragment_joins);
  out.Set("filter_evals", metrics.filter_evals);
  out.Set("filter_rejections", metrics.filter_rejections);
  out.Set("fixed_point_iterations", metrics.fixed_point_iterations);
  out.Set("fragments_produced", metrics.fragments_produced);
  out.Set("pairs_considered", metrics.pairs_considered);
  out.Set("pairs_rejected_summary", metrics.pairs_rejected_summary);
  out.Set("pairs_rejected_score", metrics.pairs_rejected_score);
  out.Set("pairs_examined", metrics.pairs_examined);
  out.Set("subsume_checks_skipped", metrics.subsume_checks_skipped);
  out.Set("classes_total", metrics.classes_total);
  out.Set("class_pairs_considered", metrics.class_pairs_considered);
  out.Set("answers_multiplied_out", metrics.answers_multiplied_out);
  return out;
}

json::Value StatsRegistry::LatencyToJson(const LatencyHistogram& histogram) {
  json::Value latency = json::Value::Object();
  latency.Set("count", histogram.count());
  latency.Set("mean", histogram.MeanMicros());
  latency.Set("p50", histogram.PercentileUpperBoundMicros(50));
  latency.Set("p95", histogram.PercentileUpperBoundMicros(95));
  latency.Set("p99", histogram.PercentileUpperBoundMicros(99));
  latency.Set("max", histogram.max_micros());
  return latency;
}

json::Value StatsRegistry::SnapshotOpenToJson(const SnapshotOpen& open) {
  json::Value out = json::Value::Object();
  out.Set("count", open.count);
  out.Set("last_open_ms", open.last_open_ms);
  out.Set("total_open_ms", open.total_open_ms);
  out.Set("file_bytes", open.file_bytes);
  out.Set("mapped_bytes", open.mapped_bytes);
  out.Set("resident_bytes", open.resident_bytes);
  return out;
}

json::Value StatsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mutex_);
  json::Value requests = json::Value::Object();
  requests.Set("total", latency_.count());
  json::Value by_status = json::Value::Object();
  for (const auto& [status, count] : by_status_) {
    by_status.Set(StrFormat("%d", status), count);
  }
  requests.Set("by_status", std::move(by_status));

  json::Value out = json::Value::Object();
  out.Set("requests", std::move(requests));
  out.Set("latency_us", LatencyToJson(latency_));
  out.Set("op_metrics", OpMetricsToJson(op_metrics_));
  if (snapshot_open_.count > 0) {
    out.Set("snapshot_open", SnapshotOpenToJson(snapshot_open_));
  }
  return out;
}

}  // namespace xfrag::server

// server/stats: histogram bucketing and percentile bounds, registry
// aggregation (status counts, metrics merging incl. partial-504 metrics),
// the /metrics JSON shape, and the work counters each response carries.

#include "server/stats.h"

#include <gtest/gtest.h>

#include <string>

#include "collection/collection.h"
#include "server/service.h"

namespace xfrag::server {
namespace {

TEST(LatencyHistogram, EmptyIsAllZero) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.MeanMicros(), 0.0);
  EXPECT_EQ(h.PercentileUpperBoundMicros(50), 0u);
}

TEST(LatencyHistogram, SingleSample) {
  LatencyHistogram h;
  h.Record(100);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_EQ(h.max_micros(), 100u);
  EXPECT_DOUBLE_EQ(h.MeanMicros(), 100.0);
  // Every percentile of one sample is that sample (bounded by the max).
  EXPECT_EQ(h.PercentileUpperBoundMicros(50), 100u);
  EXPECT_EQ(h.PercentileUpperBoundMicros(99), 100u);
}

TEST(LatencyHistogram, PercentilesAreUpperBounds) {
  LatencyHistogram h;
  for (int i = 0; i < 99; ++i) h.Record(10);   // bucket [8,16)
  h.Record(5000);                              // the tail sample
  uint64_t p50 = h.PercentileUpperBoundMicros(50);
  EXPECT_GE(p50, 10u);
  EXPECT_LT(p50, 16u);
  // p99 of 100 samples is the 99th-ranked one — still a fast sample...
  EXPECT_LT(h.PercentileUpperBoundMicros(99), 16u);
  // ...while p100 must reach the slow one.
  EXPECT_EQ(h.PercentileUpperBoundMicros(100), 5000u);
}

TEST(LatencyHistogram, NearestRankRoundsUp) {
  // With 3 samples, p95 is ceil(0.95*3) = the 3rd (slowest) sample, and the
  // reported bound is clamped to the observed max.
  LatencyHistogram h;
  h.Record(100);
  h.Record(120);
  h.Record(527);
  EXPECT_EQ(h.PercentileUpperBoundMicros(95), 527u);
  EXPECT_EQ(h.PercentileUpperBoundMicros(99), 527u);
}

TEST(LatencyHistogram, ZeroAndHugeSamplesLandSafely) {
  LatencyHistogram h;
  h.Record(0);
  h.Record(~uint64_t{0});
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.max_micros(), ~uint64_t{0});
}

TEST(StatsRegistry, CountsByStatusAndMergesMetrics) {
  StatsRegistry stats;
  algebra::OpMetrics m;
  m.fragment_joins = 3;
  m.pairs_rejected_summary = 2;
  stats.RecordRequest(200, 120, &m);
  stats.RecordRequest(200, 80, &m);
  stats.RecordRequest(503, 5, nullptr);   // rejected: no metrics
  stats.RecordRequest(504, 900, &m);      // partial metrics still merge

  EXPECT_EQ(stats.TotalRequests(), 4u);
  EXPECT_EQ(stats.RequestsWithStatus(200), 2u);
  EXPECT_EQ(stats.RequestsWithStatus(503), 1u);
  EXPECT_EQ(stats.RequestsWithStatus(504), 1u);
  EXPECT_EQ(stats.RequestsWithStatus(404), 0u);

  json::Value rendered = stats.ToJson();
  EXPECT_EQ(rendered.Find("requests")->Find("total")->AsInt(), 4);
  EXPECT_EQ(
      rendered.Find("requests")->Find("by_status")->Find("200")->AsInt(), 2);
  EXPECT_EQ(rendered.Find("latency_us")->Find("count")->AsInt(), 4);
  EXPECT_EQ(rendered.Find("op_metrics")->Find("fragment_joins")->AsInt(), 9);
  EXPECT_EQ(
      rendered.Find("op_metrics")->Find("pairs_rejected_summary")->AsInt(),
      6);
}

TEST(StatsRegistry, OpMetricsJsonCoversEveryCounter) {
  algebra::OpMetrics m;
  m.fragment_joins = 1;
  m.filter_evals = 2;
  m.filter_rejections = 3;
  m.fixed_point_iterations = 4;
  m.fragments_produced = 5;
  m.pairs_considered = 6;
  m.pairs_rejected_summary = 7;
  m.subsume_checks_skipped = 8;
  m.pairs_rejected_score = 9;
  m.classes_total = 10;
  m.class_pairs_considered = 11;
  m.answers_multiplied_out = 12;
  m.pairs_examined = 13;
  json::Value rendered = StatsRegistry::OpMetricsToJson(m);
  EXPECT_EQ(rendered.size(), 13u);
  EXPECT_EQ(rendered.Find("fragment_joins")->AsInt(), 1);
  EXPECT_EQ(rendered.Find("subsume_checks_skipped")->AsInt(), 8);
  EXPECT_EQ(rendered.Find("pairs_rejected_score")->AsInt(), 9);
  EXPECT_EQ(rendered.Find("classes_total")->AsInt(), 10);
  EXPECT_EQ(rendered.Find("class_pairs_considered")->AsInt(), 11);
  EXPECT_EQ(rendered.Find("answers_multiplied_out")->AsInt(), 12);
  EXPECT_EQ(rendered.Find("pairs_examined")->AsInt(), 13);
}

// Every response's "metrics" carries pairs_examined, the pairs whose join
// bounds the kernels computed — never more than the pairs considered — and
// EXPLAIN reports it on its prefilter line. The nested sections put most
// keyword pairs far apart, so the size filter's root windows skip some.
TEST(ServiceMetrics, ResponsesReportPairsExamined) {
  collection::Collection collection;
  ASSERT_TRUE(collection
                  .AddXml("deep.xml",
                          "<book><part><chapter><section>"
                          "<par>alpha</par><par>beta</par></section>"
                          "<section><par>alpha beta</par></section>"
                          "</chapter><chapter><section><par>beta</par>"
                          "<par>alpha</par></section></chapter></part>"
                          "<part><chapter><section><par>alpha</par>"
                          "</section><section><par>beta</par></section>"
                          "</chapter></part></book>")
                  .ok());
  QueryService service(collection, ServiceOptions{});
  for (const char* request :
       {R"({"terms":["alpha","beta"],"filter":"size<=3",)"
        R"("strategy":"pushdown","explain":true})",
        R"({"terms":["alpha","beta"],"filter":"size<=3","top_k":2,)"
        R"("explain":true})"}) {
    QueryOutcome outcome = service.HandleQuery(request);
    ASSERT_EQ(outcome.http_status, 200) << outcome.body.Dump();
    const json::Value* metrics = outcome.body.Find("metrics");
    ASSERT_NE(metrics, nullptr);
    const json::Value* examined = metrics->Find("pairs_examined");
    ASSERT_NE(examined, nullptr) << outcome.body.Dump();
    const int64_t considered = metrics->Find("pairs_considered")->AsInt();
    EXPECT_GT(considered, 0) << request;
    EXPECT_LT(examined->AsInt(), considered) << request;
    const std::string explain =
        (*outcome.body.Find("explain"))[0].Find("text")->AsString();
    EXPECT_NE(explain.find(", " + std::to_string(examined->AsInt()) +
                           " examined\n"),
              std::string::npos)
        << explain;
  }
}

}  // namespace
}  // namespace xfrag::server

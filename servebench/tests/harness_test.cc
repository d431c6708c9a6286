// Unit tests of the benchmark's own logic: the percentile rule, failure
// accounting, self time from nested spans, the seeded generators, and the
// oracle's response normalization. Build and run with
//   python3 servebench/run.py --self-test

#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "harness.h"
#include "workload.h"

namespace servebench {
namespace {

std::vector<double> Iota(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(PercentileTest, NearestRankWhenTheTailHasTenSamples) {
  // 2000 samples: p99 is rank 1980, with 20 samples above it.
  Percentile p = PercentileOf(Iota(2000), 99);
  EXPECT_DOUBLE_EQ(p.value, 1980.0);
  EXPECT_DOUBLE_EQ(p.p, 99.0);
  EXPECT_EQ(p.above, 20u);
  EXPECT_EQ(p.samples, 2000u);
}

TEST(PercentileTest, LowersTheRankUntilTenSamplesLieAbove) {
  // 500 samples: nearest-rank p99 (495) would leave 5 above; the rule
  // reports rank 490 instead, i.e. p98.
  Percentile p = PercentileOf(Iota(500), 99);
  EXPECT_EQ(p.above, 10u);
  EXPECT_DOUBLE_EQ(p.value, 490.0);
  EXPECT_DOUBLE_EQ(p.p, 98.0);
}

TEST(PercentileTest, AlwaysLeavesAtLeastTenAboveWhenPossible) {
  for (size_t n : {11u, 50u, 999u, 1000u, 1001u, 5000u}) {
    Percentile p = PercentileOf(Iota(n), 99);
    EXPECT_GE(p.above, 10u) << n;
    EXPECT_LE(p.p, 99.0) << n;
  }
}

TEST(PercentileTest, MedianIsUnaffectedByTheTailRule) {
  Percentile p = PercentileOf({5, 1, 3, 2, 4}, 50, 0);
  EXPECT_DOUBLE_EQ(p.value, 3.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(PercentileOf({}, 50).samples, 0u);
}

TEST(PercentileTest, RunningMedianDropsSingleOutliersAndKeepsDrift) {
  EXPECT_EQ(RunningMedian3({}), std::vector<double>{});
  EXPECT_EQ(RunningMedian3({5}), std::vector<double>{5});
  // A one-sample dip is smoothed away; a step that lasts survives.
  std::vector<double> smoothed = RunningMedian3({10, 10, 2, 10, 10, 20, 20, 20});
  EXPECT_EQ(smoothed, (std::vector<double>{10, 10, 10, 10, 10, 20, 20, 20}));
  // Two values at an end: their median (the mean).
  EXPECT_EQ(RunningMedian3({4, 8}), (std::vector<double>{6, 6}));
}

TEST(TallyTest, EveryNonOkOutcomeFailsTheExchange) {
  Tally tally;
  tally.Record(Outcome::kOk, 4);        // a batch of four
  tally.Record(Outcome::kOk, 1);
  tally.Record(Outcome::kRejected, 1);  // 503
  tally.Record(Outcome::kTimeout, 1);
  tally.Record(Outcome::kMismatch, 4);  // a wrong answer in a batch
  tally.Record(Outcome::kHttpError, 1);
  tally.Record(Outcome::kTransport, 1);
  EXPECT_EQ(tally.attempted, 7u);
  EXPECT_EQ(tally.failed, 5u);
  EXPECT_EQ(tally.rejected, 1u);
  EXPECT_EQ(tally.timeouts, 1u);
  EXPECT_EQ(tally.mismatches, 1u);
  EXPECT_EQ(tally.http_errors, 1u);
  EXPECT_EQ(tally.transport_errors, 1u);
  EXPECT_EQ(tally.queries_answered, 5u);
  EXPECT_DOUBLE_EQ(tally.FailRatio(), 5.0 / 7.0);

  Tally other;
  other.Record(Outcome::kOk, 2);
  tally.Merge(other);
  EXPECT_EQ(tally.attempted, 8u);
  EXPECT_EQ(tally.queries_answered, 7u);
}

TEST(TallyTest, ClientTimeoutsAreTimeoutsAndOtherErrorsTransport) {
  EXPECT_EQ(TransportOutcome(xfrag::Status::DeadlineExceeded("recv")),
            Outcome::kTimeout);
  EXPECT_EQ(TransportOutcome(xfrag::Status::Internal("connect")),
            Outcome::kTransport);
  Tally tally;
  tally.Record(TransportOutcome(xfrag::Status::DeadlineExceeded("recv")), 1);
  EXPECT_EQ(tally.timeouts, 1u);
  EXPECT_EQ(tally.failed, 1u);
}

Span MakeSpan(uint64_t id, uint64_t parent, int64_t start, int64_t end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.request = 7;
  s.name = "s" + std::to_string(id);
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTimeTest, SubtractsTheUnionOfDirectChildren) {
  std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 100),   // root
      MakeSpan(2, 1, 10, 40),   // child
      MakeSpan(3, 1, 30, 60),   // overlaps child 2: union is [10, 60)
      MakeSpan(4, 2, 15, 20),   // grandchild: only counts against span 2
      MakeSpan(5, 1, 90, 130),  // reaches past the root: counts [90, 100)
  };
  std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - 50 - 10);
  EXPECT_EQ(self[1], 30 - 5);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 5);
  EXPECT_EQ(self[4], 40);
}

TEST(SelfTimeTest, SlowestOfParallelChildrenSetsTheWait) {
  // A router exchange with two shard replays laid from its start: the
  // front tier's self time is the exchange minus the slowest shard.
  std::vector<Span> spans = {MakeSpan(1, 0, 0, 50), MakeSpan(2, 1, 0, 20),
                             MakeSpan(3, 1, 0, 35)};
  EXPECT_EQ(SelfTimesNs(spans)[0], 15);
}

TEST(GeneratorTest, SameSeedSameCorpusAndBodies) {
  CorpusSpec spec;
  spec.nodes_per_document = 300;
  auto a = GenerateCorpus(spec, 42);
  auto b = GenerateCorpus(spec, 42);
  auto c = GenerateCorpus(spec, 43);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i].xml, b[i].xml);
  EXPECT_NE(a[0].xml, c[0].xml);

  for (Workload w : {Workload::kEngineCold, Workload::kServeHot,
                     Workload::kRouterTopK}) {
    RequestSource x(w, 9), y(w, 9), z(w, 10);
    bool differs = false;
    for (int i = 0; i < 300; ++i) {
      Request rx = x.Next(), ry = y.Next(), rz = z.Next();
      EXPECT_EQ(rx.body, ry.body) << WorkloadName(w) << " #" << i;
      differs = differs || rx.body != rz.body;
    }
    EXPECT_TRUE(differs) << WorkloadName(w);
  }
}

// engine-cold must never repeat a query, neither as a whole body nor as a
// batch item, nor as the JSON and XQL forms of one query.
TEST(GeneratorTest, EngineColdNeverRepeatsAQuery) {
  RequestSource source(Workload::kEngineCold, 5);
  std::set<std::string> seen;
  size_t queries = 0;
  for (int i = 0; i < 20000; ++i) {
    Request r = source.Next();
    queries += r.queries;
    auto parsed = xfrag::json::Parse(r.body);
    ASSERT_TRUE(parsed.ok()) << r.body;
    std::vector<std::string> items;
    if (r.kind == Request::Kind::kBatch) {
      for (const auto& item : parsed->items()) items.push_back(item.Dump());
    } else {
      items.push_back(parsed->Dump());
    }
    for (const std::string& item : items) {
      EXPECT_TRUE(seen.insert(item).second) << item;
    }
  }
  EXPECT_EQ(seen.size(), queries);
  EXPECT_EQ(source.distinct_issued(), queries);
}

// The share of each query shape must not drift as a run uses up the
// identity space: a faster build draws more queries, and would otherwise be
// measured on a different mix.
TEST(GeneratorTest, EngineColdShapeMixHoldsOverALongRun) {
  RequestSource source(Workload::kEngineCold, 11);
  auto shape_of = [](const std::string& item) {
    if (item.find("REDUCE(") != std::string::npos) return 0;
    if (item.find("\"reduced\"") != std::string::npos) return 1;
    if (item.find("\"pushdown\"") != std::string::npos) return 2;
    return 3;  // top-k, as JSON or XQL
  };
  std::vector<int> shapes;
  while (shapes.size() < 60000) {
    Request r = source.Next();
    auto parsed = xfrag::json::Parse(r.body);
    ASSERT_TRUE(parsed.ok()) << r.body;
    if (r.kind == Request::Kind::kBatch) {
      for (const auto& item : parsed->items()) {
        shapes.push_back(shape_of(item.Dump()));
      }
    } else {
      shapes.push_back(shape_of(r.body));
    }
  }
  auto shares = [&](size_t begin) {
    std::vector<double> out(4);
    for (size_t i = begin; i < begin + 10000; ++i) out[shapes[i]] += 1e-4;
    return out;
  };
  std::vector<double> first = shares(0), last = shares(shapes.size() - 10000);
  const double expected[] = {0.25, 0.15, 0.35, 0.25};
  for (int k = 0; k < 4; ++k) {
    EXPECT_NEAR(first[k], expected[k], 0.02) << "shape " << k;
    EXPECT_NEAR(last[k], first[k], 0.02) << "shape " << k;
  }
}

TEST(GeneratorTest, ServeHotDrawsFromASmallPool) {
  RequestSource source(Workload::kServeHot, 5);
  std::set<std::string> bodies;
  bool json = false, xql = false;
  for (int i = 0; i < 5000; ++i) {
    Request r = source.Next();
    bodies.insert(r.body);
    if (r.kind == Request::Kind::kQuery) (r.xql ? xql : json) = true;
  }
  EXPECT_LE(bodies.size(), 2 * 48u + 8u);
  EXPECT_TRUE(json);
  EXPECT_TRUE(xql);
}

TEST(GeneratorTest, VocabularyWordsAreDistinctAndLong) {
  std::set<std::string> words;
  for (size_t r = 0; r < 5000; ++r) {
    std::string w = VocabularyWord(r);
    EXPECT_GE(w.size(), 6u);
    words.insert(w);
  }
  EXPECT_EQ(words.size(), 5000u);
}

TEST(NormalizeTest, ElapsedIsRewrittenAndTheTopLevelValueReported) {
  double elapsed = 0;
  std::string s = StripElapsed(
      R"({"results":[{"body":{"a":1,"elapsed_ms":0.25}}],"elapsed_ms":1.5e0})",
      &elapsed);
  EXPECT_EQ(s, R"({"results":[{"body":{"a":1,"elapsed_ms":0}}],"elapsed_ms":0})");
  EXPECT_DOUBLE_EQ(elapsed, 1.5);
  EXPECT_EQ(StripElapsed(R"({"a":2})", &elapsed), R"({"a":2})");
  EXPECT_DOUBLE_EQ(elapsed, -1.0);
}

TEST(NormalizeTest, IgnoresTimingMetricsAndCacheMarker) {
  auto a = xfrag::json::Parse(
      R"({"answers":[1],"metrics":{"x":1},"elapsed_ms":3,"result_cache":"hit"})");
  auto b = xfrag::json::Parse(R"({"answers":[1],"metrics":{"x":9},"elapsed_ms":4})");
  auto c = xfrag::json::Parse(R"({"answers":[2],"elapsed_ms":4})");
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_TRUE(IsCacheHit(*a));
  EXPECT_FALSE(IsCacheHit(*b));
  EXPECT_EQ(NormalizeQueryBody(*a), NormalizeQueryBody(*b));
  EXPECT_NE(NormalizeQueryBody(*a), NormalizeQueryBody(*c));
}

}  // namespace
}  // namespace servebench

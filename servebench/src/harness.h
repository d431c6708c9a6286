// Measurement logic of the serving benchmark that does not touch a socket:
// the seeded random source, tail-aware percentiles, failure accounting,
// in-memory trace spans with self-time computation, and response
// normalization for the correctness oracle. Kept apart from main.cc so the
// unit tests in tests/harness_test.cc can pin each rule down.

#ifndef SERVEBENCH_HARNESS_H_
#define SERVEBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.h"
#include "common/status.h"

namespace servebench {

namespace json = xfrag::json;

/// \brief Deterministic 64-bit generator (splitmix64). The benchmark owns
/// its random source so a change to the library's RNG can never change the
/// benchmark's inputs.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n); n must be > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [lo, hi].
  uint64_t Between(uint64_t lo, uint64_t hi) { return lo + Below(hi - lo + 1); }
  /// Uniform in [0, 1).
  double Unit();

 private:
  uint64_t state_;
};

/// \brief Samples ranks 0..n-1 with probability proportional to
/// 1 / (rank + 1)^skew.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double skew);
  size_t Sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// \brief A percentile read off a sample, with the counts that qualify it.
struct Percentile {
  double value = 0.0;
  /// The percentile actually reported: the requested one, or the highest
  /// one that still leaves `min_above` samples above it.
  double p = 0.0;
  size_t samples = 0;
  /// Samples strictly above the reported rank.
  size_t above = 0;
};

/// \brief The `p`-th percentile of `values` (nearest rank). A tail
/// percentile is only meaningful with several samples beyond it, so when
/// fewer than `min_above` samples would lie above the nearest rank, the
/// rank is lowered until `min_above` do, and `p` reports the percentile
/// that rank represents. Empty input yields value 0 and samples 0.
Percentile PercentileOf(std::vector<double> values, double p,
                        size_t min_above = 10);

/// Median of `values` (0 when empty).
double Median(std::vector<double> values);

/// \brief Each value replaced by the median of itself and its neighbours
/// (two at the ends): smooths single-sample jitter out of a series that
/// drifts slowly.
std::vector<double> RunningMedian3(const std::vector<double>& values);

/// \brief How one HTTP exchange ended.
enum class Outcome {
  kOk,         // 200 and every answer matched the reference
  kRejected,   // 503 from admission control
  kHttpError,  // any other non-200 status (or a non-200 batch item)
  kTimeout,    // the socket deadline passed before a full response
  kTransport,  // connect/read/write failure or a malformed response
  kMismatch,   // 200, but an answer differs from the reference
};

/// \brief How an exchange that got no complete response failed: kTimeout
/// when the client's deadline passed, kTransport for anything else.
Outcome TransportOutcome(const xfrag::Status& status);

/// \brief Exchange and query counts of one run. Every exchange is
/// attempted; any outcome other than kOk fails it. `queries` counts the
/// queries an exchange carried (batch items each count) and only those of
/// kOk exchanges count as answered.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t rejected = 0;
  uint64_t http_errors = 0;
  uint64_t timeouts = 0;
  uint64_t transport_errors = 0;
  uint64_t mismatches = 0;
  uint64_t queries_answered = 0;

  void Record(Outcome outcome, uint64_t queries);
  void Merge(const Tally& other);
  double FailRatio() const;
};

/// \brief One timed interval of the benchmark's own calls into a layer.
/// Spans of one exchange share `request`; `parent` is 0 for a root.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// \brief Every span's self time, in the order of `spans`: its duration
/// minus the part of its interval its direct children cover (overlapping
/// children count once, and a child reaching outside its parent counts
/// only inside it).
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Writes spans as a JSON array (one object per span).
xfrag::json::Value SpansToJson(const std::vector<Span>& spans);

/// \brief Rewrites every `"elapsed_ms":<number>` member of a rendered
/// response to `"elapsed_ms":0`, so two renderings of one answer compare
/// equal byte for byte.
/// `*last_elapsed_ms`, when non-null, receives the last original value (the
/// top-level one: responses stamp it after every nested body), or -1.
std::string StripElapsed(std::string_view body, double* last_elapsed_ms);

/// \brief The oracle's view of a /query response body: the body with
/// "elapsed_ms", "metrics" and "result_cache" removed — the fields that
/// legitimately differ between a live server, a router and a reference
/// evaluation of the same request.
std::string NormalizeQueryBody(xfrag::json::Value body);

/// True when the body is a result-cache hit ("result_cache": "hit").
bool IsCacheHit(const xfrag::json::Value& body);

}  // namespace servebench

#endif  // SERVEBENCH_HARNESS_H_

#include "harness.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <unordered_map>
#include <utility>

namespace servebench {

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::Unit() {
  return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
}

ZipfSampler::ZipfSampler(size_t n, double skew) : cdf_(n) {
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), skew);
    cdf_[i] = total;
  }
  for (double& c : cdf_) c /= total;
}

size_t ZipfSampler::Sample(Rng& rng) const {
  double u = rng.Unit();
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<size_t>(it - cdf_.begin());
}

Percentile PercentileOf(std::vector<double> values, double p,
                        size_t min_above) {
  Percentile out;
  out.samples = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  rank = rank == 0 ? 0 : rank - 1;
  if (rank >= n) rank = n - 1;
  if (n - 1 - rank < min_above) rank = n > min_above ? n - 1 - min_above : 0;
  out.value = values[rank];
  out.above = n - 1 - rank;
  out.p = std::min(p, 100.0 * static_cast<double>(rank + 1) /
                          static_cast<double>(n));
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::vector<double> RunningMedian3(const std::vector<double>& values) {
  std::vector<double> out;
  for (size_t i = 0; i < values.size(); ++i) {
    size_t lo = i == 0 ? 0 : i - 1;
    size_t hi = std::min(values.size(), i + 2);
    out.push_back(Median({values.begin() + lo, values.begin() + hi}));
  }
  return out;
}

Outcome TransportOutcome(const xfrag::Status& status) {
  return status.code() == xfrag::StatusCode::kDeadlineExceeded
             ? Outcome::kTimeout
             : Outcome::kTransport;
}

void Tally::Record(Outcome outcome, uint64_t queries) {
  ++attempted;
  switch (outcome) {
    case Outcome::kOk: queries_answered += queries; return;
    case Outcome::kRejected: ++rejected; break;
    case Outcome::kHttpError: ++http_errors; break;
    case Outcome::kTimeout: ++timeouts; break;
    case Outcome::kTransport: ++transport_errors; break;
    case Outcome::kMismatch: ++mismatches; break;
  }
  ++failed;
}

void Tally::Merge(const Tally& other) {
  attempted += other.attempted;
  failed += other.failed;
  rejected += other.rejected;
  http_errors += other.http_errors;
  timeouts += other.timeouts;
  transport_errors += other.transport_errors;
  mismatches += other.mismatches;
  queries_answered += other.queries_answered;
}

double Tally::FailRatio() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::unordered_map<uint64_t, size_t> position;
  for (size_t i = 0; i < spans.size(); ++i) position[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> covered(spans.size());
  for (const Span& span : spans) {
    auto parent = position.find(span.parent);
    if (span.parent == 0 || parent == position.end()) continue;
    const Span& p = spans[parent->second];
    int64_t begin = std::max(span.start_ns, p.start_ns);
    int64_t end = std::min(span.end_ns, p.end_ns);
    if (begin < end) covered[parent->second].emplace_back(begin, end);
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = covered[i];
    std::sort(intervals.begin(), intervals.end());
    int64_t child_ns = 0;
    int64_t reach = spans[i].start_ns;
    for (const auto& [begin, end] : intervals) {
      int64_t from = std::max(begin, reach);
      if (end > from) {
        child_ns += end - from;
        reach = end;
      }
    }
    self[i] = spans[i].duration_ns() - child_ns;
  }
  return self;
}

xfrag::json::Value SpansToJson(const std::vector<Span>& spans) {
  xfrag::json::Value out = xfrag::json::Value::Array();
  for (const Span& span : spans) {
    xfrag::json::Value entry = xfrag::json::Value::Object();
    entry.Set("id", span.id);
    entry.Set("parent", span.parent);
    entry.Set("request", span.request);
    entry.Set("name", span.name);
    entry.Set("start_ns", span.start_ns);
    entry.Set("end_ns", span.end_ns);
    out.Append(std::move(entry));
  }
  return out;
}

std::string StripElapsed(std::string_view body, double* last_elapsed_ms) {
  static constexpr std::string_view kKey = "\"elapsed_ms\":";
  if (last_elapsed_ms != nullptr) *last_elapsed_ms = -1.0;
  std::string out;
  out.reserve(body.size());
  size_t pos = 0;
  while (true) {
    size_t hit = body.find(kKey, pos);
    if (hit == std::string_view::npos) break;
    size_t value_begin = hit + kKey.size();
    size_t value_end = value_begin;
    while (value_end < body.size() &&
           (std::isdigit(static_cast<unsigned char>(body[value_end])) ||
            body[value_end] == '.' || body[value_end] == '-' ||
            body[value_end] == 'e' || body[value_end] == 'E' ||
            body[value_end] == '+')) {
      ++value_end;
    }
    if (last_elapsed_ms != nullptr && value_end > value_begin) {
      *last_elapsed_ms = std::strtod(
          std::string(body.substr(value_begin, value_end - value_begin))
              .c_str(),
          nullptr);
    }
    out.append(body.substr(pos, value_begin - pos));
    out.push_back('0');
    pos = value_end;
  }
  out.append(body.substr(pos));
  return out;
}

std::string NormalizeQueryBody(xfrag::json::Value body) {
  if (body.is_object()) {
    body.Remove("elapsed_ms");
    body.Remove("metrics");
    body.Remove("result_cache");
  }
  return body.Dump();
}

bool IsCacheHit(const xfrag::json::Value& body) {
  const json::Value* flag = body.Find("result_cache");
  return flag != nullptr && flag->is_string() && flag->AsString() == "hit";
}

}  // namespace servebench

// DAG-compressed evaluation benchmark: the duplication sweep of ISSUE 7.
//
// Builds collections of kDocs documents at duplication rates {0.0, 0.3,
// 0.6, 0.9} — U = max(1, round(D * (1 - d))) unique documents repeated to
// fill D slots, each unique document additionally stamped with repeated
// subtree templates at rate d (gen::StampDuplicateSubtrees, keywords planted
// *before* stamping so the copies carry them) — and times the full
// QueryService request path with DAG compression off (baseline, serial_ms)
// vs on (candidate, parallel_ms) for a filtered pairwise join, a top-k
// query, and a single-term filtered fixed point. Every row asserts the two
// response bodies are byte-identical after stripping elapsed_ms and the
// physical dag:* counters (which exist only to report compression work).
//
//   ./bench_dag [nodes_per_doc]
//
// Emits BENCH_dag.json: one record per (duplication, op) with the off/on
// timings, the byte-identity verdict, and the replay counters.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "collection/collection.h"
#include "common/json.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/strings.h"
#include "gen/corpus.h"
#include "server/service.h"

namespace {

using xfrag::Rng;
using xfrag::bench::Banner;
using xfrag::bench::BenchRecord;
using xfrag::bench::Cell;
using xfrag::bench::MedianMillis;
using xfrag::bench::TablePrinter;

constexpr size_t kDocs = 12;

size_t OccurrenceCount(const xfrag::gen::RawCorpus& raw,
                       const std::string& keyword) {
  size_t count = 0;
  for (const std::string& text : raw.texts) {
    if (text.find(keyword) != std::string::npos) ++count;
  }
  return count;
}

// One unique document: generated, planted, then stamped so the duplicate
// subtrees carry the planted keywords. Stamping replaces whole sibling
// subtrees, so planted occurrences can be multiplied (the donor carried
// them) or wiped (a replaced sibling did); a post-stamp top-up guarantees
// every template keeps a meaningful posting list — top-ups are part of the
// template, so same-template documents stay byte-identical.
xfrag::gen::RawCorpus MakeUniqueRaw(size_t nodes, double duplication,
                                    uint64_t seed) {
  xfrag::gen::CorpusProfile profile;
  profile.target_nodes = nodes;
  profile.seed = seed;
  xfrag::gen::RawCorpus raw = xfrag::gen::GenerateRaw(profile);
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  xfrag::gen::PlantKeyword(&raw, "kwone", 16, xfrag::gen::PlantMode::kClustered,
                           &rng);
  xfrag::gen::PlantKeyword(&raw, "kwtwo", 16,
                           xfrag::gen::PlantMode::kScattered, &rng);
  if (duplication > 0.0) {
    xfrag::gen::StampDuplicateSubtrees(&raw, duplication, &rng);
    constexpr size_t kMinOccurrences = 12;
    for (const char* keyword : {"kwone", "kwtwo"}) {
      size_t have = OccurrenceCount(raw, keyword);
      if (have < kMinOccurrences) {
        xfrag::gen::PlantKeyword(&raw, keyword, kMinOccurrences - have,
                                 xfrag::gen::PlantMode::kScattered, &rng);
      }
    }
  }
  return raw;
}

// D documents cycling through U unique templates: document i is a fresh
// materialization of template i % U, so same-template documents are
// byte-identical (same subtree root class).
xfrag::collection::Collection MakeCollection(size_t nodes, double duplication,
                                             size_t* unique_out) {
  const size_t unique = std::max<size_t>(
      1, static_cast<size_t>(std::llround(
             static_cast<double>(kDocs) * (1.0 - duplication))));
  *unique_out = unique;
  std::vector<xfrag::gen::RawCorpus> templates;
  templates.reserve(unique);
  for (size_t u = 0; u < unique; ++u) {
    templates.push_back(MakeUniqueRaw(
        nodes, duplication,
        0xDA6 + 977 * u + static_cast<uint64_t>(duplication * 100)));
  }
  xfrag::collection::Collection collection;
  for (size_t i = 0; i < kDocs; ++i) {
    auto document = xfrag::gen::Materialize(templates[i % unique]);
    XFRAG_CHECK(document.ok());
    auto status = collection.Add(xfrag::StrFormat("doc%zu.xml", i),
                                 std::move(document).value());
    XFRAG_CHECK(status.ok());
  }
  return collection;
}

// Strips the fields that legitimately differ between a compressed and an
// uncompressed run: wall-clock, and the physical dag:* counters whose whole
// purpose is to report that compression happened.
xfrag::json::Value Normalized(const xfrag::json::Value& body) {
  xfrag::json::Value v = body;
  v.Remove("elapsed_ms");
  if (const xfrag::json::Value* metrics = v.Find("metrics")) {
    xfrag::json::Value m = *metrics;
    m.Set("classes_total", uint64_t{0});
    m.Set("class_pairs_considered", uint64_t{0});
    m.Set("answers_multiplied_out", uint64_t{0});
    v.Set("metrics", std::move(m));
  }
  return v;
}

uint64_t MetricsCounter(const xfrag::json::Value& body, const char* name) {
  const xfrag::json::Value* metrics = body.Find("metrics");
  if (metrics == nullptr) return 0;
  const xfrag::json::Value* counter = metrics->Find(name);
  return counter != nullptr ? static_cast<uint64_t>(counter->AsInt()) : 0;
}

}  // namespace

int main(int argc, char** argv) {
  size_t nodes = argc > 1 ? static_cast<size_t>(std::atol(argv[1])) : 3000;
  if (xfrag::bench::BenchSmokeMode()) nodes = std::min<size_t>(nodes, 800);

  Banner("DAG-compressed evaluation: duplication sweep (QueryService path)");

  struct OpSpec {
    const char* name;
    const char* body;
  };
  const OpSpec kOps[] = {
      {"pairwise_join",
       R"({"terms":["kwone","kwtwo"],"filter":"size<=4","strategy":"pushdown",)"
       R"("max_answers":32})"},
      {"top_k",
       R"({"terms":["kwone","kwtwo"],"filter":"size<=4","strategy":"pushdown",)"
       R"("top_k":5})"},
      {"fixed_point",
       R"({"terms":["kwone"],"filter":"size<=3","strategy":"pushdown",)"
       R"("max_answers":32})"},
  };

  TablePrinter table({"op", "dup", "docs", "unique", "off ms", "on ms",
                      "speedup", "identical", "pairs replayed"});
  std::vector<BenchRecord> records;
  bool all_identical = true;

  for (double duplication : {0.0, 0.3, 0.6, 0.9}) {
    size_t unique = 0;
    xfrag::collection::Collection collection =
        MakeCollection(nodes, duplication, &unique);
    // Two services so neither mode's fixed-point caches warm the other.
    // Cross-document floor off: with it on, per-document metrics depend on
    // the evaluation partition (documented precedent), which would make the
    // byte-compare below meaningless.
    xfrag::server::ServiceOptions service_options;
    service_options.enable_cross_document_floor = false;
    xfrag::server::QueryService service_on(collection, service_options);
    service_options.enable_dag_compression = false;
    xfrag::server::QueryService service_off(collection, service_options);

    for (const OpSpec& op : kOps) {
      xfrag::json::Value body_off = service_off.HandleQuery(op.body).body;
      double off_ms =
          MedianMillis([&] { (void)service_off.HandleQuery(op.body); });

      xfrag::json::Value body_on = service_on.HandleQuery(op.body).body;
      double on_ms =
          MedianMillis([&] { (void)service_on.HandleQuery(op.body); });

      const bool identical = Normalized(body_off) == Normalized(body_on);
      all_identical = all_identical && identical;
      const uint64_t replayed =
          MetricsCounter(body_on, "class_pairs_considered");

      BenchRecord record(
          xfrag::StrFormat("dag_%s_d%02d", op.name,
                           static_cast<int>(duplication * 100 + 0.5)),
          kDocs, unique, /*threads=*/1, off_ms, on_ms, identical);
      record.counters.emplace_back("duplication_pct",
                                   static_cast<uint64_t>(duplication * 100));
      record.counters.emplace_back("documents", kDocs);
      record.counters.emplace_back("unique_documents", unique);
      record.counters.emplace_back("class_pairs_considered", replayed);
      record.counters.emplace_back(
          "answers_multiplied_out",
          MetricsCounter(body_on, "answers_multiplied_out"));
      records.push_back(std::move(record));

      table.AddRow({xfrag::StrFormat("%s", op.name), Cell(duplication, 1),
                    Cell(uint64_t{kDocs}), Cell(uint64_t{unique}),
                    Cell(off_ms), Cell(on_ms),
                    Cell(on_ms > 0 ? off_ms / on_ms : 0.0),
                    std::string(identical ? "yes" : "NO"), Cell(replayed)});
    }
  }

  table.Print();
  xfrag::bench::WriteBenchJson(records, "BENCH_dag.json", /*merge=*/false);
  if (!all_identical) {
    std::fprintf(stderr,
                 "FAIL: compressed and uncompressed bodies diverged\n");
    return 1;
  }
  return 0;
}

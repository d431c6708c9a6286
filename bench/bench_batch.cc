// Batched-query benchmark: closed-loop loopback clients posting whole
// batches to an in-process xfrag_router (fronting 1 or 4 in-process xfragd
// shards over one planted corpus) via POST /query_batch, at batch sizes 1,
// 8, and 64 in full and top-k(=10) modes. The aggregate-throughput story:
// one batch pays one client connection, one admission slot, one JSON parse,
// and ONE scatter per shard for all its items, and each shard runs the
// items in order as /query runs over warm fixed-point closures — so
// queries/sec rises steeply with the batch size while every per-item body
// stays exact.
//
// Every row is exactness-checked after its measured run: the batch is
// posted once more and each item compared byte-for-byte (modulo
// "elapsed_ms" and the work "metrics", which a distributed evaluation may
// legitimately change) against a sequential POST /query of the same item to
// a combined single node holding the whole corpus. A throughput number can
// never come from a wrong answer; the check also runs in smoke mode
// (XFRAG_BENCH_SMOKE=1, scripts/check.sh).
//
//   ./bench_batch [queries_per_client] [total_nodes]
//
// Emits BENCH_batch.json:
//   [{"shards": 4, "mode": "full", "batch": 64, "clients": 4,
//     "batches": 16, "queries": 1024, "throughput_qps": ...,
//     "batch_latency_ms": {"mean": .., "p50": .., "p95": .., "p99": ..,
//                          "max": ..},
//     "ok": 16, "exact": true}, ...]

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "collection/collection.h"
#include "common/json.h"
#include "common/strings.h"
#include "common/timer.h"
#include "gen/corpus.h"
#include "router/router.h"
#include "server/http.h"
#include "server/net.h"
#include "server/server.h"

namespace {

using xfrag::bench::Banner;
using xfrag::bench::Cell;
using xfrag::bench::MakePlantedCorpus;
using xfrag::bench::PlantedCorpus;
using xfrag::bench::TablePrinter;

constexpr size_t kDocs = 8;  // partitions evenly across 1 and 4 shards

double Percentile(const std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  size_t rank = static_cast<size_t>(p / 100.0 *
                                    static_cast<double>(sorted_ms.size()));
  if (rank >= sorted_ms.size()) rank = sorted_ms.size() - 1;
  return sorted_ms[rank];
}

/// One /query_batch item. Variants cycle so a big batch mixes rendering
/// caps (full mode) or k values (top-k mode) while still sharing term scans
/// and fixed-point closures — the workload batching exists for.
std::string ItemBody(bool topk, size_t variant) {
  if (topk) {
    static const int ks[] = {10, 7, 5, 3};
    return xfrag::StrFormat(
        R"({"terms":["kwone","kwtwo"],"top_k":%d})", ks[variant % 4]);
  }
  static const int caps[] = {64, 32, 16, 8};
  return xfrag::StrFormat(
      R"({"terms":["kwone","kwtwo"],"filter":"size<=4",)"
      R"("strategy":"pushdown","max_answers":%d})",
      caps[variant % 4]);
}

std::string BatchBody(bool topk, size_t batch_size) {
  std::string body = "[";
  for (size_t i = 0; i < batch_size; ++i) {
    if (i > 0) body += ",";
    body += ItemBody(topk, i);
  }
  body += "]";
  return body;
}

struct RunResult {
  int batches = 0;
  int ok = 0;  // batch envelopes answered 200 with every item 200
  double elapsed_s = 0.0;
  std::vector<double> latencies_ms;  // per batch
};

xfrag::StatusOr<xfrag::server::HttpResponse> PostBody(
    uint16_t port, const std::string& target, const std::string& body) {
  std::string request = xfrag::StrFormat(
      "POST %s HTTP/1.1\r\nHost: b\r\nContent-Length: %zu\r\n"
      "Connection: close\r\n\r\n",
      target.c_str(), body.size());
  request += body;
  auto raw = xfrag::server::HttpRoundTrip("127.0.0.1", port, request);
  if (!raw.ok()) return raw.status();
  return xfrag::server::ParseHttpResponse(*raw);
}

/// True iff the batch envelope answered 200 and every item inside did too.
bool AllItemsOk(const std::string& envelope_body) {
  auto parsed = xfrag::json::Parse(envelope_body);
  if (!parsed.ok()) return false;
  const xfrag::json::Value* results = parsed->Find("results");
  if (results == nullptr || !results->is_array()) return false;
  for (const xfrag::json::Value& entry : results->items()) {
    const xfrag::json::Value* status = entry.Find("status");
    if (status == nullptr || status->AsInt() != 200) return false;
  }
  return true;
}

RunResult RunClosedLoop(uint16_t port, int clients, int batches_per_client,
                        const std::string& batch_body) {
  RunResult result;
  result.batches = clients * batches_per_client;
  std::atomic<int> ok{0};
  std::vector<std::vector<double>> per_client(clients);
  xfrag::Timer wall;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      per_client[c].reserve(batches_per_client);
      for (int r = 0; r < batches_per_client; ++r) {
        xfrag::Timer timer;
        auto response = PostBody(port, "/query_batch", batch_body);
        per_client[c].push_back(timer.ElapsedMillis());
        if (response.ok() && response->status == 200 &&
            AllItemsOk(response->body)) {
          ++ok;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  result.elapsed_s = wall.ElapsedMillis() / 1e3;
  result.ok = ok.load();
  for (auto& v : per_client) {
    result.latencies_ms.insert(result.latencies_ms.end(), v.begin(), v.end());
  }
  std::sort(result.latencies_ms.begin(), result.latencies_ms.end());
  return result;
}

std::vector<std::unique_ptr<xfrag::collection::Collection>> BuildShards(
    size_t shard_count, size_t nodes_per_doc) {
  std::vector<std::unique_ptr<xfrag::collection::Collection>> shards;
  size_t docs_per_shard = kDocs / shard_count;
  for (size_t s = 0; s < shard_count; ++s) {
    shards.push_back(std::make_unique<xfrag::collection::Collection>());
  }
  for (size_t d = 0; d < kDocs; ++d) {
    PlantedCorpus corpus =
        MakePlantedCorpus(nodes_per_doc, 8, xfrag::gen::PlantMode::kClustered,
                          8, xfrag::gen::PlantMode::kScattered,
                          /*seed=*/0x70c + d);
    auto status = shards[d / docs_per_shard]->Add(
        xfrag::StrFormat("doc%zu.xml", d), std::move(*corpus.document));
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      std::exit(1);
    }
  }
  return shards;
}

xfrag::router::ShardMap MapForPorts(const std::vector<uint16_t>& ports,
                                    size_t docs_per_shard) {
  xfrag::router::ShardMap map;
  for (size_t s = 0; s < ports.size(); ++s) {
    xfrag::router::ShardInfo info;
    info.host = "127.0.0.1";
    info.port = ports[s];
    info.doc_begin = s * docs_per_shard;
    info.doc_count = docs_per_shard;
    map.shards.push_back(std::move(info));
  }
  map.total_documents = ports.size() * docs_per_shard;
  return map;
}

double MeanMs(const RunResult& run) {
  double mean = 0.0;
  for (double ms : run.latencies_ms) mean += ms;
  if (!run.latencies_ms.empty()) {
    mean /= static_cast<double>(run.latencies_ms.size());
  }
  return mean;
}

xfrag::json::Value LatencyJson(const RunResult& run) {
  xfrag::json::Value latency = xfrag::json::Value::Object();
  latency.Set("mean", MeanMs(run));
  latency.Set("p50", Percentile(run.latencies_ms, 50));
  latency.Set("p95", Percentile(run.latencies_ms, 95));
  latency.Set("p99", Percentile(run.latencies_ms, 99));
  latency.Set("max",
              run.latencies_ms.empty() ? 0.0 : run.latencies_ms.back());
  return latency;
}

/// The only fields a distributed evaluation may change (same normalization
/// as bench_router's exactness gate).
std::string NormalizedBody(const xfrag::json::Value& body) {
  xfrag::json::Value v = body;
  v.Set("elapsed_ms", 0);
  v.Remove("metrics");
  return v.Dump();
}

/// Posts the batch to the router once and each item sequentially to the
/// combined node, comparing per item. A throughput row with a wrong answer
/// is a bug, so a mismatch fails the benchmark (smoke mode included).
bool AssertBatchExact(uint16_t router_port, uint16_t combined_port,
                      bool topk, size_t batch_size, const char* label) {
  auto from_router =
      PostBody(router_port, "/query_batch", BatchBody(topk, batch_size));
  if (!from_router.ok() || from_router->status != 200) {
    std::fprintf(stderr, "exactness probe failed for %s\n", label);
    return false;
  }
  auto parsed = xfrag::json::Parse(from_router->body);
  if (!parsed.ok()) return false;
  const xfrag::json::Value* results = parsed->Find("results");
  if (results == nullptr || results->size() != batch_size) {
    std::fprintf(stderr, "exactness probe: %s returned %zu results\n", label,
                 results == nullptr ? size_t{0} : results->size());
    return false;
  }
  for (size_t i = 0; i < batch_size; ++i) {
    auto sequential =
        PostBody(combined_port, "/query", ItemBody(topk, i));
    if (!sequential.ok() || sequential->status != 200) return false;
    auto expected = xfrag::json::Parse(sequential->body);
    if (!expected.ok()) return false;
    const xfrag::json::Value& entry = (*results)[i];
    const xfrag::json::Value* status = entry.Find("status");
    const xfrag::json::Value* body = entry.Find("body");
    if (status == nullptr || status->AsInt() != 200 || body == nullptr ||
        NormalizedBody(*body) != NormalizedBody(*expected)) {
      std::fprintf(stderr,
                   "EXACTNESS VIOLATION (%s item %zu):\n  batch:      %s\n"
                   "  sequential: %s\n",
                   label, i, body != nullptr ? body->Dump().c_str() : "null",
                   expected->Dump().c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  int queries_per_client = argc > 1 ? std::atoi(argv[1]) : 256;
  size_t total_nodes = argc > 2 ? static_cast<size_t>(std::atol(argv[2]))
                                : 40000;
  int clients = 4;
  if (xfrag::bench::BenchSmokeMode()) {
    queries_per_client = std::min(queries_per_client, 8);
    total_nodes = std::min<size_t>(total_nodes, 4000);
    clients = 2;
  }
  size_t nodes_per_doc = total_nodes / kDocs;

  Banner("batched multi-query execution (/query_batch through the router)");

  TablePrinter table({"shards", "mode", "batch", "clients", "queries", "qps",
                      "batch mean ms", "batch p95 ms", "ok", "exact"});
  xfrag::json::Value records = xfrag::json::Value::Array();
  bool all_exact = true;

  // The combined single node every row's answers are checked against.
  auto combined_collections = BuildShards(1, nodes_per_doc);
  xfrag::server::ServerOptions combined_options;
  combined_options.workers = 4;
  combined_options.queue_capacity = 1024;
  xfrag::server::Server combined_node(*combined_collections[0],
                                      combined_options);
  {
    auto started = combined_node.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "%s\n", started.ToString().c_str());
      return 1;
    }
  }

  for (size_t shard_count : {1u, 4u}) {
    auto collections = BuildShards(shard_count, nodes_per_doc);
    std::vector<std::unique_ptr<xfrag::server::Server>> shard_servers;
    std::vector<uint16_t> ports;
    for (auto& collection : collections) {
      xfrag::server::ServerOptions options;
      options.workers = 4;
      options.queue_capacity = 1024;
      shard_servers.push_back(
          std::make_unique<xfrag::server::Server>(*collection, options));
      auto started = shard_servers.back()->Start();
      if (!started.ok()) {
        std::fprintf(stderr, "%s\n", started.ToString().c_str());
        return 1;
      }
      ports.push_back(shard_servers.back()->port());
    }

    xfrag::router::RouterOptions router_options;
    router_options.workers = 16;
    router_options.queue_capacity = 1024;
    router_options.enable_hedging = false;
    router_options.health_check_interval_ms = 0;
    xfrag::router::Router router(MapForPorts(ports, kDocs / shard_count),
                                 router_options);
    {
      auto started = router.Start();
      if (!started.ok()) {
        std::fprintf(stderr, "%s\n", started.ToString().c_str());
        return 1;
      }
    }

    for (bool topk : {false, true}) {
      const char* mode = topk ? "topk10" : "full";
      for (size_t batch_size : {size_t{1}, size_t{8}, size_t{64}}) {
        std::string batch_body = BatchBody(topk, batch_size);
        int batches_per_client = std::max(
            1, queries_per_client / static_cast<int>(batch_size));

        // Warm every shard's caches (and the combined node's, so the
        // exactness probe compares equally warm states).
        (void)PostBody(router.port(), "/query_batch", batch_body);
        for (size_t i = 0; i < std::min<size_t>(batch_size, 4); ++i) {
          (void)PostBody(combined_node.port(), "/query", ItemBody(topk, i));
        }

        RunResult run = RunClosedLoop(router.port(), clients,
                                      batches_per_client, batch_body);
        const int queries = run.batches * static_cast<int>(batch_size);
        double qps = run.elapsed_s > 0
                         ? static_cast<double>(queries) / run.elapsed_s
                         : 0.0;
        std::string label = xfrag::StrFormat("%zu-shard %s batch=%zu",
                                             shard_count, mode, batch_size);
        bool exact = AssertBatchExact(router.port(), combined_node.port(),
                                      topk, batch_size, label.c_str());
        all_exact = all_exact && exact;

        table.AddRow({Cell(uint64_t(shard_count)), mode,
                      Cell(uint64_t(batch_size)), Cell(uint64_t(clients)),
                      Cell(uint64_t(queries)), Cell(qps, 0),
                      Cell(MeanMs(run)),
                      Cell(Percentile(run.latencies_ms, 95)),
                      Cell(uint64_t(run.ok)),
                      std::string(exact ? "yes" : "NO")});

        xfrag::json::Value record = xfrag::json::Value::Object();
        record.Set("shards", static_cast<uint64_t>(shard_count));
        record.Set("mode", mode);
        record.Set("batch", static_cast<uint64_t>(batch_size));
        record.Set("clients", int64_t{clients});
        record.Set("batches", int64_t{run.batches});
        record.Set("queries", int64_t{queries});
        record.Set("throughput_qps", qps);
        record.Set("batch_latency_ms", LatencyJson(run));
        record.Set("ok", int64_t{run.ok});
        record.Set("exact", exact);
        records.Append(std::move(record));
      }
    }
    router.Shutdown();
    for (auto& shard : shard_servers) shard->Shutdown();
  }
  combined_node.Shutdown();

  table.Print();
  const std::string path = xfrag::bench::BenchOutputPath("BENCH_batch.json");
  std::ofstream out(path);
  out << records.Dump(2) << "\n";
  std::printf("wrote %s\n", path.c_str());
  if (!all_exact) {
    std::fprintf(stderr,
                 "bench_batch: row(s) failed the per-item exactness check\n");
    return 1;
  }
  return 0;
}

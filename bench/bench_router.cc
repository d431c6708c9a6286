// Scatter-gather tier benchmark: closed-loop loopback clients against an
// in-process xfrag_router fronting 1, 2, or 4 in-process xfragd shards that
// partition one ~100k-node planted corpus, in full and top-k(=10) modes —
// the throughput-scaling story — plus a hedging ablation where one shard
// sits behind a flaky TCP proxy that randomly stalls connections, showing
// what the single bounded hedge buys at the tail versus no hedging.
//
// Top-k is one scatter and an exact k-way merge of the shards' local top-k
// lists (docs/SERVING.md). Every scaling row posts its query once more after
// the measured run and asserts the router's response is byte-identical
// (modulo "elapsed_ms" and the work "metrics") to a combined single node
// holding the whole corpus, so a throughput number can never come from a
// wrong answer; the assertion also runs in smoke mode (XFRAG_BENCH_SMOKE=1,
// scripts/check.sh).
//
//   ./bench_router [requests_per_client] [total_nodes]
//
// Emits BENCH_router.json, one object per row:
//   [{"shards": 2, "mode": "topk10", "clients": 8, "requests": 256,
//     "throughput_rps": ..., "latency_ms": {...}, "ok": 256,
//     "hedging": false, "hedges_launched": 0, "hedges_won": 0,
//     "exact": true, "pairs_rejected_score": ...,
//     "provenance": {"commit": ..., "build_type": ..., "cores": ...,
//                    "smoke": false}}, ...]
// The commit is `git describe --always --dirty` in the working directory (a
// "-dirty" suffix marks uncommitted changes), or "unknown" outside git.

#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "collection/collection.h"
#include "common/json.h"
#include "common/rng.h"
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

constexpr size_t kDocs = 8;  // partitions evenly across 1, 2, and 4 shards

double Percentile(const std::vector<double>& sorted_ms, double p) {
  if (sorted_ms.empty()) return 0.0;
  size_t rank = static_cast<size_t>(p / 100.0 *
                                    static_cast<double>(sorted_ms.size()));
  if (rank >= sorted_ms.size()) rank = sorted_ms.size() - 1;
  return sorted_ms[rank];
}

/// \brief A loopback TCP forwarder that stalls a random fraction of
/// connections before relaying any bytes — a stand-in for the occasional
/// slow backend that hedging exists to paper over. Each accepted connection
/// rolls once: with probability `stall_probability` every byte in both
/// directions waits until `stall_ms` has passed.
class FlakyProxy {
 public:
  FlakyProxy(uint16_t target_port, double stall_probability, int stall_ms,
             uint64_t seed)
      : target_port_(target_port),
        stall_probability_(stall_probability),
        stall_ms_(stall_ms),
        rng_(seed) {}

  ~FlakyProxy() { Stop(); }

  xfrag::Status Start() {
    auto listener = xfrag::server::ListenTcp("127.0.0.1", 0);
    if (!listener.ok()) return listener.status();
    listener_ = std::move(*listener);
    auto port = xfrag::server::LocalPort(listener_.get());
    if (!port.ok()) return port.status();
    port_ = *port;
    accept_thread_ = std::thread([this] { AcceptLoop(); });
    return xfrag::Status::OK();
  }

  void Stop() {
    if (stopping_.exchange(true)) return;
    ::shutdown(listener_.get(), SHUT_RDWR);
    if (accept_thread_.joinable()) accept_thread_.join();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // weak_ptr: a finished connection has already closed its fd (and may
      // have been recycled by an unrelated socket); only live ones are shut.
      for (auto& weak : live_) {
        if (auto fd = weak.lock()) ::shutdown(fd->get(), SHUT_RDWR);
      }
    }
    for (auto& t : pumps_) t.join();
  }

  uint16_t port() const { return port_; }

 private:
  void AcceptLoop() {
    while (!stopping_.load()) {
      int fd = ::accept(listener_.get(), nullptr, nullptr);
      if (fd < 0) break;
      auto client = std::make_shared<xfrag::server::UniqueFd>(fd);
      auto backend = xfrag::server::ConnectTcp("127.0.0.1", target_port_);
      if (!backend.ok()) continue;
      auto upstream =
          std::make_shared<xfrag::server::UniqueFd>(std::move(*backend));
      std::lock_guard<std::mutex> lock(mutex_);
      int delay = rng_.Chance(stall_probability_) ? stall_ms_ : 0;
      live_.push_back(client);
      live_.push_back(upstream);
      pumps_.emplace_back([client, upstream, delay] {
        Pump(client->get(), upstream->get(), delay);
      });
      pumps_.emplace_back([client, upstream] {
        Pump(upstream->get(), client->get(), 0);
      });
    }
  }

  /// Relays src → dst until either side closes; the stall delays the first
  /// forwarded byte (the whole request waits, like a congested backend).
  static void Pump(int src, int dst, int delay_ms) {
    char buf[16 * 1024];
    bool delayed = false;
    while (true) {
      auto n = xfrag::server::ReadSome(src, buf, sizeof(buf));
      if (!n.ok() || *n == 0) break;
      if (delay_ms > 0 && !delayed) {
        std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
        delayed = true;
      }
      if (!xfrag::server::WriteAll(dst, std::string_view(buf, *n)).ok()) {
        break;
      }
    }
    ::shutdown(dst, SHUT_RDWR);
    ::shutdown(src, SHUT_RDWR);
  }

  uint16_t target_port_;
  double stall_probability_;
  int stall_ms_;
  xfrag::Rng rng_;

  xfrag::server::UniqueFd listener_;
  uint16_t port_ = 0;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  std::mutex mutex_;
  std::vector<std::thread> pumps_;
  std::vector<std::weak_ptr<xfrag::server::UniqueFd>> live_;
};

struct RunResult {
  int requests = 0;
  int ok = 0;
  double elapsed_s = 0.0;
  std::vector<double> latencies_ms;
};

RunResult RunClosedLoop(uint16_t port, int clients, int requests_per_client,
                        const std::string& body) {
  RunResult result;
  result.requests = clients * requests_per_client;
  std::atomic<int> ok{0};
  std::vector<std::vector<double>> per_client(clients);
  xfrag::Timer wall;
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      per_client[c].reserve(requests_per_client);
      for (int r = 0; r < requests_per_client; ++r) {
        std::string request = xfrag::StrFormat(
            "POST /query HTTP/1.1\r\nHost: b\r\nContent-Length: %zu\r\n"
            "Connection: close\r\n\r\n",
            body.size());
        request += body;
        xfrag::Timer timer;
        auto raw = xfrag::server::HttpRoundTrip("127.0.0.1", port, request);
        per_client[c].push_back(timer.ElapsedMillis());
        if (!raw.ok()) continue;
        auto response = xfrag::server::ParseHttpResponse(*raw);
        if (response.ok() && response->status == 200) ++ok;
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

/// Builds the shard collections for `shard_count` shards over `kDocs`
/// documents of ~`nodes_per_doc` nodes each. Document d lives on shard
/// d / (kDocs / shard_count); generation is deterministic in d, so every
/// shard count partitions the identical corpus.
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

xfrag::StatusOr<xfrag::server::HttpResponse> PostQuery(
    uint16_t port, const std::string& body) {
  std::string request = xfrag::StrFormat(
      "POST /query HTTP/1.1\r\nHost: b\r\nContent-Length: %zu\r\n"
      "Connection: close\r\n\r\n",
      body.size());
  request += body;
  auto raw = xfrag::server::HttpRoundTrip("127.0.0.1", port, request);
  if (!raw.ok()) return raw.status();
  return xfrag::server::ParseHttpResponse(*raw);
}

/// Answer normalization for the exactness assertion: the timing and the
/// work "metrics" are the only fields a distributed evaluation may change.
std::string NormalizedBody(const std::string& body) {
  auto parsed = xfrag::json::Parse(body);
  if (!parsed.ok()) return body;
  parsed->Set("elapsed_ms", 0);
  parsed->Remove("metrics");
  return parsed->Dump();
}

/// Posts `body` to the router and the combined single node and compares the
/// normalized responses. A throughput row with a wrong answer is a bug, so
/// a mismatch aborts the benchmark (smoke mode included).
bool AssertExactAgainstCombined(uint16_t router_port, uint16_t combined_port,
                                const std::string& body, const char* label) {
  auto from_router = PostQuery(router_port, body);
  auto from_combined = PostQuery(combined_port, body);
  if (!from_router.ok() || from_router->status != 200 || !from_combined.ok() ||
      from_combined->status != 200) {
    std::fprintf(stderr, "exactness probe failed for %s\n", label);
    return false;
  }
  if (NormalizedBody(from_router->body) !=
      NormalizedBody(from_combined->body)) {
    std::fprintf(stderr,
                 "EXACTNESS VIOLATION (%s):\n  router:   %s\n  combined: %s\n",
                 label, from_router->body.c_str(),
                 from_combined->body.c_str());
    return false;
  }
  return true;
}

#ifndef XFRAG_BENCH_BUILD_TYPE
#define XFRAG_BENCH_BUILD_TYPE "unknown"
#endif

/// The commit the binary measures (see the header comment).
std::string CommitId() {
  std::string commit;
  if (FILE* git = ::popen("git describe --always --dirty --abbrev=40 "
                          "2>/dev/null",
                          "r")) {
    char buf[64];
    while (std::fgets(buf, sizeof(buf), git) != nullptr) commit += buf;
    ::pclose(git);
  }
  while (!commit.empty() && (commit.back() == '\n' || commit.back() == '\r')) {
    commit.pop_back();
  }
  return commit.empty() ? "unknown" : commit;
}

/// The provenance block every row carries.
xfrag::json::Value ProvenanceJson() {
  xfrag::json::Value provenance = xfrag::json::Value::Object();
  provenance.Set("commit", CommitId());
  provenance.Set("build_type", XFRAG_BENCH_BUILD_TYPE);
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  provenance.Set("cores", static_cast<uint64_t>(cores));
  provenance.Set("smoke", xfrag::bench::BenchSmokeMode());
  return provenance;
}

}  // namespace

int main(int argc, char** argv) {
  int requests_per_client = argc > 1 ? std::atoi(argv[1]) : 32;
  size_t total_nodes = argc > 2 ? static_cast<size_t>(std::atol(argv[2]))
                                : 100000;
  int clients = 8;
  if (xfrag::bench::BenchSmokeMode()) {
    requests_per_client = std::min(requests_per_client, 2);
    total_nodes = std::min<size_t>(total_nodes, 4000);
    clients = 2;
  }
  size_t nodes_per_doc = total_nodes / kDocs;

  Banner("router scatter-gather scaling and hedging ablation");

  const std::string full_body =
      R"({"terms":["kwone","kwtwo"],"filter":"size<=4","strategy":"pushdown",)"
      R"("max_answers":64})";
  const std::string topk_body = R"({"terms":["kwone","kwtwo"],"top_k":10})";

  TablePrinter table({"shards", "mode", "clients", "requests", "rps",
                      "mean ms", "p50 ms", "p95 ms", "p99 ms", "max ms",
                      "ok"});
  xfrag::json::Value records = xfrag::json::Value::Array();

  const xfrag::json::Value provenance = ProvenanceJson();

  // ---- Throughput scaling: 1 / 2 / 4 shards ------------------------------
  // Modes per shard count: full scatter and top-k. Every row is
  // exactness-checked against this combined single node.
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
  bool all_exact = true;

  struct ScalingMode {
    const char* name;
    const std::string* body;
    bool is_topk;
  };
  const ScalingMode modes[] = {
      {"full", &full_body, false},
      {"topk10", &topk_body, true},
  };

  for (size_t shard_count : {1u, 2u, 4u}) {
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

    for (const ScalingMode& mode : modes) {
      xfrag::router::RouterOptions router_options;
      router_options.workers = 16;
      router_options.queue_capacity = 1024;
      router_options.enable_hedging = false;  // scaling rows measure fan-out
      router_options.health_check_interval_ms = 0;
      xfrag::router::Router router(MapForPorts(ports, kDocs / shard_count),
                                   router_options);
      auto started = router.Start();
      if (!started.ok()) {
        std::fprintf(stderr, "%s\n", started.ToString().c_str());
        return 1;
      }

      // Warm every shard's fixed-point caches before measuring.
      (void)RunClosedLoop(router.port(), 1, 2, *mode.body);
      RunResult run = RunClosedLoop(router.port(), clients,
                                    requests_per_client, *mode.body);
      double rps = run.elapsed_s > 0
                       ? static_cast<double>(run.requests) / run.elapsed_s
                       : 0.0;
      // No row ships without proof: the router's answer for this row's
      // query must match the combined node exactly.
      bool exact = AssertExactAgainstCombined(
          router.port(), combined_node.port(), *mode.body, mode.name);
      all_exact = all_exact && exact;

      table.AddRow({Cell(uint64_t(shard_count)), mode.name,
                    Cell(uint64_t(clients)), Cell(uint64_t(run.requests)),
                    Cell(rps, 0), Cell(MeanMs(run)),
                    Cell(Percentile(run.latencies_ms, 50)),
                    Cell(Percentile(run.latencies_ms, 95)),
                    Cell(Percentile(run.latencies_ms, 99)),
                    run.latencies_ms.empty()
                        ? Cell(0.0)
                        : Cell(run.latencies_ms.back()),
                    Cell(uint64_t(run.ok))});
      xfrag::json::Value record = xfrag::json::Value::Object();
      record.Set("shards", static_cast<uint64_t>(shard_count));
      record.Set("mode", mode.name);
      record.Set("clients", int64_t{clients});
      record.Set("requests", int64_t{run.requests});
      record.Set("throughput_rps", rps);
      record.Set("latency_ms", LatencyJson(run));
      record.Set("ok", int64_t{run.ok});
      record.Set("hedging", false);
      record.Set("hedges_launched", router.hedges_launched());
      record.Set("hedges_won", router.hedges_won());
      record.Set("exact", exact);
      if (mode.is_topk) {
        record.Set("pairs_rejected_score", router.topk_pairs_rejected());
      }
      record.Set("provenance", provenance);
      records.Append(std::move(record));
      router.Shutdown();
    }
    for (auto& shard : shard_servers) shard->Shutdown();
  }
  combined_node.Shutdown();

  // ---- Hedging ablation: 2 shards, one behind a flaky proxy --------------
  // The proxied shard answers instantly most of the time but a random 2%
  // of connections stall. Without hedging those stalls land straight on the
  // p99; with the single bounded hedge the router re-asks the straggler on
  // a fresh (likely unstalled) connection after a p95-derived delay. Shard
  // keep-alive is off so every request re-rolls the stall dice. Two knobs
  // matter for honesty: the cheap full-mode body keeps shard service time
  // well under the stall (hedging targets network stragglers — a duplicate
  // of a compute-heavy request could never beat the original on the same
  // saturated cores), and the stall rate sits below the hedge percentile
  // (a straggler as common as p95 would push p95 itself up to the stall,
  // and the adaptive delay would fire only after the stall had passed).
  {
    auto collections = BuildShards(2, nodes_per_doc);
    std::vector<std::unique_ptr<xfrag::server::Server>> shard_servers;
    std::vector<uint16_t> real_ports;
    for (size_t s = 0; s < collections.size(); ++s) {
      xfrag::server::ServerOptions options;
      options.workers = 4;
      options.queue_capacity = 1024;
      if (s == 1) options.keep_alive = false;
      shard_servers.push_back(
          std::make_unique<xfrag::server::Server>(*collections[s], options));
      auto started = shard_servers.back()->Start();
      if (!started.ok()) {
        std::fprintf(stderr, "%s\n", started.ToString().c_str());
        return 1;
      }
      real_ports.push_back(shard_servers.back()->port());
    }
    int stall_ms = xfrag::bench::BenchSmokeMode() ? 40 : 150;
    FlakyProxy proxy(real_ports[1], /*stall_probability=*/0.02, stall_ms,
                     /*seed=*/0xf1a4);
    auto proxy_started = proxy.Start();
    if (!proxy_started.ok()) {
      std::fprintf(stderr, "%s\n", proxy_started.ToString().c_str());
      return 1;
    }

    for (bool hedging : {false, true}) {
      xfrag::router::RouterOptions router_options;
      router_options.workers = 16;
      router_options.queue_capacity = 1024;
      router_options.enable_hedging = hedging;
      router_options.hedge_default_delay_ms = stall_ms / 5;
      router_options.health_check_interval_ms = 0;
      xfrag::router::Router router(
          MapForPorts({real_ports[0], proxy.port()}, kDocs / 2),
          router_options);
      auto started = router.Start();
      if (!started.ok()) {
        std::fprintf(stderr, "%s\n", started.ToString().c_str());
        return 1;
      }
      (void)RunClosedLoop(router.port(), 1, 2, full_body);
      RunResult run =
          RunClosedLoop(router.port(), clients, requests_per_client,
                        full_body);
      double rps = run.elapsed_s > 0
                       ? static_cast<double>(run.requests) / run.elapsed_s
                       : 0.0;
      std::string mode =
          hedging ? std::string("flaky+hedge") : std::string("flaky");
      table.AddRow({Cell(uint64_t(2)), mode, Cell(uint64_t(clients)),
                    Cell(uint64_t(run.requests)), Cell(rps, 0),
                    Cell(MeanMs(run)),
                    Cell(Percentile(run.latencies_ms, 50)),
                    Cell(Percentile(run.latencies_ms, 95)),
                    Cell(Percentile(run.latencies_ms, 99)),
                    run.latencies_ms.empty()
                        ? Cell(0.0)
                        : Cell(run.latencies_ms.back()),
                    Cell(uint64_t(run.ok))});
      xfrag::json::Value record = xfrag::json::Value::Object();
      record.Set("shards", uint64_t{2});
      record.Set("mode", mode);
      record.Set("clients", int64_t{clients});
      record.Set("requests", int64_t{run.requests});
      record.Set("throughput_rps", rps);
      record.Set("latency_ms", LatencyJson(run));
      record.Set("ok", int64_t{run.ok});
      record.Set("hedging", hedging);
      record.Set("hedges_launched", router.hedges_launched());
      record.Set("hedges_won", router.hedges_won());
      record.Set("provenance", provenance);
      records.Append(std::move(record));
      router.Shutdown();
    }
    proxy.Stop();
    for (auto& shard : shard_servers) shard->Shutdown();
  }

  table.Print();
  const std::string path = xfrag::bench::BenchOutputPath("BENCH_router.json");
  std::ofstream out(path);
  out << records.Dump(2) << "\n";
  std::printf("wrote %s\n", path.c_str());
  if (!all_exact) {
    std::fprintf(stderr,
                 "bench_router: scaling row(s) failed the exactness check\n");
    return 1;
  }
  return 0;
}

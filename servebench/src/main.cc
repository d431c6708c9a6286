// servebench — the xfrag serving benchmark.
//
//   servebench prepare --seed N --data DIR
//       Generates the seeded corpus and writes DIR/full.snap (every
//       document) and DIR/shard0.snap, DIR/shard1.snap (the two halves).
//
//   servebench run --workload W --seed N --seconds S --trace 0|1 --data DIR
//                  [--out DIR] [--commit C] [--source-digest D]
//       Serves the workload's seeded traffic through the in-process stack
//       (snapshot open → Server / Router → QueryService → engine → render),
//       checks every answer against a reference QueryService over the same
//       snapshot, and prints the metrics. The last stdout line is one JSON
//       object {"correct", "attempted", "failed", "metrics"}: the end-to-end
//       metrics with --trace 0, the per-layer metrics with --trace 1.
//
// Load model: a closed loop of nproc / 2 client threads, one keep-alive
// connection each (the library's router::BackendClient with a pool of one,
// the client xfrag_router reaches its shards with). Every caller of xfragd
// (the router, xfrag_client, batch clients) waits for its reply, which is
// what a closed loop models. The end-to-end timings are scaled to a
// reference machine speed measured between slices (Calibrator). See
// README.md for the workloads and the metric → layer → workload table.

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>
#include <csignal>
#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "collection/collection.h"
#include "collection/collection_engine.h"
#include "common/json.h"
#include "common/strings.h"
#include "common/version.h"
#include "harness.h"
#include "lang/lower.h"
#include "query/query.h"
#include "router/backend_client.h"
#include "router/merge.h"
#include "router/router.h"
#include "server/server.h"
#include "server/service.h"
#include "storage/snapshot.h"
#include "workload.h"

namespace servebench {
namespace {

using Clock = std::chrono::steady_clock;
using xfrag::json::Value;

constexpr int kSetupRepeats = 15;
constexpr int kReloadsPerRun = 10;
// Combined machine speed of the 4-vCPU Xeon host the benchmark was tuned
// on. The end-to-end timings are reported as if every slice had run at this
// speed; the constant only fixes the scale the figures read in.
constexpr double kReferenceSpeed = 10000.0;
// How long each calibration loop runs after a slice / after a set-up.
constexpr int64_t kSliceCalibrationNs = 100'000'000;
constexpr int64_t kSetupCalibrationNs = 50'000'000;
constexpr double kReloadWindowSeconds = 2.75;
// The measured window runs as slices of about this length. After each one
// the clients pause while the calibrator measures the machine; throughput
// and the tail percentile are read per slice and reported as the median
// slice, so a transient stall of the shared machine moves one slice, not
// the run.
constexpr double kSliceSeconds = 2.0;
// The untimed warm-up is a fixed number of exchanges per client (bounded
// in time), so the memory high-water mark read after it reflects a fixed
// amount of work whatever the program's speed.
constexpr double kWarmupMaxSeconds = 15.0;
constexpr int kExchangeTimeoutMs = 10000;
// In the traced phase each client replays at most one exchange per this
// interval, which bounds the span log on fast workloads (serve-hot) while
// slower ones (engine-cold, router-topk) replay nearly every exchange.
constexpr int64_t kTraceIntervalNs = 5'000'000;
constexpr size_t kShards = 2;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double MsBetween(int64_t a, int64_t b) { return (b - a) / 1e6; }

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "servebench: %s\n", message.c_str());
  std::exit(2);
}

#ifndef SERVEBENCH_BUILD_TYPE
#define SERVEBENCH_BUILD_TYPE "unknown"
#endif

double CpuSeconds(const rusage& u) {
  return u.ru_utime.tv_sec + u.ru_utime.tv_usec / 1e6 + u.ru_stime.tv_sec +
         u.ru_stime.tv_usec / 1e6;
}

// ---------------------------------------------------------------------------
// How fast the machine runs right now, measured by two fixed loops of the
// harness's own (no library call): one copy per core of a compute loop
// that sorts 4096 random words and scatters them into a 4 MiB table (past
// the private caches, so it sees cache and memory contention too, and a
// core the host takes away lowers the mean), and one-byte round trips
// between two threads over a loopback TCP connection (the wake-ups and
// socket calls every exchange makes). They run only while no exchange is
// in flight, so the program cannot slow them.

struct MachineSpeed {
  double compute = 0.0;  // compute loop units per second (thread mean)
  double trips = 0.0;    // loopback round trips per second
  /// The geometric mean of the two: the serving stack does both.
  double combined() const { return std::sqrt(compute * trips); }
};

class Calibrator {
 public:
  explicit Calibrator(unsigned threads)
      : tables_(threads, std::vector<uint64_t>(kTableWords, 1)) {}

  /// Its tables, resident from construction on.
  double table_mb() const {
    return tables_.size() * kTableWords * sizeof(uint64_t) / (1024.0 * 1024.0);
  }

  /// Runs each loop for `ns`.
  MachineSpeed Measure(int64_t ns) {
    MachineSpeed out;
    out.compute = Compute(ns);
    out.trips = RoundTrips(ns);
    return out;
  }

 private:
  static constexpr size_t kTableWords = size_t{1} << 19;

  double Compute(int64_t ns) {
    std::vector<double> rates(tables_.size());
    std::vector<std::thread> workers;
    for (size_t t = 0; t < tables_.size(); ++t) {
      workers.emplace_back([this, &rates, t, ns] {
        Rng rng(t + 1);
        std::vector<uint64_t> words(4096);
        std::vector<uint64_t>& table = tables_[t];
        uint64_t units = 0;
        const int64_t start = NowNs();
        int64_t now = start;
        while (now - start < ns) {
          for (auto& w : words) w = rng.Next();
          std::sort(words.begin(), words.end());
          for (size_t i = 0; i < words.size(); ++i) {
            table[words[i] % kTableWords] += i;
          }
          ++units;
          now = NowNs();
        }
        rates[t] = units / ((now - start) / 1e9);
      });
    }
    for (auto& w : workers) w.join();
    double sum = 0.0;
    for (double r : rates) sum += r;
    return sum / static_cast<double>(rates.size());
  }

  static double RoundTrips(int64_t ns) {
    int listener = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    socklen_t len = sizeof(addr);
    if (listener < 0 ||
        ::bind(listener, reinterpret_cast<sockaddr*>(&addr), len) != 0 ||
        ::listen(listener, 1) != 0 ||
        ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len) !=
            0) {
      Die("calibrator: cannot listen on loopback");
    }
    int a = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (a < 0 ||
        ::connect(a, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      Die("calibrator: cannot connect on loopback");
    }
    int b = ::accept4(listener, nullptr, nullptr, SOCK_CLOEXEC);
    if (b < 0) Die("calibrator: cannot accept on loopback");
    int one = 1;
    ::setsockopt(a, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ::setsockopt(b, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::thread echo([b] {
      char c;
      while (::read(b, &c, 1) == 1 && ::write(b, &c, 1) == 1) {
      }
    });
    uint64_t trips = 0;
    const int64_t start = NowNs();
    int64_t now = start;
    char c = 'x';
    while (now - start < ns && ::write(a, &c, 1) == 1 && ::read(a, &c, 1) == 1) {
      ++trips;
      now = NowNs();
    }
    ::shutdown(a, SHUT_RDWR);
    echo.join();
    ::close(a);
    ::close(b);
    ::close(listener);
    return trips / ((now - start) / 1e9);
  }

  std::vector<std::vector<uint64_t>> tables_;
};

// ---------------------------------------------------------------------------
// One keep-alive connection to 127.0.0.1:port. Not thread-safe: one client
// thread owns one instance.

struct HttpReply {
  /// kOk when a complete response arrived (any status); kTimeout or
  /// kTransport otherwise.
  Outcome transport = Outcome::kTransport;
  int status = 0;
  std::string body;
};

class Connection {
 public:
  explicit Connection(uint16_t port)
      : client_("127.0.0.1", port, ClientOptions()) {}

  HttpReply Exchange(std::string_view method, std::string_view target,
                     std::string_view body) {
    auto response =
        client_.Call(client_.BuildRequest(method, target, body), 0, nullptr);
    if (!response.ok()) return HttpReply{TransportOutcome(response.status()), 0, {}};
    return HttpReply{Outcome::kOk, response->status, std::move(response->body)};
  }

 private:
  static xfrag::router::BackendClient::Options ClientOptions() {
    xfrag::router::BackendClient::Options options;
    options.io_timeout_ms = kExchangeTimeoutMs;
    options.max_pool_size = 1;
    return options;
  }

  xfrag::router::BackendClient client_;
};

// ---------------------------------------------------------------------------
// Daemon configuration: the defaults xfragd_main and xfrag_router_main run
// with (xfragd turns the result cache on and bounds the fixed-point caches).

xfrag::server::ServerOptions DaemonOptions() {
  xfrag::server::ServerOptions options;
  options.port = 0;
  options.service.result_cache_bytes = 32u << 20;
  options.service.fixed_point_cache.max_entries = 4096;
  options.service.fixed_point_cache.max_bytes = 64u << 20;
  return options;
}

xfrag::router::RouterOptions RouterDaemonOptions() {
  xfrag::router::RouterOptions options;
  options.port = 0;
  return options;
}

Value DaemonConfigJson() {
  xfrag::server::ServerOptions d = DaemonOptions();
  Value daemon = Value::Object();
  daemon.Set("workers", int64_t{d.workers});
  daemon.Set("queue_capacity", int64_t{d.queue_capacity});
  daemon.Set("request_timeout_ms", int64_t{d.request_timeout_ms});
  daemon.Set("keep_alive", d.keep_alive);
  daemon.Set("max_requests_per_connection",
             int64_t{d.max_requests_per_connection});
  daemon.Set("validate_snapshot_on_reload", d.validate_snapshot_on_reload);
  daemon.Set("result_cache_bytes",
             static_cast<uint64_t>(d.service.result_cache_bytes));
  daemon.Set("fp_cache_max_entries",
             static_cast<uint64_t>(d.service.fixed_point_cache.max_entries));
  daemon.Set("fp_cache_max_bytes",
             static_cast<uint64_t>(d.service.fixed_point_cache.max_bytes));
  daemon.Set("batch_max_items",
             static_cast<uint64_t>(d.service.batch_max_items));
  daemon.Set("batch_parallelism",
             static_cast<uint64_t>(d.service.batch_parallelism));
  daemon.Set("cross_document_floor", d.service.enable_cross_document_floor);
  xfrag::router::RouterOptions r = RouterDaemonOptions();
  Value router = Value::Object();
  router.Set("workers", int64_t{r.workers});
  router.Set("queue_capacity", int64_t{r.queue_capacity});
  router.Set("enable_hedging", r.enable_hedging);
  router.Set("enable_bound_exchange", r.enable_bound_exchange);
  router.Set("probe_documents", int64_t{r.probe_documents});
  router.Set("health_check_interval_ms", int64_t{r.health_check_interval_ms});
  router.Set("backend_max_pool_size",
             static_cast<uint64_t>(r.backend.max_pool_size));
  Value out = Value::Object();
  out.Set("xfragd", std::move(daemon));
  out.Set("xfrag_router", std::move(router));
  out.Set("snapshot_open_validated", true);
  return out;
}

// ---------------------------------------------------------------------------
// Topology: the servers of one workload.

struct Topology {
  std::vector<std::unique_ptr<xfrag::server::Server>> daemons;
  std::vector<uint16_t> daemon_ports;
  // Declared after the daemons, so it shuts down before its shards do.
  std::unique_ptr<xfrag::router::Router> router;
  uint16_t front_port = 0;
  double setup_s = 0.0;
  double open_ms = 0.0;
};

std::unique_ptr<Topology> StartTopology(
    const std::vector<std::string>& snapshots, bool with_router,
    const std::vector<size_t>& doc_counts) {
  auto topology = std::make_unique<Topology>();
  int64_t start = NowNs();
  for (const std::string& path : snapshots) {
    xfrag::storage::SnapshotOpenOptions open;
    open.validate_structure = true;
    int64_t open_start = NowNs();
    auto loaded = xfrag::storage::LoadCollectionFromSnapshot(path, open);
    topology->open_ms += MsBetween(open_start, NowNs());
    if (!loaded.ok()) Die(loaded.status().ToString());
    auto server = std::make_unique<xfrag::server::Server>(
        path, std::move(*loaded), DaemonOptions());
    auto started = server->Start();
    if (!started.ok()) Die(started.ToString());
    topology->daemon_ports.push_back(server->port());
    topology->daemons.push_back(std::move(server));
  }
  topology->front_port = topology->daemon_ports.front();
  if (with_router) {
    xfrag::router::ShardMap map;
    size_t begin = 0;
    for (size_t s = 0; s < topology->daemon_ports.size(); ++s) {
      xfrag::router::ShardInfo info;
      info.host = "127.0.0.1";
      info.port = topology->daemon_ports[s];
      info.doc_begin = begin;
      info.doc_count = doc_counts[s];
      begin += doc_counts[s];
      map.shards.push_back(std::move(info));
    }
    map.total_documents = begin;
    topology->router = std::make_unique<xfrag::router::Router>(
        std::move(map), RouterDaemonOptions());
    auto started = topology->router->Start();
    if (!started.ok()) Die(started.ToString());
    topology->front_port = topology->router->port();
  }
  // The servers accept once a /healthz through the front door answers.
  Connection probe(topology->front_port);
  HttpReply reply = probe.Exchange("GET", "/healthz", "");
  if (reply.transport != Outcome::kOk || reply.status != 200) {
    Die("front door did not answer /healthz");
  }
  topology->setup_s = (NowNs() - start) / 1e9;
  return topology;
}

// ---------------------------------------------------------------------------
// Counters read from GET /metrics. Service-level counters (result and
// fixed-point caches) restart with every reload epoch, so the reloading
// client folds each epoch's final values in just before the swap.

struct DaemonCounters {
  uint64_t rc_hits = 0, rc_misses = 0, rc_evictions = 0;
  uint64_t fp_hits = 0, fp_misses = 0;
  uint64_t status_503 = 0;
};

uint64_t CounterAt(const Value& root, std::initializer_list<const char*> path) {
  const Value* node = &root;
  for (const char* key : path) {
    node = node->Find(key);
    if (node == nullptr) return 0;
  }
  return node->is_number() ? static_cast<uint64_t>(node->AsInt()) : 0;
}

DaemonCounters ReadDaemonCounters(Connection& client) {
  DaemonCounters out;
  HttpReply reply = client.Exchange("GET", "/metrics", "");
  if (reply.transport != Outcome::kOk || reply.status != 200) return out;
  auto parsed = xfrag::json::Parse(reply.body);
  if (!parsed.ok()) return out;
  out.rc_hits = CounterAt(*parsed, {"result_cache", "hits"});
  out.rc_misses = CounterAt(*parsed, {"result_cache", "misses"});
  out.rc_evictions = CounterAt(*parsed, {"result_cache", "evictions"});
  out.fp_hits = CounterAt(*parsed, {"fixed_point_cache", "hits"});
  out.fp_misses = CounterAt(*parsed, {"fixed_point_cache", "misses"});
  out.status_503 = CounterAt(*parsed, {"requests", "by_status", "503"});
  return out;
}

struct RouterCounters {
  uint64_t threshold_updates_sent = 0, fallbacks = 0, hedges = 0;
  uint64_t pool_connects = 0, pool_reuses = 0, status_503 = 0;
};

RouterCounters ReadRouterCounters(const xfrag::router::Router* router,
                                  uint16_t port) {
  RouterCounters out;
  if (router == nullptr) return out;
  out.threshold_updates_sent = router->threshold_updates_sent();
  out.fallbacks = router->bound_exchange_fallbacks();
  out.hedges = router->hedges_launched();
  Connection client(port);
  HttpReply reply = client.Exchange("GET", "/metrics", "");
  if (reply.transport != Outcome::kOk || reply.status != 200) return out;
  auto parsed = xfrag::json::Parse(reply.body);
  if (!parsed.ok()) return out;
  out.status_503 = CounterAt(*parsed, {"requests", "by_status", "503"});
  const Value* shards = parsed->Find("router");
  shards = shards != nullptr ? shards->Find("shards") : nullptr;
  if (shards != nullptr && shards->is_array()) {
    for (const Value& shard : shards->items()) {
      out.pool_connects += CounterAt(shard, {"pool", "connects"});
      out.pool_reuses += CounterAt(shard, {"pool", "reuses"});
    }
  }
  return out;
}

// Running totals of the epoch-scoped counters of one daemon.
struct EpochTotals {
  std::mutex mutex;
  DaemonCounters total;
  uint64_t baseline_503 = 0;

  void AddEpoch(const DaemonCounters& epoch_end) {
    std::lock_guard<std::mutex> lock(mutex);
    total.rc_hits += epoch_end.rc_hits;
    total.rc_misses += epoch_end.rc_misses;
    total.rc_evictions += epoch_end.rc_evictions;
    total.fp_hits += epoch_end.fp_hits;
    total.fp_misses += epoch_end.fp_misses;
    total.status_503 = epoch_end.status_503;
  }
  void SubtractBaseline(const DaemonCounters& baseline) {
    std::lock_guard<std::mutex> lock(mutex);
    total.rc_hits -= baseline.rc_hits;
    total.rc_misses -= baseline.rc_misses;
    total.rc_evictions -= baseline.rc_evictions;
    total.fp_hits -= baseline.fp_hits;
    total.fp_misses -= baseline.fp_misses;
    baseline_503 = baseline.status_503;
  }
};

// ---------------------------------------------------------------------------
// Replicas: QueryService instances with the daemon's options over their own
// open of the same snapshot. The traced run replays each exchange into them,
// so the replay never warms a cache the live exchange uses.

struct Replica {
  xfrag::storage::SnapshotCollection snapshot;
  std::unique_ptr<xfrag::server::QueryService> service;
  size_t doc_base = 0;
};

std::unique_ptr<Replica> OpenReplica(const std::string& path,
                                     size_t doc_base) {
  auto loaded = xfrag::storage::LoadCollectionFromSnapshot(path);
  if (!loaded.ok()) Die(loaded.status().ToString());
  auto replica = std::make_unique<Replica>();
  replica->snapshot = std::move(*loaded);
  replica->service = std::make_unique<xfrag::server::QueryService>(
      replica->snapshot.collection, DaemonOptions().service);
  replica->doc_base = doc_base;
  return replica;
}

// ---------------------------------------------------------------------------
// Per-exchange records.

struct Variant {
  std::string request_body;
  std::string response;  // elapsed_ms rewritten to 0
  Request::Kind kind = Request::Kind::kQuery;
};

enum class ExchangeKind : uint8_t { kQuery, kBatch, kReload };

struct ExchangeRecord {
  ExchangeKind kind = ExchangeKind::kQuery;
  // 0 the (untraced) measured window, 1 the traced window of a traced run,
  // last the reload window of the engine workloads.
  uint8_t phase = 0;
  bool topk = false;
  bool xql = false;
  Outcome transport = Outcome::kTransport;
  int status = 0;
  uint32_t queries = 0;
  int32_t variant = -1;
  double latency_ms = 0.0;
  double server_elapsed_ms = -1.0;
  size_t response_bytes = 0;
  int64_t end_ns = 0;
};

// An exchange of the warm-up or the untraced half that the replicas have yet
// to see, or (reload >= 0) the cache invalidation of that daemon's reload.
struct Pending {
  Request request;
  int reload = -1;
};

struct ClientLog {
  std::vector<ExchangeRecord> exchanges;
  /// Filled only in a traced run, outside its traced phase.
  std::vector<Pending> pending;
  /// Replica HandleQuery time in the traced phase, all of it and the part
  /// spent on result-cache misses (the engine ran).
  int64_t handle_ns = 0;
  int64_t miss_ns = 0;
  std::vector<Variant> variants;
  std::unordered_map<std::string, int32_t> variant_index;
  std::vector<Span> spans;
  uint64_t next_span = 1;
};

// One replayed HandleQuery / HandleQueryBatch call on a replica.
struct ReplicaCall {
  xfrag::server::QueryOutcome outcome;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  bool evaluated = false;  // a /query that missed the result cache
};

// What the oracle learned about one variant.
struct VariantVerdict {
  Outcome outcome = Outcome::kOk;
  uint32_t evaluated_items = 0;  // non-cache-hit 200 query bodies
  uint64_t answers = 0;
  uint64_t docs_evaluated = 0, docs_skipped = 0;
  uint64_t fragment_joins = 0, pairs_considered = 0;
  uint64_t pairs_rejected_summary = 0, pairs_rejected_score = 0;
};

// ---------------------------------------------------------------------------
// The run.

struct RunConfig {
  Workload workload = Workload::kEngineCold;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string data_dir;
  std::string out_dir;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

// A calibrated slice of the measured window.
struct Slice {
  int64_t start_ns = 0;
  int64_t end_ns = 0;  // the last exchange of the slice ended by then
  MachineSpeed speed;  // measured right after it
};

struct Phase {
  /// Time the clients ran, calibration pauses excluded, and the process
  /// CPU time spent meanwhile.
  double active_s = 0.0;
  double cpu_s = 0.0;
  /// The measured phase only; empty otherwise.
  std::vector<Slice> slices;
};

class Bench {
 public:
  explicit Bench(RunConfig config)
      : config_(std::move(config)),
        source_(config_.workload, config_.seed) {}

  int Run();

 private:
  bool routed() const { return config_.workload == Workload::kRouterTopK; }
  std::vector<std::string> ServedSnapshots() const;
  void RunPhase(int phase_index, double seconds, int reloads, bool traced,
                size_t max_exchanges, size_t slices,
                std::vector<ClientLog>* logs, Phase* phase);
  void ClientLoop(int client, int phase_index, int64_t deadline_ns,
                  const std::vector<int64_t>& reload_at, bool traced,
                  size_t max_exchanges, ClientLog* log);
  void Reload(ClientLog* log, int phase_index, bool traced,
              std::vector<std::unique_ptr<Connection>>* control);
  std::vector<ReplicaCall> CallReplicas(const Request& request,
                                        ClientLog* log);
  void CatchUpReplicas(std::vector<ClientLog>* logs);
  void Replay(const Request& request, const ExchangeRecord& record,
              int64_t start_ns, ClientLog* log);
  std::vector<VariantVerdict> Verify(const std::vector<ClientLog>& logs);

  RunConfig config_;
  RequestSource source_;
  std::unique_ptr<Topology> topology_;
  std::unique_ptr<Calibrator> calibrator_;
  std::vector<std::unique_ptr<EpochTotals>> epochs_;
  std::vector<std::unique_ptr<Replica>> replicas_;
  std::atomic<uint64_t> reload_counter_{0};
  std::atomic<uint64_t> request_ids_{1};
  size_t total_documents_ = 0;
  unsigned nproc_ = 1;
  unsigned clients_ = 1;
  /// Per-slice qps and machine speed of phase 0 (provenance record only).
  Value slices_json_ = Value::Array();
  /// Index of each client log's first variant in Verify()'s result.
  std::vector<size_t> verdict_offsets_;
};

std::vector<std::string> Bench::ServedSnapshots() const {
  if (!routed()) return {config_.data_dir + "/full.snap"};
  std::vector<std::string> out;
  for (size_t s = 0; s < kShards; ++s) {
    out.push_back(xfrag::StrFormat("%s/shard%zu.snap", config_.data_dir.c_str(),
                                   s));
  }
  return out;
}

void Bench::Reload(ClientLog* log, int phase_index, bool traced,
                   std::vector<std::unique_ptr<Connection>>* control) {
  size_t d = reload_counter_.fetch_add(1) % topology_->daemons.size();
  epochs_[d]->AddEpoch(ReadDaemonCounters(*(*control)[d]));
  ExchangeRecord record;
  record.kind = ExchangeKind::kReload;
  record.phase = static_cast<uint8_t>(phase_index);
  int64_t start = NowNs();
  HttpReply reply = (*control)[d]->Exchange("POST", "/admin/reload", "{}");
  record.end_ns = NowNs();
  record.latency_ms = MsBetween(start, record.end_ns);
  record.transport = reply.transport;
  record.status = reply.status;
  log->exchanges.push_back(record);
  if (traced) {
    replicas_[d]->service->InvalidateCaches();
  } else if (!replicas_.empty()) {
    log->pending.push_back(Pending{{}, static_cast<int>(d)});
  }
}

void Bench::ClientLoop(int client, int phase_index, int64_t deadline_ns,
                       const std::vector<int64_t>& reload_at, bool traced,
                       size_t max_exchanges, ClientLog* log) {
  Connection conn(topology_->front_port);
  std::vector<std::unique_ptr<Connection>> control;
  if (client == 0) {
    for (uint16_t port : topology_->daemon_ports) {
      control.push_back(std::make_unique<Connection>(port));
    }
  }
  size_t next_reload = 0;
  int64_t next_trace_ns = 0;
  while (true) {
    int64_t now = NowNs();
    if (now >= deadline_ns || log->exchanges.size() >= max_exchanges) break;
    if (client == 0 && next_reload < reload_at.size() &&
        now >= reload_at[next_reload]) {
      ++next_reload;
      Reload(log, phase_index, traced, &control);
      continue;
    }
    Request request = source_.Next();
    ExchangeRecord record;
    record.kind = request.kind == Request::Kind::kBatch ? ExchangeKind::kBatch
                                                        : ExchangeKind::kQuery;
    record.phase = static_cast<uint8_t>(phase_index);
    record.topk = request.topk;
    record.xql = request.xql;
    record.queries = request.queries;
    int64_t start = NowNs();
    HttpReply reply = conn.Exchange("POST", request.target(), request.body);
    record.end_ns = NowNs();
    record.latency_ms = MsBetween(start, record.end_ns);
    record.transport = reply.transport;
    record.status = reply.status;
    record.response_bytes = reply.body.size();
    if (reply.transport == Outcome::kOk && reply.status == 200) {
      std::string stripped =
          StripElapsed(reply.body, &record.server_elapsed_ms);
      std::string key = request.body;
      key.push_back('\0');
      key += stripped;
      auto [it, inserted] = log->variant_index.emplace(
          std::move(key), static_cast<int32_t>(log->variants.size()));
      if (inserted) {
        log->variants.push_back(
            Variant{request.body, std::move(stripped), request.kind});
      }
      record.variant = it->second;
    }
    log->exchanges.push_back(record);
    // Every answered exchange reaches the replicas, so their caches evolve
    // as the daemon's do: in the traced phase at once (only sampled ones
    // record spans), before it through CatchUpReplicas, untimed.
    if (traced && start >= next_trace_ns) {
      next_trace_ns = start + kTraceIntervalNs;
      Replay(request, record, start, log);
    } else if (traced && record.variant >= 0) {
      (void)CallReplicas(request, log);
    } else if (!replicas_.empty() && record.variant >= 0) {
      log->pending.push_back(Pending{std::move(request)});
    }
  }
}

// Applies what the replicas missed since the last catch-up, each client's
// exchanges in order on a thread of its own, as the clients sent them.
void Bench::CatchUpReplicas(std::vector<ClientLog>* logs) {
  std::vector<std::thread> threads;
  for (ClientLog& log : *logs) {
    threads.emplace_back([this, &log] {
      for (const Pending& p : log.pending) {
        if (p.reload >= 0) {
          replicas_[p.reload]->service->InvalidateCaches();
          continue;
        }
        for (auto& replica : replicas_) {
          (void)(p.request.kind == Request::Kind::kBatch
                     ? replica->service->HandleQueryBatch(p.request.body)
                     : replica->service->HandleQuery(p.request.body));
        }
      }
      log.pending.clear();
      log.pending.shrink_to_fit();
    });
  }
  for (auto& t : threads) t.join();
}

// Runs the clients for `seconds` of active time. With `slices` > 0 the time
// is cut into that many slices, and the calibrator measures the machine
// after each one while the clients wait. Reloads are spread evenly over the
// active time.
void Bench::RunPhase(int phase_index, double seconds, int reloads,
                     bool traced, size_t max_exchanges, size_t slices,
                     std::vector<ClientLog>* logs, Phase* phase) {
  const size_t stretches = std::max<size_t>(1, slices);
  const int64_t length_ns = static_cast<int64_t>(seconds * 1e9);
  const int64_t stretch_ns = length_ns / static_cast<int64_t>(stretches);
  for (size_t k = 0; k < stretches; ++k) {
    rusage usage_start{}, usage_end{};
    getrusage(RUSAGE_SELF, &usage_start);
    const int64_t start = NowNs();
    const int64_t offset = stretch_ns * static_cast<int64_t>(k);
    std::vector<int64_t> reload_at;
    for (int i = 1; i <= reloads; ++i) {
      int64_t at = length_ns * i / (reloads + 1) - offset;
      if (at >= 0 && at < stretch_ns) reload_at.push_back(start + at);
    }
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients_; ++c) {
      threads.emplace_back([&, c] {
        ClientLoop(static_cast<int>(c), phase_index, start + stretch_ns,
                   reload_at, traced, max_exchanges, &(*logs)[c]);
      });
    }
    for (auto& t : threads) t.join();
    const int64_t end = NowNs();
    getrusage(RUSAGE_SELF, &usage_end);
    phase->active_s += (end - start) / 1e9;
    phase->cpu_s += CpuSeconds(usage_end) - CpuSeconds(usage_start);
    if (slices > 0) {
      phase->slices.push_back(
          Slice{start, end, calibrator_->Measure(kSliceCalibrationNs)});
    }
  }
}

// ---------------------------------------------------------------------------
// Traced replay of one exchange into the layers, on the replicas.

struct ReplayQuery {
  bool canonical = false;
  xfrag::query::Query query;
  xfrag::query::Strategy strategy = xfrag::query::Strategy::kAuto;
  int64_t top_k = -1;
  int64_t max_answers = -1;
};

class SpanScope {
 public:
  SpanScope(ClientLog* log, std::string name, uint64_t parent,
            uint64_t request)
      : log_(log) {
    span_.id = log->next_span++;
    span_.parent = parent;
    span_.request = request;
    span_.name = std::move(name);
    span_.start_ns = NowNs();
  }
  ~SpanScope() { Finish(); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  uint64_t id() const { return span_.id; }
  /// Ends the span now (the destructor does it otherwise).
  void Finish() {
    if (!done_) {
      span_.end_ns = NowNs();
      log_->spans.push_back(span_);
      done_ = true;
    }
  }

 private:
  ClientLog* log_;
  Span span_;
  bool done_ = false;
};

void AddSpan(ClientLog* log, const char* name, uint64_t parent,
             uint64_t request, int64_t start_ns, int64_t end_ns) {
  Span span;
  span.id = log->next_span++;
  span.parent = parent;
  span.request = request;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  log->spans.push_back(std::move(span));
}

// Decodes a /query body the way a replay needs it: the canonical query for
// CollectionEngine::Evaluate plus the merge plan fields. "q" bodies go
// through lang::ParseAndLower under a lang.lower span.
ReplayQuery DecodeForReplay(const Value& body, ClientLog* log,
                            uint64_t parent, uint64_t request) {
  ReplayQuery out;
  if (const Value* q = body.Find("q"); q != nullptr && q->is_string()) {
    SpanScope span(log, "lang.lower", parent, request);
    auto lowered = xfrag::lang::ParseAndLower(q->AsString(), nullptr);
    span.Finish();
    if (!lowered.ok()) return out;
    out.canonical = lowered->canonical;
    out.query = lowered->canonical_query;
    out.strategy = lowered->strategy;
    out.top_k = lowered->top_k;
    out.max_answers = lowered->limit;
    return out;
  }
  const Value* terms = body.Find("terms");
  if (terms == nullptr || !terms->is_array()) return out;
  for (const Value& t : terms->items()) out.query.terms.push_back(t.AsString());
  if (const Value* f = body.Find("filter"); f != nullptr) {
    auto filter = xfrag::query::ParseFilterExpression(f->AsString());
    if (!filter.ok()) return out;
    out.query.filter = *filter;
  }
  if (const Value* s = body.Find("strategy"); s != nullptr) {
    auto strategy = xfrag::server::ParseStrategyName(s->AsString());
    if (!strategy.ok()) return out;
    out.strategy = *strategy;
  }
  if (const Value* k = body.Find("top_k"); k != nullptr) out.top_k = k->AsInt();
  if (const Value* m = body.Find("max_answers"); m != nullptr) {
    out.max_answers = m->AsInt();
  }
  out.canonical = true;
  return out;
}

std::vector<ReplicaCall> Bench::CallReplicas(const Request& request,
                                             ClientLog* log) {
  std::vector<ReplicaCall> calls;
  for (auto& replica : replicas_) {
    ReplicaCall call;
    call.start_ns = NowNs();
    call.outcome = request.kind == Request::Kind::kBatch
                       ? replica->service->HandleQueryBatch(request.body)
                       : replica->service->HandleQuery(request.body);
    call.end_ns = NowNs();
    if (request.kind == Request::Kind::kQuery) {
      call.evaluated =
          call.outcome.http_status == 200 && !IsCacheHit(call.outcome.body);
      log->handle_ns += call.end_ns - call.start_ns;
      if (call.evaluated) log->miss_ns += call.end_ns - call.start_ns;
    }
    calls.push_back(std::move(call));
  }
  return calls;
}

void Bench::Replay(const Request& request, const ExchangeRecord& record,
                   int64_t start_ns, ClientLog* log) {
  const uint64_t rid = request_ids_.fetch_add(1);
  // The exchange as the client saw it, with the server-reported
  // elapsed_ms laid at its end: the remainder is HTTP, queueing and
  // connection handling (server.http.self_ms).
  uint64_t exchange_id = log->next_span;
  AddSpan(log, "exchange", 0, rid, start_ns, record.end_ns);
  if (record.server_elapsed_ms >= 0) {
    AddSpan(log, "server.elapsed", exchange_id, rid,
            record.end_ns -
                static_cast<int64_t>(record.server_elapsed_ms * 1e6),
            record.end_ns);
  }
  if (record.transport != Outcome::kOk || record.status != 200) return;

  SpanScope replay(log, "replay", 0, rid);
  Value body;
  {
    SpanScope span(log, "json.parse", replay.id(), rid);
    auto parsed = xfrag::json::Parse(request.body);
    if (!parsed.ok()) return;
    body = std::move(*parsed);
  }
  if (request.kind == Request::Kind::kBatch) {
    for (const Value& item : body.items()) {
      if (item.Find("q") != nullptr) {
        (void)DecodeForReplay(item, log, replay.id(), rid);
      }
    }
    for (ReplicaCall& call : CallReplicas(request, log)) {
      AddSpan(log, "service.batch", replay.id(), rid, call.start_ns,
              call.end_ns);
      SpanScope render(log, "json.render", replay.id(), rid);
      std::string rendered = call.outcome.body.Dump();
    }
    return;
  }

  ReplayQuery decoded = DecodeForReplay(body, log, replay.id(), rid);
  std::vector<xfrag::router::ShardBody> shard_bodies;
  std::vector<int64_t> shard_ns;
  std::vector<ReplicaCall> calls = CallReplicas(request, log);
  for (size_t s = 0; s < calls.size(); ++s) {
    Replica& replica = *replicas_[s];
    ReplicaCall& call = calls[s];
    uint64_t handle_id = log->next_span;
    AddSpan(log, "service.handle", replay.id(), rid, call.start_ns,
            call.end_ns);
    shard_ns.push_back(call.end_ns - call.start_ns);
    if (call.evaluated) {
      AddSpan(log, "engine.miss", handle_id, rid, call.start_ns, call.end_ns);
    }
    // The same query through CollectionEngine::Evaluate, which runs
    // without the service's fixed-point caches: the engine's cold cost.
    if (call.evaluated && decoded.canonical) {
      xfrag::collection::CollectionEngine engine(replica.snapshot.collection);
      xfrag::collection::CollectionEvalOptions options;
      options.per_document.strategy = decoded.strategy;
      options.per_document.top_k = decoded.top_k;
      SpanScope span(log, "collection.evaluate", replay.id(), rid);
      (void)engine.Evaluate(decoded.query, options);
    }
    xfrag::server::QueryOutcome& outcome = call.outcome;
    {
      SpanScope render(log, "json.render", replay.id(), rid);
      std::string rendered = outcome.body.Dump();
    }
    if (outcome.http_status != 200) return;
    shard_bodies.push_back(xfrag::router::ShardBody{
        s, replica.doc_base, std::move(outcome.body)});
  }
  xfrag::router::MergePlan plan;
  plan.top_k = decoded.top_k;
  plan.rank = decoded.top_k >= 0 || body.Find("rank") != nullptr;
  plan.max_answers = decoded.max_answers;
  {
    SpanScope span(log, "router.merge", replay.id(), rid);
    auto merged = xfrag::router::MergeQueryBodies(std::move(shard_bodies),
                                                  plan, total_documents_, {});
    (void)merged;
  }
  // The front tier's own time: the exchange minus the slowest shard's
  // service time, with every shard laid from the exchange start. A single
  // daemon is its own only shard, and its service time is the elapsed_ms
  // it reports.
  if (!routed()) {
    shard_ns.assign(1, static_cast<int64_t>(record.server_elapsed_ms * 1e6));
  }
  uint64_t front_id = log->next_span;
  AddSpan(log, "router.exchange", 0, rid, start_ns, record.end_ns);
  for (int64_t ns : shard_ns) {
    AddSpan(log, "router.shard", front_id, rid, start_ns, start_ns + ns);
  }
}

// ---------------------------------------------------------------------------
// The correctness oracle: every distinct (request, response) pair the run
// saw is checked against a reference QueryService over the whole corpus —
// for router-topk that is the combined single node. Bodies compare byte for
// byte after NormalizeQueryBody; batch items compare with the same item
// sent alone.

void AddMetrics(const Value& body, VariantVerdict* verdict) {
  if (IsCacheHit(body)) {
    return;
  }
  ++verdict->evaluated_items;
  verdict->answers += CounterAt(body, {"answer_count"});
  verdict->docs_evaluated += CounterAt(body, {"documents_evaluated"});
  verdict->docs_skipped += CounterAt(body, {"documents_skipped"});
  verdict->fragment_joins += CounterAt(body, {"metrics", "fragment_joins"});
  verdict->pairs_considered += CounterAt(body, {"metrics", "pairs_considered"});
  verdict->pairs_rejected_summary +=
      CounterAt(body, {"metrics", "pairs_rejected_summary"});
  verdict->pairs_rejected_score +=
      CounterAt(body, {"metrics", "pairs_rejected_score"});
}

std::vector<VariantVerdict> Bench::Verify(const std::vector<ClientLog>& logs) {
  auto reference = OpenReplica(config_.data_dir + "/full.snap", 0);
  std::vector<const Variant*> variants;
  verdict_offsets_.clear();
  for (const ClientLog& log : logs) {
    verdict_offsets_.push_back(variants.size());
    for (const Variant& v : log.variants) variants.push_back(&v);
  }
  std::vector<VariantVerdict> verdicts(variants.size());
  std::atomic<size_t> next{0};
  std::mutex print_mutex;
  int printed = 0;
  auto mismatch = [&](const std::string& request, const std::string& want,
                      const std::string& got) {
    std::lock_guard<std::mutex> lock(print_mutex);
    if (printed++ >= 3) return;
    std::fprintf(stderr,
                 "servebench: MISMATCH\n  request:   %s\n  reference: %.600s\n"
                 "  served:    %.600s\n",
                 request.c_str(), want.c_str(), got.c_str());
  };
  auto worker = [&] {
    std::unordered_map<std::string, std::string> memo;
    auto expected = [&](const std::string& item) -> const std::string& {
      auto it = memo.find(item);
      if (it != memo.end()) return it->second;
      auto outcome = reference->service->HandleQuery(item);
      std::string normalized =
          xfrag::StrFormat("%d ", outcome.http_status) +
          NormalizeQueryBody(std::move(outcome.body));
      return memo.emplace(item, std::move(normalized)).first->second;
    };
    while (true) {
      size_t i = next.fetch_add(1);
      if (i >= variants.size()) break;
      const Variant& v = *variants[i];
      VariantVerdict& verdict = verdicts[i];
      auto served = xfrag::json::Parse(v.response);
      if (!served.ok()) {
        verdict.outcome = Outcome::kTransport;
        continue;
      }
      if (v.kind == Request::Kind::kQuery) {
        AddMetrics(*served, &verdict);
        std::string got = "200 " + NormalizeQueryBody(std::move(*served));
        const std::string& want = expected(v.request_body);
        if (got != want) {
          verdict.outcome = Outcome::kMismatch;
          mismatch(v.request_body, want, got);
        }
        continue;
      }
      auto items = xfrag::json::Parse(v.request_body);
      const Value* results = served->Find("results");
      if (!items.ok() || results == nullptr || !results->is_array() ||
          results->size() != items->size()) {
        verdict.outcome = Outcome::kMismatch;
        mismatch(v.request_body, "<batch envelope>", v.response);
        continue;
      }
      for (size_t k = 0; k < items->size(); ++k) {
        const Value& entry = (*results)[k];
        int64_t status = static_cast<int64_t>(CounterAt(entry, {"status"}));
        const Value* item_body = entry.Find("body");
        if (status != 200 || item_body == nullptr) {
          verdict.outcome = Outcome::kHttpError;
          break;
        }
        AddMetrics(*item_body, &verdict);
        std::string item_text = (*items)[k].Dump();
        std::string got = "200 " + NormalizeQueryBody(*item_body);
        const std::string& want = expected(item_text);
        if (got != want) {
          verdict.outcome = Outcome::kMismatch;
          mismatch(item_text, want, got);
          break;
        }
      }
    }
  };
  std::vector<std::thread> threads;
  for (unsigned t = 0; t < nproc_; ++t) threads.emplace_back(worker);
  for (auto& t : threads) t.join();
  return verdicts;
}

// ---------------------------------------------------------------------------
// Reporting.

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

double FileMb(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return 0.0;
  return static_cast<double>(st.st_size) / (1024.0 * 1024.0);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

struct MetricOut {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
  std::string note;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit, size_t samples,
           std::string note = "") {
    metrics_.push_back(MetricOut{std::move(name), value, std::move(unit),
                                 samples, std::move(note)});
  }
  const std::vector<MetricOut>& metrics() const { return metrics_; }

  void PrintTable() const {
    for (const MetricOut& m : metrics_) {
      std::printf("  %-34s %14.6f %-12s n=%-8zu %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples, m.note.c_str());
    }
  }
  Value MetricsJson(bool with_samples) const {
    Value out = Value::Object();
    for (const MetricOut& m : metrics_) {
      Value entry = Value::Object();
      entry.Set("value", m.value);
      entry.Set("unit", m.unit);
      if (with_samples) {
        entry.Set("samples", static_cast<uint64_t>(m.samples));
        if (!m.note.empty()) entry.Set("note", m.note);
      }
      out.Set(m.name, std::move(entry));
    }
    return out;
  }

 private:
  std::vector<MetricOut> metrics_;
};

int Bench::Run() {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  nproc_ = nproc;
  // Each waiting client keeps about one server thread busy, so nproc / 2
  // clients load every core without oversubscribing them; more clients
  // only add scheduler noise to the latencies.
  clients_ = std::max(1u, nproc / 2);
  const CorpusSpec spec;
  total_documents_ = spec.documents;
  std::vector<size_t> doc_counts;
  if (routed()) {
    doc_counts = {spec.documents / 2, spec.documents - spec.documents / 2};
  }
  const std::vector<std::string> served = ServedSnapshots();
  calibrator_ = std::make_unique<Calibrator>(nproc);

  // Set-up, several times, each followed by a calibration; the last
  // topology serves the run.
  std::vector<double> setup_s, open_ms;
  std::vector<MachineSpeed> setup_speed;
  for (int r = 0; r < kSetupRepeats; ++r) {
    topology_.reset();
    topology_ = StartTopology(served, routed(), doc_counts);
    setup_s.push_back(topology_->setup_s);
    open_ms.push_back(topology_->open_ms);
    setup_speed.push_back(calibrator_->Measure(kSetupCalibrationNs));
  }
  for (size_t d = 0; d < topology_->daemons.size(); ++d) {
    epochs_.push_back(std::make_unique<EpochTotals>());
  }
  if (config_.trace) {
    size_t base = 0;
    for (size_t s = 0; s < served.size(); ++s) {
      replicas_.push_back(OpenReplica(served[s], base));
      base += routed() ? doc_counts[s] : 0;
    }
  }

  {
    std::vector<ClientLog> warm(clients_);
    Phase phase;
    RunPhase(0, kWarmupMaxSeconds, 0, false,
             WarmupExchanges(config_.workload), 0, &warm, &phase);
    CatchUpReplicas(&warm);
  }
  // The calibrator's tables are resident from before the first set-up on,
  // so the high-water mark holds them in full; they are not the program's.
  const double peak_rss_mb = PeakRssMb() - calibrator_->table_mb();
  for (size_t d = 0; d < topology_->daemons.size(); ++d) {
    Connection control(topology_->daemon_ports[d]);
    epochs_[d]->SubtractBaseline(ReadDaemonCounters(control));
  }
  RouterCounters router_before =
      ReadRouterCounters(topology_->router.get(), topology_->front_port);

  // serve-hot reloads inside the measured window: refilling the result
  // cache is part of what it measures. On the engine workloads a reload
  // also empties the fixed-point caches, and the refill swings throughput
  // far more than anything an engine change would move, so their reloads
  // run, equally spaced under the same load, in a window of their own
  // right after the measured one.
  const bool reloads_inside = config_.workload == Workload::kServeHot;
  const int inside = reloads_inside ? kReloadsPerRun : 0;
  const size_t measured = config_.trace ? 2 : 1;
  // Phase 0 (the untraced run, or the untraced half of a traced run) is
  // the sliced one.
  const double window_s = static_cast<double>(config_.seconds) / measured;
  const size_t slice_count = static_cast<size_t>(
      std::max(1.0, std::round(window_s / kSliceSeconds)));
  std::vector<ClientLog> logs(clients_);
  std::vector<Phase> phases(measured + (reloads_inside ? 0 : 1));
  RunPhase(0, window_s, inside / static_cast<int>(measured), false, SIZE_MAX,
           slice_count, &logs, &phases[0]);
  if (config_.trace) {
    CatchUpReplicas(&logs);
    RunPhase(1, window_s, inside / 2, true, SIZE_MAX, 0, &logs, &phases[1]);
  }
  if (!reloads_inside) {
    RunPhase(static_cast<int>(measured), kReloadWindowSeconds, kReloadsPerRun,
             false, SIZE_MAX, 0, &logs, &phases[measured]);
  }
  for (size_t d = 0; d < topology_->daemons.size(); ++d) {
    Connection control(topology_->daemon_ports[d]);
    epochs_[d]->AddEpoch(ReadDaemonCounters(control));
  }
  RouterCounters router_after =
      ReadRouterCounters(topology_->router.get(), topology_->front_port);
  topology_.reset();
  // The host drifts over tens of seconds, so each slice's speed is the
  // median over it and its neighbours: that keeps the drift and drops the
  // jitter of a single 0.2 s measurement. Set-ups likewise.
  std::vector<double> slice_speed, setup_speed_smoothed;
  for (const Slice& slice : phases[0].slices) {
    slice_speed.push_back(slice.speed.combined());
  }
  slice_speed = RunningMedian3(slice_speed);
  for (const MachineSpeed& speed : setup_speed) {
    setup_speed_smoothed.push_back(speed.combined());
  }
  setup_speed_smoothed = RunningMedian3(setup_speed_smoothed);
  const double machine_speed = Median(slice_speed);

  // Oracle, then per-exchange accounting.
  std::vector<VariantVerdict> verdicts = Verify(logs);
  std::vector<Tally> tallies(phases.size());
  std::vector<std::vector<double>> latency(phases.size()), topk(phases.size()),
      batch(phases.size()), reload(phases.size());
  VariantVerdict work;  // exchange-weighted sums over the whole run
  uint64_t exchanges_with_xql = 0, query_exchanges = 0;
  std::vector<double> response_bytes;
  // Phase 0 per slice, and its latencies each scaled to the reference
  // speed by its slice's calibration.
  const std::vector<Slice>& slices = phases[0].slices;
  std::vector<int64_t> slice_end;
  for (const Slice& slice : slices) slice_end.push_back(slice.end_ns);
  std::vector<uint64_t> slice_answered(slice_count);
  std::vector<std::vector<double>> slice_latency(slice_count);
  std::vector<double> latency_ref, topk_ref, batch_ref;
  for (size_t c = 0; c < logs.size(); ++c) {
    for (const ExchangeRecord& r : logs[c].exchanges) {
      const size_t slice = std::min<size_t>(
          slice_count - 1,
          std::lower_bound(slice_end.begin(), slice_end.end(), r.end_ns) -
              slice_end.begin());
      const double scale = slice_speed[slice] / kReferenceSpeed;
      Outcome outcome = r.transport;
      if (outcome == Outcome::kOk && r.status == 503) {
        outcome = Outcome::kRejected;
      } else if (outcome == Outcome::kOk && r.status != 200) {
        outcome = Outcome::kHttpError;
      } else if (outcome == Outcome::kOk && r.variant >= 0) {
        const VariantVerdict& v = verdicts[verdict_offsets_[c] + r.variant];
        outcome = v.outcome;
        work.evaluated_items += v.evaluated_items;
        work.answers += v.answers;
        work.docs_evaluated += v.docs_evaluated;
        work.docs_skipped += v.docs_skipped;
        work.fragment_joins += v.fragment_joins;
        work.pairs_considered += v.pairs_considered;
        work.pairs_rejected_summary += v.pairs_rejected_summary;
        work.pairs_rejected_score += v.pairs_rejected_score;
      }
      tallies[r.phase].Record(outcome,
                              r.kind == ExchangeKind::kReload ? 0 : r.queries);
      if (r.phase == 0 && outcome == Outcome::kOk &&
          r.kind != ExchangeKind::kReload) {
        slice_answered[slice] += r.queries;
      }
      if (r.kind == ExchangeKind::kReload) {
        reload[r.phase].push_back(r.latency_ms);
        continue;
      }
      ++query_exchanges;
      if (r.xql) ++exchanges_with_xql;
      latency[r.phase].push_back(r.latency_ms);
      if (r.kind == ExchangeKind::kBatch) batch[r.phase].push_back(r.latency_ms);
      if (r.kind == ExchangeKind::kQuery && r.topk) {
        topk[r.phase].push_back(r.latency_ms);
      }
      if (r.phase == 0) {
        slice_latency[slice].push_back(r.latency_ms);
        latency_ref.push_back(r.latency_ms * scale);
        if (r.kind == ExchangeKind::kBatch) {
          batch_ref.push_back(r.latency_ms * scale);
        }
        if (r.kind == ExchangeKind::kQuery && r.topk) {
          topk_ref.push_back(r.latency_ms * scale);
        }
      }
      if (r.transport == Outcome::kOk) {
        response_bytes.push_back(static_cast<double>(r.response_bytes));
      }
    }
  }
  Tally total;
  for (const Tally& t : tallies) total.Merge(t);
  auto phase_qps = [&](size_t p) {
    return Ratio(static_cast<double>(tallies[p].queries_answered),
                 phases[p].active_s);
  };

  // Slices of the (untraced) measured window.
  std::vector<double> slice_qps, slice_qps_ref, slice_p99;
  double lowest_p = 100.0;
  size_t fewest_above = SIZE_MAX;
  for (size_t i = 0; i < slice_count; ++i) {
    slice_qps.push_back(
        Ratio(slice_answered[i], (slices[i].end_ns - slices[i].start_ns) / 1e9));
    slice_qps_ref.push_back(slice_qps.back() * kReferenceSpeed /
                            slice_speed[i]);
    Percentile p99 = PercentileOf(slice_latency[i], 99);
    slice_p99.push_back(p99.value);
    lowest_p = std::min(lowest_p, p99.p);
    fewest_above = std::min(fewest_above, p99.above);
  }
  slices_json_ = Value::Array();
  for (size_t i = 0; i < slice_count; ++i) {
    Value slice = Value::Object();
    slice.Set("qps", slice_qps[i]);
    slice.Set("compute", slices[i].speed.compute);
    slice.Set("trips", slices[i].speed.trips);
    slices_json_.Append(std::move(slice));
  }
  std::vector<double> reload_ms;
  for (const auto& r : reload) {
    reload_ms.insert(reload_ms.end(), r.begin(), r.end());
  }
  // The tail and the reload time spread too widely over ten seeds to carry
  // a bound (README.md), so they are reported with the per-layer metrics.
  auto add_tail_and_reload = [&](Report& report) {
    report.Add("latency_p99_ms", Median(slice_p99), "ms", latency[0].size(),
               xfrag::StrFormat("median of %zu slice p99s; lowest p%.3f, "
                                "fewest %zu samples above",
                                slice_count, lowest_p, fewest_above));
    report.Add("reload_ms", Median(reload_ms), "ms", reload_ms.size(),
               reloads_inside ? "inside the measured window"
                              : "in the reload window");
  };

  Report report;
  if (!config_.trace) {
    // Timings at the reference speed; the raw figure is in the note.
    std::vector<double> setup_ref;
    for (size_t r = 0; r < setup_s.size(); ++r) {
      setup_ref.push_back(setup_s[r] * setup_speed_smoothed[r] /
                          kReferenceSpeed);
    }
    auto p50_note = [](const std::vector<double>& raw) {
      return xfrag::StrFormat("raw %.6g", PercentileOf(raw, 50).value);
    };
    report.Add("setup_s", Median(setup_ref), "s", setup_s.size(),
               xfrag::StrFormat("raw %.6g; median of set-ups",
                                Median(setup_s)));
    report.Add("qps", Median(slice_qps_ref), "1/s",
               tallies[0].queries_answered,
               xfrag::StrFormat("raw %.6g; median of %zu slices; whole run "
                                "%.1f",
                                Median(slice_qps), slice_count,
                                phase_qps(0)));
    report.Add("latency_p50_ms", PercentileOf(latency_ref, 50).value, "ms",
               latency_ref.size(), p50_note(latency[0]));
    report.Add("topk_p50_ms", PercentileOf(topk_ref, 50).value, "ms",
               topk_ref.size(), p50_note(topk[0]));
    report.Add("batch_p50_ms", PercentileOf(batch_ref, 50).value, "ms",
               batch_ref.size(), p50_note(batch[0]));
    report.Add("ok_ratio", 1.0 - total.FailRatio(), "ratio", total.attempted,
               xfrag::StrFormat("%llu of %llu exchanges failed",
                                (unsigned long long)total.failed,
                                (unsigned long long)total.attempted));
    report.Add("peak_rss_mb", peak_rss_mb, "MB", 1,
               "VmHWM after set-up and warm-up, less the calibrator's "
               "tables");
  } else {
    // Spans of the traced phase.
    std::map<std::string, std::vector<double>> durations_us;
    std::vector<double> http_self_ms, front_self_ms, slowest_ms;
    double miss_ns = 0, handle_ns = 0;
    size_t span_count = 0;
    for (const ClientLog& log : logs) {
      std::vector<int64_t> self = SelfTimesNs(log.spans);
      std::unordered_map<uint64_t, int64_t> slowest;
      for (const Span& span : log.spans) {
        if (span.name == "router.shard") {
          slowest[span.parent] =
              std::max(slowest[span.parent], span.duration_ns());
        }
      }
      span_count += log.spans.size();
      handle_ns += log.handle_ns;
      miss_ns += log.miss_ns;
      for (size_t i = 0; i < log.spans.size(); ++i) {
        const Span& span = log.spans[i];
        durations_us[span.name].push_back(span.duration_ns() / 1e3);
        if (span.name == "exchange") http_self_ms.push_back(self[i] / 1e6);
        if (span.name == "router.exchange") {
          front_self_ms.push_back(self[i] / 1e6);
          slowest_ms.push_back(slowest[span.id] / 1e6);
        }

      }
    }
    auto median_us = [&](const char* name) {
      return Median(durations_us[name]);
    };
    auto count_of = [&](const char* name) { return durations_us[name].size(); };
    DaemonCounters sum;
    uint64_t rejected = 0;
    for (auto& e : epochs_) {
      sum.rc_hits += e->total.rc_hits;
      sum.rc_misses += e->total.rc_misses;
      sum.rc_evictions += e->total.rc_evictions;
      sum.fp_hits += e->total.fp_hits;
      sum.fp_misses += e->total.fp_misses;
      rejected += e->total.status_503 - e->baseline_503;
    }
    rejected += router_after.status_503 - router_before.status_503;
    const double evaluated = work.evaluated_items;
    const uint64_t rc_lookups = sum.rc_hits + sum.rc_misses;
    const uint64_t fp_lookups = sum.fp_hits + sum.fp_misses;
    const uint64_t pool_connects =
        router_after.pool_connects - router_before.pool_connects;
    const uint64_t pool_reuses =
        router_after.pool_reuses - router_before.pool_reuses;
    const double untraced_qps = phase_qps(0), traced_qps = phase_qps(1);

    double snapshot_mb = 0.0;
    for (const std::string& path : served) snapshot_mb += FileMb(path);
    add_tail_and_reload(report);
    report.Add("storage.open_ms", Median(open_ms), "ms", open_ms.size(),
               "validated LoadCollectionFromSnapshot per set-up");
    report.Add("storage.snapshot_mb", snapshot_mb, "MB", served.size());
    report.Add("server.http.self_ms", Median(http_self_ms), "ms",
               http_self_ms.size(), "round trip - response elapsed_ms");
    report.Add("server.rejected", static_cast<double>(rejected), "count", 1,
               "503s in /metrics");
    report.Add("json.parse_us", median_us("json.parse"), "us",
               count_of("json.parse"));
    report.Add("json.render_us", median_us("json.render"), "us",
               count_of("json.render"));
    report.Add("json.response_bytes", Median(response_bytes), "bytes",
               response_bytes.size());
    report.Add("lang.lower_us", median_us("lang.lower"), "us",
               count_of("lang.lower"));
    report.Add("lang.q_share", Ratio(exchanges_with_xql, query_exchanges),
               "ratio", query_exchanges);
    report.Add("server.result_cache.hit_ratio", Ratio(sum.rc_hits, rc_lookups),
               "ratio", rc_lookups,
               xfrag::StrFormat("%llu hits / %llu lookups",
                                (unsigned long long)sum.rc_hits,
                                (unsigned long long)rc_lookups));
    report.Add("server.result_cache.lookups", rc_lookups, "count", 1);
    report.Add("server.result_cache.evictions", sum.rc_evictions, "count", 1);
    report.Add("server.service.handle_ms", median_us("service.handle") / 1e3,
               "ms", count_of("service.handle"), "replica HandleQuery");
    report.Add("server.service.batch_ms", median_us("service.batch") / 1e3,
               "ms", count_of("service.batch"), "replica HandleQueryBatch");
    report.Add("collection.evaluate_ms",
               median_us("collection.evaluate") / 1e3, "ms",
               count_of("collection.evaluate"));
    report.Add("collection.engine_share", Ratio(miss_ns, handle_ns), "ratio",
               count_of("service.handle"),
               "HandleQuery time of result-cache misses / all HandleQuery "
               "time on the replica");
    report.Add("collection.docs_evaluated",
               Ratio(work.docs_evaluated, evaluated), "count/query",
               work.evaluated_items);
    report.Add("collection.docs_skipped", Ratio(work.docs_skipped, evaluated),
               "count/query", work.evaluated_items);
    report.Add("query.fp_cache.hit_ratio", Ratio(sum.fp_hits, fp_lookups),
               "ratio", fp_lookups,
               xfrag::StrFormat("%llu hits / %llu lookups",
                                (unsigned long long)sum.fp_hits,
                                (unsigned long long)fp_lookups));
    report.Add("query.fp_cache.lookups", fp_lookups, "count", 1);
    report.Add("algebra.fragment_joins", Ratio(work.fragment_joins, evaluated),
               "count/query", work.evaluated_items);
    report.Add("algebra.pairs_considered",
               Ratio(work.pairs_considered, evaluated), "count/query",
               work.evaluated_items);
    report.Add("algebra.pairs_rejected_summary",
               Ratio(work.pairs_rejected_summary, evaluated), "count/query",
               work.evaluated_items);
    report.Add("algebra.pairs_rejected_score",
               Ratio(work.pairs_rejected_score, evaluated), "count/query",
               work.evaluated_items);
    report.Add("algebra.useful_ratio",
               Ratio(work.answers, work.pairs_considered), "ratio",
               work.evaluated_items, "answers / pairs considered");
    report.Add("router.self_ms", Median(front_self_ms), "ms",
               front_self_ms.size(), "round trip - slowest shard replay");
    report.Add("router.slowest_shard_ms", Median(slowest_ms), "ms",
               slowest_ms.size());
    report.Add("router.merge_us", median_us("router.merge"), "us",
               count_of("router.merge"));
    report.Add("router.threshold_updates_sent",
               router_after.threshold_updates_sent -
                   router_before.threshold_updates_sent,
               "count", 1);
    report.Add("router.bound_exchange_fallbacks",
               router_after.fallbacks - router_before.fallbacks, "count", 1);
    report.Add("router.hedges_launched",
               router_after.hedges - router_before.hedges, "count", 1);
    report.Add("router.pool_reuse_ratio",
               Ratio(pool_reuses, pool_connects + pool_reuses), "ratio",
               pool_connects + pool_reuses);
    report.Add("process.cpu_util",
               Ratio(phases[0].cpu_s, phases[0].active_s * nproc),
               "ratio", 1, "untraced half, CPU s / (wall s x nproc)");
    report.Add("trace.overhead_ratio", 1.0 - Ratio(traced_qps, untraced_qps),
               "ratio", 2,
               xfrag::StrFormat("qps untraced %.1f, traced %.1f", untraced_qps,
                                traced_qps));
    report.Add("trace.spans", static_cast<double>(span_count), "count", 1);
  }

  // Provenance and the human-readable table go first; the result line last.
  Value provenance = Value::Object();
  provenance.Set("commit", config_.commit);
  provenance.Set("source_digest", config_.source_digest);
  provenance.Set("build_type", SERVEBENCH_BUILD_TYPE);
  provenance.Set("build", xfrag::BuildInfo("servebench"));
  provenance.Set("nproc", static_cast<uint64_t>(nproc));
  provenance.Set("clients", static_cast<uint64_t>(clients_));
  provenance.Set("seed", config_.seed);
  provenance.Set("workload", WorkloadName(config_.workload));
  provenance.Set("traced", config_.trace);
  provenance.Set("seconds", int64_t{config_.seconds});
  provenance.Set("warmup_exchanges_per_client",
                 static_cast<uint64_t>(WarmupExchanges(config_.workload)));
  provenance.Set("slice_seconds", window_s / slice_count);
  provenance.Set("setup_repeats", int64_t{kSetupRepeats});
  provenance.Set("reloads", int64_t{kReloadsPerRun});
  Value corpus = Value::Object();
  corpus.Set("documents", static_cast<uint64_t>(spec.documents));
  corpus.Set("nodes_per_document", static_cast<uint64_t>(spec.nodes_per_document));
  corpus.Set("vocabulary", static_cast<uint64_t>(spec.vocabulary));
  provenance.Set("corpus", std::move(corpus));
  provenance.Set("config", DaemonConfigJson());
  Value counts = Value::Object();
  counts.Set("attempted", total.attempted);
  counts.Set("failed", total.failed);
  counts.Set("rejected", total.rejected);
  counts.Set("http_errors", total.http_errors);
  counts.Set("timeouts", total.timeouts);
  counts.Set("transport_errors", total.transport_errors);
  counts.Set("mismatches", total.mismatches);
  counts.Set("queries_answered", total.queries_answered);
  counts.Set("distinct_queries_issued",
             static_cast<uint64_t>(source_.distinct_issued()));
  counts.Set("variants_verified", static_cast<uint64_t>(verdicts.size()));
  provenance.Set("samples", std::move(counts));
  provenance.Set("slices", slices_json_);
  provenance.Set("machine_speed", machine_speed);
  provenance.Set("reference_speed", kReferenceSpeed);
  Value setup_speeds = Value::Array();
  for (double v : setup_speed_smoothed) setup_speeds.Append(v);
  provenance.Set("setup_machine_speed", std::move(setup_speeds));

  std::printf("servebench %s seed=%llu trace=%d clients=%u nproc=%u\n",
              WorkloadName(config_.workload),
              static_cast<unsigned long long>(config_.seed),
              config_.trace ? 1 : 0, clients_, nproc);
  report.PrintTable();
  Value record = Value::Object();
  record.Set("provenance", provenance);
  record.Set("metrics", report.MetricsJson(true));
  std::printf("%s\n", record.Dump().c_str());
  if (!config_.out_dir.empty()) {
    std::string stem = xfrag::StrFormat(
        "%s/%s-seed%llu-trace%d", config_.out_dir.c_str(),
        WorkloadName(config_.workload),
        static_cast<unsigned long long>(config_.seed), config_.trace ? 1 : 0);
    std::ofstream(stem + ".json") << record.Dump(2) << "\n";
    if (config_.trace) {
      std::ofstream spans(stem + "-spans.json");
      Value all = Value::Array();
      for (const ClientLog& log : logs) {
        Value spans_json = SpansToJson(log.spans);
        for (const Value& span : spans_json.items()) all.Append(span);
      }
      spans << all.Dump() << "\n";
    }
  }

  const bool correct = total.mismatches == 0 && total.attempted > 0;
  Value result = Value::Object();
  result.Set("correct", correct);
  result.Set("attempted", total.attempted);
  result.Set("failed", total.failed);
  result.Set("metrics", report.MetricsJson(false));
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// prepare: corpus → snapshots.

int Prepare(uint64_t seed, const std::string& dir) {
  const CorpusSpec spec;
  std::vector<GeneratedDocument> docs = GenerateCorpus(spec, seed);
  xfrag::collection::Collection full;
  std::vector<xfrag::collection::Collection> shards(kShards);
  const size_t per_shard = spec.documents / kShards;
  for (size_t d = 0; d < docs.size(); ++d) {
    auto added = full.AddXml(docs[d].name, docs[d].xml);
    if (!added.ok()) Die(added.ToString());
    size_t shard = std::min(d / per_shard, kShards - 1);
    added = shards[shard].AddXml(docs[d].name, docs[d].xml);
    if (!added.ok()) Die(added.ToString());
  }
  auto write = [&](const xfrag::collection::Collection& collection,
                   const std::string& path) {
    auto status = xfrag::storage::WriteSnapshot(
        collection, xfrag::text::IndexOptions{}, path);
    if (!status.ok()) Die(status.ToString());
  };
  write(full, dir + "/full.snap");
  for (size_t s = 0; s < kShards; ++s) {
    write(shards[s], xfrag::StrFormat("%s/shard%zu.snap", dir.c_str(), s));
  }
  std::printf("servebench: seed %llu: %zu documents, %zu nodes\n",
              static_cast<unsigned long long>(seed), full.size(),
              full.TotalNodes());
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: servebench prepare --seed N --data DIR\n"
               "       servebench run --workload W --seed N --seconds S "
               "--trace 0|1 --data DIR [--out DIR] [--commit C] "
               "[--source-digest D]\n");
  return 2;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  using namespace servebench;
  if (argc < 2) return Usage();
  std::string mode = argv[1];
  RunConfig config;
  std::string workload;
  bool have_seed = false;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (i + 1 >= argc) return Usage();
    std::string value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      config.seconds = std::atoi(value.c_str());
    } else if (arg == "--trace") {
      config.trace = value == "1";
    } else if (arg == "--data") {
      config.data_dir = value;
    } else if (arg == "--out") {
      config.out_dir = value;
    } else if (arg == "--commit") {
      config.commit = value;
    } else if (arg == "--source-digest") {
      config.source_digest = value;
    } else {
      return Usage();
    }
  }
  if (!have_seed || config.data_dir.empty()) return Usage();
  std::signal(SIGPIPE, SIG_IGN);
  if (mode == "prepare") return Prepare(config.seed, config.data_dir);
  if (mode != "run") return Usage();
  auto parsed = ParseWorkload(workload);
  if (!parsed.has_value() || config.seconds < 1) return Usage();
  config.workload = *parsed;
  Bench bench(config);
  return bench.Run();
}

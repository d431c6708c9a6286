// xfrag_router — scatter-gather front tier over a sharded xfragd cluster.
//
//   usage: xfrag_router --shard-map <map.json> [options]
//
//   options:
//     --shard-map FILE       shard topology (see docs/SERVING.md)  [required]
//     --host H               bind address          (default 127.0.0.1)
//     --port N               TCP port              (default 8377, 0 = ephemeral)
//     --workers N            concurrent client requests      (default 8)
//     --queue N              admission queue beyond workers  (default 64)
//     --shard-deadline-ms N  per-shard budget when the request has no
//                            deadline_ms of its own          (default 30000)
//     --connect-timeout-ms N backend connect timeout         (default 1000)
//     --no-hedging           disable hedged requests
//     --hedge-delay-ms N     hedge delay before p95 data exists (default 50)
//     --health-interval-ms N background /healthz period (default 1000, 0=off)
//     --batch-max-items N    per-request /query_batch item cap (default 256)
//     --version              print build info and exit
//
//   $ xfrag_router --shard-map cluster.json &
//   xfrag_router listening on 127.0.0.1:8377 (3 shards, 120 documents)
//
// SIGINT/SIGTERM triggers a graceful drain, exactly like xfragd.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common/version.h"
#include "router/router.h"
#include "router/shard_map.h"

namespace {

volatile std::sig_atomic_t g_shutdown_requested = 0;

void HandleSignal(int) { g_shutdown_requested = 1; }

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --shard-map <map.json> [options]\n"
      "  --host H | --port N | --workers N | --queue N\n"
      "  --shard-deadline-ms MS | --connect-timeout-ms MS\n"
      "  --no-hedging | --hedge-delay-ms MS | --health-interval-ms MS\n"
      "  --batch-max-items N\n"
      "  --version\n",
      argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string map_path;
  xfrag::router::RouterOptions options;
  options.port = 8377;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--version") {
      std::printf("%s (router protocol revision %d)\n",
                  xfrag::BuildInfo("xfrag_router").c_str(),
                  xfrag::kRouterProtocolRevision);
      return 0;
    } else if (arg == "--shard-map" && i + 1 < argc) {
      map_path = argv[++i];
    } else if (arg == "--host" && i + 1 < argc) {
      options.host = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      options.port = static_cast<uint16_t>(std::atoi(argv[++i]));
    } else if (arg == "--workers" && i + 1 < argc) {
      options.workers = std::atoi(argv[++i]);
      if (options.workers < 1) {
        std::fprintf(stderr, "--workers requires a count >= 1\n");
        return 2;
      }
    } else if (arg == "--queue" && i + 1 < argc) {
      options.queue_capacity = std::atoi(argv[++i]);
    } else if (arg == "--shard-deadline-ms" && i + 1 < argc) {
      options.default_shard_deadline_ms = std::atoi(argv[++i]);
    } else if (arg == "--connect-timeout-ms" && i + 1 < argc) {
      options.backend.connect_timeout_ms = std::atoi(argv[++i]);
    } else if (arg == "--no-hedging") {
      options.enable_hedging = false;
    } else if (arg == "--hedge-delay-ms" && i + 1 < argc) {
      options.hedge_default_delay_ms = std::atoi(argv[++i]);
    } else if (arg == "--health-interval-ms" && i + 1 < argc) {
      options.health_check_interval_ms = std::atoi(argv[++i]);
    } else if (arg == "--batch-max-items" && i + 1 < argc) {
      options.batch_max_items = static_cast<size_t>(std::atol(argv[++i]));
    } else {
      return Usage(argv[0]);
    }
  }
  if (map_path.empty()) return Usage(argv[0]);

  std::ifstream in(map_path, std::ios::binary);
  if (!in) {
    std::fprintf(stderr, "xfrag_router: cannot open %s\n", map_path.c_str());
    return 1;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto map = xfrag::router::ParseShardMap(buffer.str());
  if (!map.ok()) {
    std::fprintf(stderr, "xfrag_router: %s: %s\n", map_path.c_str(),
                 map.status().ToString().c_str());
    return 1;
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGPIPE, SIG_IGN);

  xfrag::router::Router router(std::move(*map), options);
  auto started = router.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "xfrag_router: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("xfrag_router listening on %s:%u (%zu shard%s, %zu documents)\n",
              options.host.c_str(), router.port(),
              router.shard_map().shards.size(),
              router.shard_map().shards.size() == 1 ? "" : "s",
              router.shard_map().total_documents);
  std::fflush(stdout);

  while (g_shutdown_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("xfrag_router: draining %d in-flight request(s)...\n",
              router.InFlight());
  std::fflush(stdout);
  router.Shutdown();
  std::printf("xfrag_router: served %llu request(s), bye\n",
              static_cast<unsigned long long>(
                  router.stats().TotalRequests()));
  return 0;
}

// xfragd — the XML-fragment query daemon.
//
//   usage: xfragd [--collection] <file.xml|file.xdb>... [options]
//          xfragd --snapshot <file.snap> [options]
//
//   options:
//     --snapshot F           serve an mmap snapshot (xfrag_snapshot build);
//                            O(1) startup, POST /admin/reload swaps epochs
//     --trust-snapshot       skip the structural column scans when opening
//                            (only for snapshots from a trusted pipeline)
//     --host H               bind address      (default 127.0.0.1)
//     --port N               TCP port          (default 8378, 0 = ephemeral)
//     --workers N            query worker threads        (default 4)
//     --queue N              admission queue beyond workers (default 64)
//     --default-deadline-ms  deadline for requests without one (0 = none)
//     --max-deadline-ms      ceiling on per-request deadlines  (0 = none)
//     --request-timeout-ms   socket read/write timeout (default 10000)
//     --result-cache-mb N    result-cache budget in MiB (default 32, 0 = off)
//     --fp-cache-entries N   per-document fixed-point cache entry cap
//                            (default 4096, 0 = unlimited)
//     --fp-cache-mb N        per-document fixed-point cache budget in MiB
//                            (default 64, 0 = unlimited)
//     --batch-max-items N    per-request /query_batch item cap (default 256)
//     --debug-sleep          accept the "debug_sleep_ms" request field
//                            (test/bench hook; do not enable in production)
//     --version              print build info and exit
//
//   $ xfragd --collection paper.xml &
//   xfragd: loaded 1 document (132 nodes)
//   xfragd listening on 127.0.0.1:8378
//   $ xfrag_client '{XQuery, optimization}'
//
// SIGINT/SIGTERM triggers a graceful drain: the listener stops accepting,
// every in-flight query finishes and its response is written, then the
// process exits 0.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "collection/collection.h"
#include "common/strings.h"
#include "common/version.h"
#include "server/server.h"
#include "storage/snapshot.h"
#include "storage/storage.h"

namespace {

// Signal handlers may only touch lock-free state; the main thread polls this.
volatile std::sig_atomic_t g_shutdown_requested = 0;

void HandleSignal(int) { g_shutdown_requested = 1; }

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--collection] <file.xml|file.xdb>... [options]\n"
      "       %s --snapshot <file.snap> [options]\n"
      "  --snapshot F | --trust-snapshot\n"
      "  --host H | --port N | --workers N | --queue N\n"
      "  --default-deadline-ms MS | --max-deadline-ms MS\n"
      "  --request-timeout-ms MS | --result-cache-mb N\n"
      "  --fp-cache-entries N | --fp-cache-mb N\n"
      "  --batch-max-items N | --debug-sleep | --version\n",
      argv0, argv0);
  return 2;
}

xfrag::StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return xfrag::Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Starts `server` and blocks until SIGINT/SIGTERM, then drains gracefully.
int ServeUntilSignalled(xfrag::server::Server& server,
                        const xfrag::server::ServerOptions& options) {
  auto started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "xfragd: %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("xfragd listening on %s:%u\n", options.host.c_str(),
              server.port());
  std::fflush(stdout);

  while (g_shutdown_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("xfragd: draining %d in-flight request(s)...\n",
              server.InFlight());
  std::fflush(stdout);
  server.Shutdown();
  std::printf("xfragd: served %llu request(s), bye\n",
              static_cast<unsigned long long>(server.stats().TotalRequests()));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> files;
  std::string snapshot_path;
  bool trust_snapshot = false;
  xfrag::server::ServerOptions options;
  options.port = 8378;
  // Daemon defaults differ from the library's: a long-running server wants
  // the result cache on and the per-document caches bounded.
  options.service.result_cache_bytes = 32u << 20;
  options.service.fixed_point_cache.max_entries = 4096;
  options.service.fixed_point_cache.max_bytes = 64u << 20;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--version") {
      std::printf("%s\n", xfrag::BuildInfo("xfragd").c_str());
      return 0;
    } else if (arg == "--collection") {
      // Cosmetic marker; the files that follow are positional anyway.
    } else if (arg == "--snapshot" && i + 1 < argc) {
      snapshot_path = argv[++i];
    } else if (arg == "--trust-snapshot") {
      trust_snapshot = true;
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
    } else if (arg == "--default-deadline-ms" && i + 1 < argc) {
      options.service.default_deadline_ms = std::atof(argv[++i]);
    } else if (arg == "--max-deadline-ms" && i + 1 < argc) {
      options.service.max_deadline_ms = std::atof(argv[++i]);
    } else if (arg == "--request-timeout-ms" && i + 1 < argc) {
      options.request_timeout_ms = std::atoi(argv[++i]);
    } else if (arg == "--result-cache-mb" && i + 1 < argc) {
      options.service.result_cache_bytes =
          static_cast<size_t>(std::atol(argv[++i])) << 20;
    } else if (arg == "--fp-cache-entries" && i + 1 < argc) {
      options.service.fixed_point_cache.max_entries =
          static_cast<size_t>(std::atol(argv[++i]));
    } else if (arg == "--fp-cache-mb" && i + 1 < argc) {
      options.service.fixed_point_cache.max_bytes =
          static_cast<size_t>(std::atol(argv[++i])) << 20;
    } else if (arg == "--batch-max-items" && i + 1 < argc) {
      options.service.batch_max_items =
          static_cast<size_t>(std::atol(argv[++i]));
    } else if (arg == "--debug-sleep") {
      options.service.enable_debug_sleep = true;
    } else if (arg.rfind("--", 0) == 0) {
      return Usage(argv[0]);
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty() == snapshot_path.empty()) {
    // Exactly one of --snapshot and positional files must be given.
    return Usage(argv[0]);
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGPIPE, SIG_IGN);

  if (!snapshot_path.empty()) {
    xfrag::storage::SnapshotOpenOptions open_options;
    open_options.validate_structure = !trust_snapshot;
    auto loaded = xfrag::storage::LoadCollectionFromSnapshot(snapshot_path,
                                                             open_options);
    if (!loaded.ok()) {
      std::fprintf(stderr, "xfragd: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    std::printf("xfragd: opened snapshot %s in %.3f ms "
                "(%zu document%s, %zu nodes, %llu bytes mapped)\n",
                snapshot_path.c_str(), loaded->stats.open_ms,
                loaded->collection.size(),
                loaded->collection.size() == 1 ? "" : "s",
                loaded->collection.TotalNodes(),
                static_cast<unsigned long long>(loaded->stats.mapped_bytes));
    xfrag::server::Server server(snapshot_path, std::move(*loaded), options);
    return ServeUntilSignalled(server, options);
  }

  xfrag::collection::Collection collection;
  for (const std::string& path : files) {
    if (xfrag::EndsWith(path, ".xdb")) {
      auto bundle = xfrag::storage::LoadBundleFromFile(path);
      if (!bundle.ok()) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     bundle.status().ToString().c_str());
        return 1;
      }
      auto status = collection.Add(path, std::move(bundle->document));
      if (!status.ok()) {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
        return 1;
      }
    } else {
      auto content = ReadFile(path);
      if (!content.ok()) {
        std::fprintf(stderr, "%s\n", content.status().ToString().c_str());
        return 1;
      }
      auto status = collection.AddXml(path, *content);
      if (!status.ok()) {
        std::fprintf(stderr, "%s: %s\n", path.c_str(),
                     status.ToString().c_str());
        return 1;
      }
    }
  }

  std::printf("xfragd: loaded %zu document%s (%zu nodes)\n", collection.size(),
              collection.size() == 1 ? "" : "s", collection.TotalNodes());
  xfrag::server::Server server(collection, options);
  return ServeUntilSignalled(server, options);
}

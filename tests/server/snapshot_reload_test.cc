// Atomic snapshot swap under live traffic: a snapshot-backed Server keeps
// answering queries correctly while POST /admin/reload repeatedly swaps
// serving epochs underneath it. Every query lands entirely on one epoch
// (the per-request state pin), reloads never block readers, and the
// endpoint's error paths leave the serving state untouched. Runs under TSan
// via the `server` ctest label (scripts/check.sh).

#include "server/server.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "../testutil.h"
#include "common/json.h"
#include "common/strings.h"
#include "server/http.h"
#include "server/net.h"
#include "storage/snapshot.h"

namespace xfrag::server {
namespace {

constexpr const char* kDocA = R"(
  <paper>
    <title>XQuery optimization</title>
    <section>algebra for fragments
      <par>query algebra</par>
      <par>optimization rules</par>
    </section>
  </paper>)";
constexpr const char* kDocB = R"(
  <book>
    <chapter>fragment retrieval
      <par>xquery engines</par>
      <par>ranking fragments</par>
    </chapter>
  </book>)";

class SnapshotReloadTest : public ::testing::Test {
 protected:
  void SetUp() override {
    snap_a_ = testutil::ProcessTempDir() + "/reload_a.snap";
    snap_b_ = testutil::ProcessTempDir() + "/reload_b.snap";
    collection::Collection one;
    ASSERT_TRUE(one.AddXml("a.xml", kDocA).ok());
    ASSERT_TRUE(
        storage::WriteSnapshot(one, text::IndexOptions{}, snap_a_).ok());
    collection::Collection two;
    ASSERT_TRUE(two.AddXml("a.xml", kDocA).ok());
    ASSERT_TRUE(two.AddXml("b.xml", kDocB).ok());
    ASSERT_TRUE(
        storage::WriteSnapshot(two, text::IndexOptions{}, snap_b_).ok());
  }

  void TearDown() override {
    std::remove(snap_a_.c_str());
    std::remove(snap_b_.c_str());
  }

  std::unique_ptr<Server> StartSnapshotServer(const std::string& path,
                                              ServerOptions options = {}) {
    auto loaded = storage::LoadCollectionFromSnapshot(path);
    EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
    auto server =
        std::make_unique<Server>(path, std::move(*loaded), options);
    auto started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    return server;
  }

  StatusOr<HttpResponse> Post(uint16_t port, const std::string& path,
                              const std::string& body) {
    std::string request = StrFormat(
        "POST %s HTTP/1.1\r\nHost: t\r\nContent-Length: %zu\r\n"
        "Connection: close\r\n\r\n",
        path.c_str(), body.size());
    request += body;
    auto raw = HttpRoundTrip("127.0.0.1", port, request, 30000);
    if (!raw.ok()) return raw.status();
    return ParseHttpResponse(*raw);
  }

  StatusOr<HttpResponse> Get(uint16_t port, const std::string& path) {
    std::string request = StrFormat(
        "GET %s HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n",
        path.c_str());
    auto raw = HttpRoundTrip("127.0.0.1", port, request);
    if (!raw.ok()) return raw.status();
    return ParseHttpResponse(*raw);
  }

  std::string snap_a_;
  std::string snap_b_;
};

TEST_F(SnapshotReloadTest, ReloadSwapsEpochAndCollection) {
  auto server = StartSnapshotServer(snap_a_);
  EXPECT_EQ(server->Epoch(), 1u);
  auto health = Get(server->port(), "/healthz");
  ASSERT_TRUE(health.ok());
  auto parsed = json::Parse(health->body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("documents")->AsInt(), 1);

  auto reload = Post(server->port(), "/admin/reload",
                     "{\"snapshot\": \"" + snap_b_ + "\"}");
  ASSERT_TRUE(reload.ok());
  EXPECT_EQ(reload->status, 200) << reload->body;
  auto reload_body = json::Parse(reload->body);
  ASSERT_TRUE(reload_body.ok());
  EXPECT_EQ(reload_body->Find("epoch")->AsInt(), 2);
  EXPECT_EQ(reload_body->Find("documents")->AsInt(), 2);

  EXPECT_EQ(server->Epoch(), 2u);
  health = Get(server->port(), "/healthz");
  ASSERT_TRUE(health.ok());
  parsed = json::Parse(health->body);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->Find("documents")->AsInt(), 2);
  EXPECT_EQ(parsed->Find("epoch")->AsInt(), 2);

  // The new document answers; it could not before the swap.
  auto query =
      Post(server->port(), "/query", R"({"terms":["retrieval"]})");
  ASSERT_TRUE(query.ok());
  auto query_body = json::Parse(query->body);
  ASSERT_TRUE(query_body.ok());
  EXPECT_GE(query_body->Find("answer_count")->AsInt(), 1);
}

TEST_F(SnapshotReloadTest, FailedReloadLeavesServingStateUntouched) {
  auto server = StartSnapshotServer(snap_a_);
  auto reload = Post(server->port(), "/admin/reload",
                     R"({"snapshot": "/nonexistent/file.snap"})");
  ASSERT_TRUE(reload.ok());
  EXPECT_EQ(reload->status, 404) << reload->body;
  EXPECT_EQ(server->Epoch(), 1u);
  auto query = Post(server->port(), "/query", R"({"terms":["xquery"]})");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->status, 200);

  auto bad_field = Post(server->port(), "/admin/reload",
                        R"({"path": "/tmp/x.snap"})");
  ASSERT_TRUE(bad_field.ok());
  EXPECT_EQ(bad_field->status, 400);
  EXPECT_EQ(server->Epoch(), 1u);

  auto bad_method = Get(server->port(), "/admin/reload");
  ASSERT_TRUE(bad_method.ok());
  EXPECT_EQ(bad_method->status, 405);
}

TEST_F(SnapshotReloadTest, ReloadRequiresSnapshotBackedServer) {
  collection::Collection collection;
  ASSERT_TRUE(collection.AddXml("a.xml", kDocA).ok());
  Server server(collection, {});
  ASSERT_TRUE(server.Start().ok());
  auto reload = Post(server.port(), "/admin/reload", "");
  ASSERT_TRUE(reload.ok());
  EXPECT_EQ(reload->status, 400) << reload->body;
}

// The TSan-relevant test: queries hammer the server from several threads
// while another thread swaps snapshots as fast as it can. Every query must
// come back 200 with one of the two valid answer shapes, and the server
// must end on a sane epoch.
TEST_F(SnapshotReloadTest, ConcurrentQueriesDuringReloads) {
  ServerOptions options;
  options.workers = 4;
  auto server = StartSnapshotServer(snap_a_);
  const uint16_t port = server->port();

  constexpr int kQueryThreads = 3;
  constexpr int kQueriesPerThread = 40;
  constexpr int kReloads = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kQueryThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        auto response =
            Post(port, "/query", R"({"terms":["xquery"],"rank":true})");
        if (!response.ok() || response->status != 200) {
          failures.fetch_add(1);
          continue;
        }
        auto body = json::Parse(response->body);
        if (!body.ok() || body->Find("answer_count") == nullptr) {
          failures.fetch_add(1);
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < kReloads; ++i) {
      const std::string& next = (i % 2 == 0) ? snap_b_ : snap_a_;
      auto response = Post(port, "/admin/reload",
                           "{\"snapshot\": \"" + next + "\"}");
      if (!response.ok() || response->status != 200) failures.fetch_add(1);
    }
  });
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server->Epoch(), 1u + kReloads);

  auto metrics = Get(port, "/metrics");
  ASSERT_TRUE(metrics.ok());
  auto parsed = json::Parse(metrics->body);
  ASSERT_TRUE(parsed.ok());
  const json::Value* snapshot = parsed->Find("snapshot");
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->Find("reloads")->AsInt(), kReloads);
  EXPECT_EQ(snapshot->Find("reload_failures")->AsInt(), 0);
  const json::Value* open = parsed->Find("snapshot_open");
  ASSERT_NE(open, nullptr);
  EXPECT_EQ(open->Find("count")->AsInt(), 1 + kReloads);
}

TEST_F(SnapshotReloadTest, VersionAndMetricsCarrySnapshotInfo) {
  auto server = StartSnapshotServer(snap_a_);
  auto version = Get(server->port(), "/version");
  ASSERT_TRUE(version.ok());
  auto parsed = json::Parse(version->body);
  ASSERT_TRUE(parsed.ok());
  const json::Value* snapshot = parsed->Find("snapshot");
  ASSERT_NE(snapshot, nullptr);
  EXPECT_EQ(snapshot->Find("path")->AsString(), snap_a_);
  EXPECT_EQ(snapshot->Find("format_version")->AsInt(),
            static_cast<int64_t>(storage::kSnapshotFormatVersion));
  EXPECT_EQ(snapshot->Find("epoch")->AsInt(), 1);

  auto metrics = Get(server->port(), "/metrics");
  ASSERT_TRUE(metrics.ok());
  parsed = json::Parse(metrics->body);
  ASSERT_TRUE(parsed.ok());
  const json::Value* live = parsed->Find("snapshot");
  ASSERT_NE(live, nullptr);
  EXPECT_TRUE(live->Find("enabled")->AsBool());
  EXPECT_GT(live->Find("file_bytes")->AsInt(), 0);
  EXPECT_EQ(live->Find("mapped_bytes")->AsInt(),
            live->Find("file_bytes")->AsInt());
  const json::Value* open = parsed->Find("snapshot_open");
  ASSERT_NE(open, nullptr);
  EXPECT_EQ(open->Find("count")->AsInt(), 1);
  EXPECT_GE(open->Find("last_open_ms")->AsDouble(), 0.0);
}

}  // namespace
}  // namespace xfrag::server

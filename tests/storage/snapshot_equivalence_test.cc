// The load-bearing property of the snapshot subsystem: a collection served
// from an mmap snapshot answers every query with the exact bytes the
// in-memory (parse → index → hash-cons) collection produces. The whole
// /query handler runs on both sides — strategies, filters, ranking, top-k,
// XML rendering, DAG replay over duplicated subtrees — and the rendered
// response bodies are compared byte for byte after zeroing the one
// non-deterministic field (elapsed_ms).

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "../testutil.h"
#include "collection/collection.h"
#include "common/json.h"
#include "gen/corpus.h"
#include "server/service.h"
#include "storage/snapshot.h"

namespace xfrag::storage {
namespace {

constexpr const char* kDocA = R"(
  <paper>
    <title>XQuery optimization</title>
    <section>algebra for fragments
      <par>query algebra</par>
      <par>optimization rules</par>
    </section>
    <section>ranking
      <par>query scores</par>
    </section>
  </paper>)";
// Two identical chapters: root-level duplicate subtrees, so the DAG replay
// path (evaluate one representative, replay for the twin) is exercised.
constexpr const char* kDocB = R"(
  <book>
    <chapter>fragment retrieval
      <par>xquery engines</par>
      <par>ranking fragments</par>
    </chapter>
    <chapter>fragment retrieval
      <par>xquery engines</par>
      <par>ranking fragments</par>
    </chapter>
  </book>)";
constexpr const char* kDocC = R"(
  <notes>
    <entry>query about nothing</entry>
    <entry>optimization of nothing</entry>
  </notes>)";

class SnapshotEquivalenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    in_memory_ = new collection::Collection();
    ASSERT_TRUE(in_memory_->AddXml("a.xml", kDocA).ok());
    ASSERT_TRUE(in_memory_->AddXml("b.xml", kDocB).ok());
    ASSERT_TRUE(in_memory_->AddXml("c.xml", kDocC).ok());
    // A generated document for scale beyond hand-written trees.
    gen::CorpusProfile profile;
    profile.target_nodes = 600;
    profile.seed = 7;
    gen::RawCorpus raw = gen::GenerateRaw(profile);
    Rng rng(8);
    gen::PlantKeyword(&raw, "query", 12, gen::PlantMode::kClustered, &rng);
    gen::PlantKeyword(&raw, "optimization", 9, gen::PlantMode::kScattered,
                      &rng);
    auto document = gen::Materialize(raw);
    ASSERT_TRUE(document.ok());
    ASSERT_TRUE(in_memory_->Add("gen.xml", std::move(*document)).ok());

    path_ = new std::string(testutil::ProcessTempDir() + "/equivalence.snap");
    auto written =
        WriteSnapshot(*in_memory_, text::IndexOptions{}, *path_);
    ASSERT_TRUE(written.ok()) << written.ToString();
    auto loaded = LoadCollectionFromSnapshot(*path_);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    snapshot_ = new SnapshotCollection(std::move(*loaded));
  }

  static void TearDownTestSuite() {
    delete snapshot_;
    snapshot_ = nullptr;
    std::remove(path_->c_str());
    delete path_;
    path_ = nullptr;
    delete in_memory_;
    in_memory_ = nullptr;
  }

  /// Renders one HandleQuery body with elapsed_ms zeroed.
  static std::string NormalizedBody(const server::QueryService& service,
                                    const std::string& request) {
    server::QueryOutcome outcome = service.HandleQuery(request);
    EXPECT_EQ(outcome.http_status, 200) << request << " -> "
                                        << outcome.body.Dump();
    outcome.body.Set("elapsed_ms", 0);
    return outcome.body.Dump();
  }

  /// The request matrix: every strategy crossed with the render/rank/top-k
  /// options the serving layer exposes.
  static std::vector<std::string> Requests() {
    std::vector<std::string> requests;
    for (const char* strategy :
         {"auto", "brute", "naive", "reduced", "pushdown"}) {
      requests.push_back(std::string(R"({"terms":["query"],"strategy":")") +
                         strategy + "\"}");
      requests.push_back(
          std::string(
              R"({"terms":["query","optimization"],"strategy":")") +
          strategy + R"(","filter":"size<=6"})");
    }
    requests.push_back(R"({"terms":["query"],"rank":true})");
    requests.push_back(R"({"terms":["query"],"top_k":3})");
    requests.push_back(R"({"terms":["query","optimization"],"top_k":5})");
    requests.push_back(R"({"terms":["xquery"],"xml":true})");
    requests.push_back(
        R"({"terms":["fragment"],"answer_mode":"leaf_strict"})");
    requests.push_back(
        R"({"terms":["xquery","ranking"],"filter":"height<=4","rank":true})");
    requests.push_back(R"({"terms":["query"],"max_answers":4})");
    requests.push_back(R"({"terms":["nosuchterm"]})");
    return requests;
  }

  static collection::Collection* in_memory_;
  static SnapshotCollection* snapshot_;
  static std::string* path_;
};

collection::Collection* SnapshotEquivalenceTest::in_memory_ = nullptr;
SnapshotCollection* SnapshotEquivalenceTest::snapshot_ = nullptr;
std::string* SnapshotEquivalenceTest::path_ = nullptr;

TEST_F(SnapshotEquivalenceTest, ResponsesAreByteIdentical) {
  server::ServiceOptions options;
  server::QueryService memory_service(*in_memory_, options);
  server::QueryService snapshot_service(snapshot_->collection, options);
  for (const std::string& request : Requests()) {
    SCOPED_TRACE(request);
    EXPECT_EQ(NormalizedBody(memory_service, request),
              NormalizedBody(snapshot_service, request));
  }
}

TEST_F(SnapshotEquivalenceTest, ResponsesAreByteIdenticalWithResultCache) {
  server::ServiceOptions options;
  options.result_cache_bytes = 4u << 20;
  server::QueryService memory_service(*in_memory_, options);
  server::QueryService snapshot_service(snapshot_->collection, options);
  // Twice: the second pass is served from the result cache on both sides.
  for (int round = 0; round < 2; ++round) {
    for (const std::string& request : Requests()) {
      SCOPED_TRACE(request);
      EXPECT_EQ(NormalizedBody(memory_service, request),
                NormalizedBody(snapshot_service, request));
    }
  }
}

TEST_F(SnapshotEquivalenceTest, ConcurrentQueriesStayIdentical) {
  server::ServiceOptions options;
  server::QueryService memory_service(*in_memory_, options);
  server::QueryService snapshot_service(snapshot_->collection, options);
  // Warm both services' fixed-point caches first: a cold-cache response
  // reports different work metrics than a warm one, and the concurrent
  // phase below interleaves arbitrarily, so only the warm steady state is
  // reproducible. Then compute the expected bytes single-threaded.
  std::vector<std::string> requests = Requests();
  for (const std::string& request : requests) {
    (void)memory_service.HandleQuery(request);
    (void)snapshot_service.HandleQuery(request);
  }
  std::vector<std::string> expected;
  expected.reserve(requests.size());
  for (const std::string& request : requests) {
    expected.push_back(NormalizedBody(memory_service, request));
  }
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  std::vector<int> mismatches(kThreads, 0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < requests.size(); ++i) {
        if (NormalizedBody(snapshot_service, requests[i]) != expected[i]) {
          ++mismatches[t];
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0) << t;
}

TEST_F(SnapshotEquivalenceTest, TrustedOpenIsEquivalentToo) {
  SnapshotOpenOptions open_options;
  open_options.validate_structure = false;
  auto trusted = LoadCollectionFromSnapshot(*path_, open_options);
  ASSERT_TRUE(trusted.ok()) << trusted.status().ToString();
  server::QueryService memory_service(*in_memory_, {});
  server::QueryService trusted_service(trusted->collection, {});
  for (const std::string& request : Requests()) {
    SCOPED_TRACE(request);
    EXPECT_EQ(NormalizedBody(memory_service, request),
              NormalizedBody(trusted_service, request));
  }
}

}  // namespace
}  // namespace xfrag::storage

// ThreadPool: deterministic chunking, full coverage of the index range,
// reentrancy (nested ParallelFor), and concurrent use from many threads.

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <numeric>
#include <thread>
#include <vector>

namespace xfrag {
namespace {

TEST(ThreadPoolChunksTest, PartitionIsContiguousAndBalanced) {
  for (size_t n : {0u, 1u, 2u, 7u, 8u, 9u, 100u, 1013u}) {
    for (unsigned parts : {1u, 2u, 3u, 4u, 8u, 16u}) {
      auto chunks = ThreadPool::Chunks(n, parts);
      if (n == 0) {
        EXPECT_TRUE(chunks.empty());
        continue;
      }
      ASSERT_FALSE(chunks.empty());
      EXPECT_LE(chunks.size(), static_cast<size_t>(parts));
      EXPECT_LE(chunks.size(), n);
      // Contiguous cover of [0, n) with near-equal sizes.
      size_t expect_begin = 0;
      size_t min_len = n, max_len = 0;
      for (const auto& [begin, end] : chunks) {
        EXPECT_EQ(begin, expect_begin);
        ASSERT_LT(begin, end);
        min_len = std::min(min_len, end - begin);
        max_len = std::max(max_len, end - begin);
        expect_begin = end;
      }
      EXPECT_EQ(expect_begin, n);
      EXPECT_LE(max_len - min_len, 1u);
    }
  }
}

TEST(ThreadPoolChunksTest, PartitionIsDeterministic) {
  auto a = ThreadPool::Chunks(1013, 7);
  auto b = ThreadPool::Chunks(1013, 7);
  EXPECT_EQ(a, b);
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  for (unsigned parallelism : {1u, 2u, 4u, 8u}) {
    ThreadPool pool(parallelism);
    EXPECT_EQ(pool.parallelism(), std::max(parallelism, 1u));
    const size_t n = 10007;
    std::vector<std::atomic<int>> visits(n);
    pool.ParallelFor(n, [&](unsigned, size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) visits[i].fetch_add(1);
    });
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(visits[i].load(), 1) << "index " << i;
    }
  }
}

TEST(ThreadPoolTest, ChunkIndicesMatchStaticPartition) {
  ThreadPool pool(4);
  const size_t n = 37;
  auto expected = ThreadPool::Chunks(n, pool.parallelism());
  std::mutex mutex;
  std::vector<std::pair<size_t, size_t>> seen(expected.size(), {0, 0});
  pool.ParallelFor(n, [&](unsigned chunk, size_t begin, size_t end) {
    std::lock_guard<std::mutex> lock(mutex);
    ASSERT_LT(chunk, seen.size());
    seen[chunk] = {begin, end};
  });
  EXPECT_EQ(seen, expected);
}

TEST(ThreadPoolTest, EmptyRangeIsANoOp) {
  ThreadPool pool(4);
  bool called = false;
  pool.ParallelFor(0, [&](unsigned, size_t, size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // A chunk body issuing its own ParallelFor on the same pool must complete
  // (the waiting thread helps drain the queue). Exercised with fewer OS
  // threads than logical chunks.
  ThreadPool pool(2);
  const size_t outer = 8, inner = 64;
  std::vector<std::atomic<int>> counts(outer * inner);
  pool.ParallelFor(outer, [&](unsigned, size_t begin, size_t end) {
    for (size_t o = begin; o < end; ++o) {
      pool.ParallelFor(inner, [&, o](unsigned, size_t ib, size_t ie) {
        for (size_t i = ib; i < ie; ++i) counts[o * inner + i].fetch_add(1);
      });
    }
  });
  for (auto& c : counts) ASSERT_EQ(c.load(), 1);
}

TEST(ThreadPoolTest, ConcurrentCallersShareOnePool) {
  ThreadPool pool(4);
  constexpr int kCallers = 6;
  const size_t n = 4096;
  std::vector<std::vector<std::atomic<int>>> visits(kCallers);
  for (auto& v : visits) {
    v = std::vector<std::atomic<int>>(n);
  }
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      pool.ParallelFor(n, [&, c](unsigned, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) visits[c][i].fetch_add(1);
      });
    });
  }
  for (auto& t : callers) t.join();
  for (int c = 0; c < kCallers; ++c) {
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(visits[c][i].load(), 1) << "caller " << c << " index " << i;
    }
  }
}

TEST(ThreadPoolTest, PerChunkAccumulatorsMergeToSerialTotal) {
  // The merged-at-the-barrier pattern the collection fan-out relies on.
  const size_t n = 100000;
  uint64_t serial = 0;
  for (size_t i = 0; i < n; ++i) serial += i * i;
  ThreadPool pool(8);
  std::vector<uint64_t> partial(pool.parallelism(), 0);
  pool.ParallelFor(n, [&](unsigned chunk, size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) partial[chunk] += i * i;
  });
  uint64_t merged = std::accumulate(partial.begin(), partial.end(), 0ull);
  EXPECT_EQ(merged, serial);
}

}  // namespace
}  // namespace xfrag

// ThreadPool: every posted task runs exactly once, from any number of
// posting threads, and tasks still queued at destruction are drained.

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace xfrag {
namespace {

TEST(ThreadPoolTest, ConcurrentCallersShareOnePool) {
  constexpr int kCallers = 6;
  constexpr size_t kTasksPerCaller = 2000;
  std::vector<std::vector<std::atomic<int>>> runs(kCallers);
  for (auto& r : runs) r = std::vector<std::atomic<int>>(kTasksPerCaller);
  std::atomic<size_t> done{0};
  {
    ThreadPool pool(4);
    std::vector<std::thread> callers;
    callers.reserve(kCallers);
    for (int c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        for (size_t i = 0; i < kTasksPerCaller; ++i) {
          pool.Post([&, c, i] {
            runs[c][i].fetch_add(1);
            done.fetch_add(1);
          });
        }
      });
    }
    for (auto& t : callers) t.join();
    while (done.load() < kCallers * kTasksPerCaller) {
      std::this_thread::yield();
    }
  }
  for (int c = 0; c < kCallers; ++c) {
    for (size_t i = 0; i < kTasksPerCaller; ++i) {
      ASSERT_EQ(runs[c][i].load(), 1) << "caller " << c << " task " << i;
    }
  }
}

TEST(ThreadPoolTest, QueuedTasksDrainAtDestruction) {
  constexpr int kQueued = 100;
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    // The only worker is busy while the rest queue up behind it, so the
    // pool is destroyed with tasks still queued.
    pool.Post([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ran.fetch_add(1);
    });
    for (int i = 0; i < kQueued; ++i) {
      pool.Post([&] { ran.fetch_add(1); });
    }
  }
  EXPECT_EQ(ran.load(), kQueued + 1);
}

}  // namespace
}  // namespace xfrag

// A fixed-size pool of worker threads fed by a FIFO task queue — the
// accept→worker pipeline of the HTTP server and the router's shard fan-out.
// Tasks are free-standing: Post never blocks and gives no completion
// barrier, so each task tracks its own completion.

#ifndef XFRAG_COMMON_THREAD_POOL_H_
#define XFRAG_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace xfrag {

/// \brief Fixed-size worker pool running posted tasks.
class ThreadPool {
 public:
  /// \brief Spawns `threads` worker threads (eagerly, once).
  explicit ThreadPool(unsigned threads);

  /// Joins all workers after they drain the tasks still queued.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// \brief Enqueues a task; some worker runs it exactly once. Tasks still
  /// queued at destruction are drained by the exiting workers, not dropped.
  /// A pool without threads never runs a task.
  void Post(std::function<void()> task);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  /// Signals "task available" and "stopping".
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
};

}  // namespace xfrag

#endif  // XFRAG_COMMON_THREAD_POOL_H_

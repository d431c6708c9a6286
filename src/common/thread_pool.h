// A small fixed-size thread pool with deterministic chunked fan-out — the
// execution substrate for the collection engine's per-document fan-out and
// (through Post) the HTTP server's and router's worker threads.
//
// Design constraints:
//  * no work stealing: ParallelFor statically partitions [0, n) into one
//    contiguous chunk per worker, so the assignment of indices to chunks is a
//    pure function of (n, parallelism) and results merged in chunk order are
//    bit-identical run to run;
//  * the calling thread participates as chunk 0, so ThreadPool(p) spawns only
//    p − 1 OS threads and ThreadPool(1) spawns none (pure serial execution);
//  * a thread waiting for its ParallelFor to finish helps drain the task
//    queue, which makes nested ParallelFor calls on one pool deadlock-free.

#ifndef XFRAG_COMMON_THREAD_POOL_H_
#define XFRAG_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace xfrag {

/// \brief Fixed-size pool executing deterministic chunked parallel loops.
class ThreadPool {
 public:
  /// \brief Creates a pool of total `parallelism` workers, counting the
  /// calling thread; `parallelism` ≤ 1 spawns no threads. Spawning is eager,
  /// so a pool can be built once and reused across many operator calls.
  explicit ThreadPool(unsigned parallelism);

  /// Joins all workers. Outstanding ParallelFor calls must have returned.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total workers, including the calling thread (≥ 1).
  unsigned parallelism() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// \brief The deterministic partition of [0, n) into at most `parts`
  /// contiguous, near-equal chunks (empty chunks are omitted). Exposed so
  /// callers and tests can reason about the exact chunking.
  static std::vector<std::pair<size_t, size_t>> Chunks(size_t n,
                                                       unsigned parts);

  /// \brief Runs `body(chunk, begin, end)` for every chunk of the
  /// deterministic partition of [0, n), distributing chunks over the pool.
  ///
  /// Chunk 0 runs on the calling thread; the call returns only after every
  /// chunk has finished (the barrier at which per-chunk results are merged).
  /// Safe to call concurrently from several threads and reentrantly from
  /// inside a chunk body; bodies must synchronize any shared state they
  /// touch themselves (the intended pattern is one output slot per chunk).
  void ParallelFor(
      size_t n,
      const std::function<void(unsigned chunk, size_t begin, size_t end)>&
          body);

  /// \brief Enqueues a free-standing task; some pool thread runs it once.
  ///
  /// This is the server's accept→worker pipeline primitive: unlike
  /// ParallelFor, Post does not block and provides no completion barrier —
  /// the task tracks its own completion (the server counts in-flight
  /// requests). Requires a pool with parallelism ≥ 2: with no spawned
  /// workers there is no thread to ever run the task. Tasks still queued at
  /// destruction are drained by the exiting workers, not dropped. A thread
  /// blocked in ParallelFor may also pick a posted task up (help-first
  /// waiting), so tasks must not assume a dedicated thread.
  void Post(std::function<void()> task);

 private:
  void WorkerLoop();
  /// Pops and runs queued tasks until `done` becomes true (help-first wait).
  void HelpWhileWaiting(std::unique_lock<std::mutex>& lock,
                        const std::function<bool()>& done);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  /// Signals both "task available" and "some task finished".
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
};

}  // namespace xfrag

#endif  // XFRAG_COMMON_THREAD_POOL_H_

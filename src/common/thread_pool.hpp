// Shared thread pool of the offline pipeline (fleet sweeps, featurization,
// evaluation); parallel_for is its one use. A call puts its job in the
// pool's one slot and claims chunks off one atomic cursor, in ascending
// index order, next to the N − 1 workers of a pool of N (a pool of 1 runs
// inline). Each index writes its own output slot, so results do not depend
// on the thread count (docs/TESTING.md). Concurrent callers take turns at
// the slot; a task that calls parallel_for on its own pool fails a CHECK.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ca5g::common {

/// Threads for a caller that passes 0: CA5G_THREADS if > 0, else the hardware's.
[[nodiscard]] std::size_t default_thread_count();

class ThreadPool {
 public:
  /// The caller of parallel_for plus threads − 1 workers (0 → default_thread_count()).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;  // workers hold `this`
  ThreadPool& operator=(const ThreadPool&) = delete;
  [[nodiscard]] std::size_t thread_count() const noexcept { return workers_.size() + 1; }

 private:
  struct Job;
  friend void parallel_for(ThreadPool&, std::size_t, const std::function<void(std::size_t)>&);
  void work(Job& job);
  void worker_loop();

  std::mutex mu_;               ///< guards the slot, stop_ and each Job's active/error
  std::condition_variable cv_;  ///< signals every change to what mu_ guards
  Job* job_ = nullptr;          ///< the slot
  bool stop_ = false;
  std::vector<std::thread> workers_;  // after what they use
  static thread_local const ThreadPool* current_;  ///< pool whose task this thread runs
};

/// Run fn(i) for every i in [0, n) on `pool`, blocking until done. fn must only
/// write state owned by index i: that makes results thread-count-invariant.
/// The first exception a task throws stops further claims and re-throws here.
void parallel_for(ThreadPool& pool, std::size_t n, const std::function<void(std::size_t)>& fn);

/// Convenience: run on a temporary pool of min(threads, n) threads
/// (0 → auto); one thread runs inline on the caller.
void parallel_for(std::size_t threads, std::size_t n, const std::function<void(std::size_t)>& fn);

}  // namespace ca5g::common

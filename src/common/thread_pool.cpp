#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>

#include "common/contracts.hpp"

namespace ca5g::common {

thread_local const ThreadPool* ThreadPool::current_ = nullptr;

struct ThreadPool::Job {
  const std::function<void(std::size_t)>& fn;
  std::size_t n, chunk;
  std::atomic<std::size_t> next{0};    ///< the cursor: first unclaimed index
  std::size_t active = 0;              ///< workers inside work()
  std::exception_ptr error = nullptr;  ///< first exception a task threw
};

std::size_t default_thread_count() {
  const char* env = std::getenv("CA5G_THREADS");
  const long v = env ? std::strtol(env, nullptr, 10) : 0;
  return v > 0 ? static_cast<std::size_t>(v) : std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t n = threads == 0 ? default_thread_count() : threads;
  for (std::size_t i = 1; i < n; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  { const std::lock_guard<std::mutex> lock(mu_); stop_ = true; }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::work(Job& job) {
  for (;;) {
    const std::size_t lo = job.next.fetch_add(job.chunk, std::memory_order_relaxed);
    if (lo >= job.n) return;
    try {
      for (std::size_t i = lo; i < std::min(job.n, lo + job.chunk); ++i) job.fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!job.error) job.error = std::current_exception();
      job.next.store(job.n, std::memory_order_relaxed);  // no further claims
    }
  }
}

void ThreadPool::worker_loop() {
  current_ = this;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return stop_ || (job_ != nullptr && job_->next < job_->n); });
    if (stop_) return;
    Job& job = *job_;  // joined under the lock: its caller waits for this worker to leave
    ++job.active;
    lock.unlock();
    work(job);
    lock.lock();
    if (--job.active == 0) cv_.notify_all();
  }
}

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  CA5G_CHECK_MSG(ThreadPool::current_ != &pool, "parallel_for re-entered from its own pool");
  // ~8 chunks per thread: slack for uneven indices, few cursor claims.
  ThreadPool::Job job{fn, n, std::max<std::size_t>(1, n / (pool.thread_count() * 8))};
  std::unique_lock<std::mutex> lock(pool.mu_);
  pool.cv_.wait(lock, [&pool] { return pool.job_ == nullptr; });  // another caller's turn
  pool.job_ = &job;
  lock.unlock();
  pool.cv_.notify_all();
  const ThreadPool* outer = ThreadPool::current_;
  ThreadPool::current_ = &pool;
  pool.work(job);
  ThreadPool::current_ = outer;
  lock.lock();
  pool.job_ = nullptr;  // a worker that wakes from here on cannot join this job
  pool.cv_.notify_all();
  pool.cv_.wait(lock, [&job] { return job.active == 0; });
  if (job.error) std::rethrow_exception(job.error);
}

void parallel_for(std::size_t threads, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  ThreadPool pool(std::min(threads == 0 ? default_thread_count() : threads, n));
  parallel_for(pool, n, fn);
}

}  // namespace ca5g::common

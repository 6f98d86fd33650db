// Tests for the shared thread pool: coverage of every index, a pool of N
// running N threads with the caller among them, ascending chunk claims,
// exception propagation and reuse, concurrent callers, re-entry, and the
// CA5G_THREADS sizing knob. Runs under CI's TSan `parallel` stage — these
// tests are the pool's race coverage — with a ctest TIMEOUT, so a lost
// wake-up or a deadlock fails instead of hanging.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/contracts.hpp"
#include "common/thread_pool.hpp"

namespace {

using namespace ca5g;

TEST(ThreadPool, PoolOfNRunsNThreadsIncludingTheCaller) {
  // One index per thread, each blocking until N threads have arrived (or
  // 5 s, below the ctest TIMEOUT): N arrive only if N threads run the job
  // at once, the caller among them.
  for (const std::size_t n : {1u, 2u, 4u}) {
    common::ThreadPool pool(n);
    EXPECT_EQ(pool.thread_count(), n);
    std::atomic<std::size_t> arrived{0};
    std::mutex mu;
    std::set<std::thread::id> ids;
    common::parallel_for(pool, n, [&](std::size_t) {
      {
        const std::lock_guard<std::mutex> lock(mu);
        ids.insert(std::this_thread::get_id());
      }
      arrived.fetch_add(1);
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (arrived.load() < n && std::chrono::steady_clock::now() < deadline)
        std::this_thread::yield();
    });
    EXPECT_EQ(arrived.load(), n);
    EXPECT_EQ(ids.size(), n);
    EXPECT_EQ(ids.count(std::this_thread::get_id()), 1u);
  }
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  common::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  common::parallel_for(pool, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, BackToBackCallsKeepTheirOwnIndices) {
  // Short jobs in quick succession: a worker that wakes late for one call
  // must never run indices of the next call with the old call's fn.
  common::ThreadPool pool(4);
  for (std::size_t round = 0; round < 200; ++round) {
    const std::size_t n = 1 + round % 7;
    std::vector<std::atomic<std::size_t>> hits(n);
    common::parallel_for(pool, n, [&](std::size_t i) { hits[i].fetch_add(round + 1); });
    for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), round + 1) << round;
  }
}

TEST(ThreadPool, ParallelForZeroAndOneElement) {
  common::ThreadPool pool(2);
  common::parallel_for(pool, 0, [&](std::size_t) { FAIL() << "fn called for n=0"; });
  int calls = 0;
  common::parallel_for(1, 1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPool, ParallelForSingleThreadRunsInline) {
  const auto caller = std::this_thread::get_id();
  common::parallel_for(1, 8, [&](std::size_t) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(ThreadPool, ClaimsChunksInAscendingOrder) {
  // 32 indices on 4 threads are chunks of one index. Claims come off one
  // ascending cursor, so when index j starts, every smaller index has been
  // claimed, and at most the other 3 threads can hold one not yet started.
  // Index 0 sleeps, so a pool that hands out the top of the range while
  // one thread is busy fails.
  common::ThreadPool pool(4);
  constexpr std::size_t kN = 32;
  std::atomic<std::size_t> next_ticket{0};
  std::vector<std::size_t> ticket(kN);
  common::parallel_for(pool, kN, [&](std::size_t i) {
    ticket[i] = next_ticket.fetch_add(1);
    if (i == 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  });
  for (std::size_t j = 0; j < kN; ++j) {
    std::size_t started_later = 0;
    for (std::size_t i = 0; i < j; ++i) started_later += ticket[i] > ticket[j] ? 1 : 0;
    EXPECT_LE(started_later, pool.thread_count() - 1) << "index " << j;
  }
}

TEST(ThreadPool, ParallelForPropagatesTaskException) {
  EXPECT_THROW(common::parallel_for(4, 64,
                                    [](std::size_t i) {
                                      if (i == 13) throw std::runtime_error("index boom");
                                    }),
               std::runtime_error);
}

TEST(ThreadPool, ReusableAfterATaskThrows) {
  common::ThreadPool pool(3);
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(common::parallel_for(pool, 100,
                                      [](std::size_t i) {
                                        if (i % 10 == 3) throw std::runtime_error("boom");
                                      }),
                 std::runtime_error);
    std::vector<std::atomic<int>> hits(100);
    common::parallel_for(pool, hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPool, TwoConcurrentCallersShareOnePool) {
  common::ThreadPool pool(3);
  constexpr int kRounds = 20;
  std::vector<std::vector<std::atomic<int>>> hits;
  hits.emplace_back(500);
  hits.emplace_back(500);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < hits.size(); ++c)
    callers.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round)
        common::parallel_for(pool, hits[c].size(), [&](std::size_t i) { hits[c][i].fetch_add(1); });
    });
  for (auto& t : callers) t.join();
  for (const auto& caller_hits : hits)
    for (std::size_t i = 0; i < caller_hits.size(); ++i)
      EXPECT_EQ(caller_hits[i].load(), kRounds) << i;
}

TEST(ThreadPool, ReentryFromOwnTaskFailsCheck) {
  for (const std::size_t n : {1u, 3u}) {
    common::ThreadPool pool(n);
    EXPECT_THROW(common::parallel_for(pool, 8,
                                      [&](std::size_t) {
                                        common::parallel_for(pool, 2, [](std::size_t) {});
                                      }),
                 common::CheckError);
    // A task may still run a parallel_for on another pool.
    std::atomic<int> inner{0};
    common::parallel_for(pool, 4, [&](std::size_t) {
      common::parallel_for(2, 3, [&](std::size_t) { inner.fetch_add(1); });
    });
    EXPECT_EQ(inner.load(), 12);
  }
}

TEST(ThreadPool, DefaultThreadCountHonorsEnv) {
  ::setenv("CA5G_THREADS", "3", 1);
  EXPECT_EQ(common::default_thread_count(), 3u);
  ::setenv("CA5G_THREADS", "0", 1);  // invalid: falls back to hardware
  EXPECT_GE(common::default_thread_count(), 1u);
  ::unsetenv("CA5G_THREADS");
  EXPECT_GE(common::default_thread_count(), 1u);
}

}  // namespace

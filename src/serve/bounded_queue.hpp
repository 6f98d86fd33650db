// Bounded MPMC request queue with work-conserving batch consumption: the
// backbone of the prediction server's micro-batching dispatch. Producers
// never block — try_push() is the admission-control point and returns
// false when the queue is full, which the server surfaces as load
// shedding. Consumers pop whole batches: pop_batch() blocks until at
// least one item is queued, then takes whatever is there (up to the batch
// size) and returns at once. There is no batch timer, so a lone request
// is dispatched immediately and batches grow only from backlog.
//
// Wake rule: try_push() wakes a consumer only when it takes the queue
// from empty to non-empty, which keeps the wake off most pushes under
// load; a pop that leaves items behind wakes the next consumer (a chained
// wake), so no consumer sleeps while a backlog waits.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "common/contracts.hpp"

namespace ca5g::serve {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {
    CA5G_CHECK_MSG(capacity_ > 0, "BoundedQueue capacity must be positive");
  }

  /// Non-blocking producer path. False when full or closed (the caller
  /// sheds the request); true once the item is queued.
  [[nodiscard]] bool try_push(T item) {
    bool was_empty = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      was_empty = items_.empty();
      items_.push_back(std::move(item));
    }
    if (was_empty) not_empty_.notify_one();
    return true;
  }

  /// Move up to `max` queued items into `out` (appended). Blocks until at
  /// least one item is queued or the queue is closed, then returns at
  /// once with what is there. Returns the number of items appended (0
  /// only when closed and drained).
  std::size_t pop_batch(std::vector<T>& out, std::size_t max) {
    std::size_t popped = 0;
    bool backlog = false;
    {
      std::unique_lock<std::mutex> lock(mu_);
      not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
      for (; popped < max && !items_.empty(); ++popped) {
        out.push_back(std::move(items_.front()));
        items_.pop_front();
      }
      backlog = !items_.empty();
    }
    if (backlog) not_empty_.notify_one();
    return popped;
  }

  /// Close the queue: producers start failing, consumers drain what is
  /// left and then see pop_batch() return 0.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace ca5g::serve

// RAII wall-time spans: a ScopedTimer records the nanoseconds between its
// construction and destruction into a Histogram, surviving early returns
// and exceptions alike. The CA5G_SCOPED_TIMER macro pairs with the
// CA5G_METRIC_HISTOGRAM registration macro.
//
// StopWatch is the sibling for code that needs elapsed time as data
// (steps/s gauges, bench harnesses) rather than as telemetry.
#pragma once

#include <chrono>
#include <cstdint>

#include "obs/metrics.hpp"

namespace ca5g::obs {

/// Monotonic elapsed-time reader.
class StopWatch {
 public:
  StopWatch() noexcept : start_(clock::now()) {}

  [[nodiscard]] std::int64_t elapsed_ns() const noexcept {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - start_).count();
  }
  [[nodiscard]] double elapsed_s() const noexcept {
    return static_cast<double>(elapsed_ns()) * 1e-9;
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Records scope wall-time (ns) into a histogram on destruction.
/// Non-copyable, non-movable: one span per scope, by construction.
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& hist) noexcept : hist_(hist) {}
  ~ScopedTimer() { hist_.observe(static_cast<double>(watch_.elapsed_ns())); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;
  ScopedTimer(ScopedTimer&&) = delete;
  ScopedTimer& operator=(ScopedTimer&&) = delete;

 private:
  Histogram& hist_;
  StopWatch watch_;
};

}  // namespace ca5g::obs

// CA5G_SCOPED_TIMER(hist): time the enclosing scope into `hist`, where
// `hist` was declared by CA5G_METRIC_HISTOGRAM above it. The
// variable name is uniqued per line so multiple timers can share a scope.
#define CA5G_OBS_TIMER_CONCAT2(a, b) a##b
#define CA5G_OBS_TIMER_CONCAT(a, b) CA5G_OBS_TIMER_CONCAT2(a, b)

#define CA5G_SCOPED_TIMER(hist) \
  ::ca5g::obs::ScopedTimer CA5G_OBS_TIMER_CONCAT(ca5g_obs_timer_, __LINE__)(hist)

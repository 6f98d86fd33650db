// Process-wide metrics registry: the observability substrate the paper's
// methodology implies — XCAL exported machine-readable KPIs every 10 ms;
// our simulator, trainer, and predictors export theirs through here.
//
// Three instrument kinds, all lock-free on the fast path (one relaxed
// atomic op per update, no mutex per increment):
//
//   Counter    monotone u64 (events, rows, lookups)        *_total
//   Gauge      last-written double (loss, rates)           unit-suffixed
//   Histogram  fixed log-spaced buckets (ns..s latencies,  *_ns, *_mbps
//              Mbps throughputs) with count/sum/min/max
//
// Registration (name → instrument) takes a mutex once per call site; the
// CA5G_METRIC_* macros below cache the reference in a function-local
// static so steady-state updates never touch it.
//
// Metric names follow `layer.noun_unit` (see docs/OBSERVABILITY.md and
// the prism5g_lint naming rule): lowercase dot-separated segments, the
// last ending in a recognised unit suffix, e.g. `sim.steps_total`,
// `predictor.inference_ns`, `nn.train_epochs_total`.
//
// Instrumentation is always compiled in; bench_obs_overhead holds its cost
// under 2% of a sim run (see docs/OBSERVABILITY.md).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace ca5g::obs {

// --- Naming convention -------------------------------------------------------

/// True when `name` follows the `layer.noun_unit` convention: at least two
/// lowercase `[a-z][a-z0-9_]*` segments separated by dots, the final segment
/// ending in a recognised unit suffix (`_total`, `_ns`, `_s`, `_bytes`,
/// `_mbps`, `_ratio`, `_count`, `_db`, `_per_s`, `_rmse`).
[[nodiscard]] bool is_valid_metric_name(std::string_view name);

/// The unit suffixes is_valid_metric_name() accepts, for diagnostics.
[[nodiscard]] const std::vector<std::string>& metric_unit_suffixes();

// --- Instruments -------------------------------------------------------------

/// Monotone event counter. inc() is one relaxed fetch_add.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept { value_.fetch_add(n, std::memory_order_relaxed); }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-value gauge. set() is one relaxed store; add() a CAS loop.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta, std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const noexcept { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket log-spaced histogram. observe() costs two relaxed atomic
/// RMWs plus a log(); count/sum/min/max are tracked for mean and export.
/// Every histogram has one bucket layout: kBucketCount log-spaced buckets
/// spanning [kLower, kUpper), plus one overflow bucket. It covers 1 ns to
/// 100 s — wide enough for per-step latencies and whole-training walls.
class Histogram {
 public:
  static constexpr std::size_t kBucketCount = 64;
  static constexpr double kLower = 1.0;   ///< values ≤ kLower land in bucket 0
  static constexpr double kUpper = 1e11;  ///< values ≥ kUpper land in the overflow bucket

  void observe(double v) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

  /// Inclusive upper bound of bucket `i` (i == kBucketCount → +inf). The
  /// one bound function: snapshot quantiles and the JSON export read it.
  [[nodiscard]] static double bucket_upper_bound(std::size_t i) noexcept;
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Index of the bucket a value lands in (last index = overflow).
  [[nodiscard]] static std::size_t bucket_index(double v) noexcept;

 private:
  std::array<std::atomic<std::uint64_t>, kBucketCount + 1> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};

  friend struct HistogramSnapshot;
};

// --- Snapshots ---------------------------------------------------------------

/// Point-in-time copy of one histogram; safe to serialize while the live
/// instrument keeps counting.
struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::vector<std::uint64_t> buckets;  ///< kBucketCount + 1 (overflow last)

  [[nodiscard]] static HistogramSnapshot from(const std::string& name, const Histogram& h);

  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
  /// Upper bound of the bucket where the cumulative count reaches q·count
  /// (q in [0,1]); a bucket-resolution quantile estimate.
  [[nodiscard]] double quantile(double q) const;
};

/// Full registry snapshot: isolated from later updates.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;

  [[nodiscard]] const HistogramSnapshot* histogram(std::string_view name) const;
  [[nodiscard]] const std::uint64_t* counter(std::string_view name) const;
};

/// Backslash-escape `s` for embedding inside a JSON string literal
/// (quotes, backslashes, control characters; no surrounding quotes).
[[nodiscard]] std::string json_escape(std::string_view s);

/// Render a double as a JSON number token. JSON has no inf/nan: nan
/// becomes 0, ±inf clamps to ±1e308.
[[nodiscard]] std::string json_number(double v);

/// JSON object: {"counters": {...}, "gauges": {...}, "histograms": {...}}.
[[nodiscard]] std::string to_json(const MetricsSnapshot& snapshot, int indent = 2);

// --- Registry ----------------------------------------------------------------

/// Name → instrument map. Thread-safe: registration and snapshot take a
/// mutex; returned references are stable for the registry's lifetime, so
/// hot paths cache them (see CA5G_METRIC_*) and update lock-free.
class MetricsRegistry {
 public:
  /// The process-wide registry used by all instrumentation sites.
  [[nodiscard]] static MetricsRegistry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  [[nodiscard]] MetricsSnapshot snapshot() const;
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace ca5g::obs

// --- Instrumentation macros --------------------------------------------------
//
// Usage at a call site (function scope):
//
//   CA5G_METRIC_COUNTER(steps, "sim.steps_total");
//   steps.inc();
//
// The first line declares `static obs::Counter& steps = ...` (one registry
// lookup ever, thread-safe static init).
#define CA5G_METRIC_COUNTER(var, name) \
  static ::ca5g::obs::Counter& var = ::ca5g::obs::MetricsRegistry::global().counter(name)
#define CA5G_METRIC_GAUGE(var, name) \
  static ::ca5g::obs::Gauge& var = ::ca5g::obs::MetricsRegistry::global().gauge(name)
#define CA5G_METRIC_HISTOGRAM(var, name) \
  static ::ca5g::obs::Histogram& var = ::ca5g::obs::MetricsRegistry::global().histogram(name)

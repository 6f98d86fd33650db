#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "common/contracts.hpp"

namespace ca5g::obs {
namespace {

/// Atomic min/max for doubles via CAS (relaxed: statistics, not ordering).
void atomic_min(std::atomic<double>& slot, double v) noexcept {
  double cur = slot.load(std::memory_order_relaxed);
  while (v < cur && !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& slot, double v) noexcept {
  double cur = slot.load(std::memory_order_relaxed);
  while (v > cur && !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_add(std::atomic<double>& slot, double v) noexcept {
  double cur = slot.load(std::memory_order_relaxed);
  while (!slot.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

bool is_segment(std::string_view seg) {
  if (seg.empty()) return false;
  if (seg.front() < 'a' || seg.front() > 'z') return false;
  for (char c : seg) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

// --- JSON helpers ------------------------------------------------------------

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  // JSON has no inf/nan; clamp to null-free sentinels.
  if (std::isnan(v)) return "0";
  if (std::isinf(v)) return v > 0 ? "1e308" : "-1e308";
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

// --- Naming convention -------------------------------------------------------

const std::vector<std::string>& metric_unit_suffixes() {
  static const std::vector<std::string> kSuffixes = {
      "_total", "_ns", "_s", "_bytes", "_mbps", "_ratio", "_count", "_db", "_per_s",
      "_rmse",
  };
  return kSuffixes;
}

bool is_valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 128) return false;
  std::size_t start = 0;
  std::size_t segments = 0;
  std::string_view last;
  while (start <= name.size()) {
    const std::size_t dot = name.find('.', start);
    const std::string_view seg =
        name.substr(start, dot == std::string_view::npos ? std::string_view::npos
                                                         : dot - start);
    if (!is_segment(seg)) return false;
    last = seg;
    ++segments;
    if (dot == std::string_view::npos) break;
    start = dot + 1;
  }
  if (segments < 2) return false;
  for (const auto& suffix : metric_unit_suffixes()) {
    if (last.size() > suffix.size() &&
        last.substr(last.size() - suffix.size()) == suffix)
      return true;
    // A bare-unit final segment ("sim.wall.s") is not the convention; the
    // unit rides on the noun ("sim.wall_s"), hence the > above.
  }
  return false;
}

// --- Histogram ---------------------------------------------------------------

// kLower is 1, so its log (0) drops out of the bucket arithmetic below.
static_assert(Histogram::kLower == 1.0);

namespace {

/// Buckets per unit of log(v): the reciprocal log-width of one bucket.
double inv_log_ratio() noexcept {
  static const double inv =
      1.0 / (std::log(Histogram::kUpper) / static_cast<double>(Histogram::kBucketCount));
  return inv;
}

}  // namespace

std::size_t Histogram::bucket_index(double v) noexcept {
  if (!(v > kLower)) return 0;  // also catches NaN and negatives
  if (v >= kUpper) return kBucketCount;
  const auto idx = static_cast<std::size_t>(std::log(v) * inv_log_ratio());
  return std::min(idx, kBucketCount - 1);
}

double Histogram::bucket_upper_bound(std::size_t i) noexcept {
  if (i >= kBucketCount) return std::numeric_limits<double>::infinity();
  return std::exp(static_cast<double>(i + 1) / inv_log_ratio());
}

void Histogram::observe(double v) noexcept {
  buckets_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t before = count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, v);
  if (before == 0) {
    // First observation seeds min/max; racing observers correct via CAS.
    min_.store(v, std::memory_order_relaxed);
    max_.store(v, std::memory_order_relaxed);
  }
  atomic_min(min_, v);
  atomic_max(max_, v);
}

// --- Snapshots ---------------------------------------------------------------

HistogramSnapshot HistogramSnapshot::from(const std::string& name, const Histogram& h) {
  HistogramSnapshot snap;
  snap.name = name;
  snap.count = h.count();
  snap.sum = h.sum();
  snap.min = h.min_.load(std::memory_order_relaxed);
  snap.max = h.max_.load(std::memory_order_relaxed);
  snap.buckets.resize(Histogram::kBucketCount + 1);
  for (std::size_t i = 0; i < snap.buckets.size(); ++i) snap.buckets[i] = h.bucket_count(i);
  return snap;
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<double>(count)));
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    cumulative += buckets[i];
    if (cumulative >= target && cumulative > 0) {
      if (i >= Histogram::kBucketCount) return max;  // overflow bucket
      return std::min(Histogram::bucket_upper_bound(i), max);
    }
  }
  return max;
}

const HistogramSnapshot* MetricsSnapshot::histogram(std::string_view name) const {
  for (const auto& h : histograms)
    if (h.name == name) return &h;
  return nullptr;
}

const std::uint64_t* MetricsSnapshot::counter(std::string_view name) const {
  for (const auto& [key, value] : counters)
    if (key == name) return &value;
  return nullptr;
}

// --- Export ------------------------------------------------------------------

std::string to_json(const MetricsSnapshot& snapshot, int indent) {
  const std::string pad(static_cast<std::size_t>(std::max(indent, 0)), ' ');
  const std::string pad2 = pad + pad;
  const std::string pad3 = pad2 + pad;
  const char* nl = indent > 0 ? "\n" : "";
  std::ostringstream os;
  os << '{' << nl;

  os << pad << "\"counters\": {" << nl;
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    os << pad2 << '"' << snapshot.counters[i].first << "\": " << snapshot.counters[i].second
       << (i + 1 < snapshot.counters.size() ? "," : "") << nl;
  }
  os << pad << "}," << nl;

  os << pad << "\"gauges\": {" << nl;
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    os << pad2 << '"' << snapshot.gauges[i].first
       << "\": " << json_number(snapshot.gauges[i].second)
       << (i + 1 < snapshot.gauges.size() ? "," : "") << nl;
  }
  os << pad << "}," << nl;

  os << pad << "\"histograms\": {" << nl;
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const auto& h = snapshot.histograms[i];
    os << pad2 << '"' << h.name << "\": {" << nl;
    os << pad3 << "\"count\": " << h.count << "," << nl;
    os << pad3 << "\"sum\": " << json_number(h.sum) << "," << nl;
    os << pad3 << "\"min\": " << json_number(h.min) << "," << nl;
    os << pad3 << "\"max\": " << json_number(h.max) << "," << nl;
    os << pad3 << "\"mean\": " << json_number(h.mean()) << "," << nl;
    os << pad3 << "\"p50\": " << json_number(h.quantile(0.5)) << "," << nl;
    os << pad3 << "\"p99\": " << json_number(h.quantile(0.99)) << "," << nl;
    // Sparse bucket list: only occupied buckets, as [upper_bound, count].
    os << pad3 << "\"buckets\": [";
    bool first = true;
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b] == 0) continue;
      if (!first) os << ", ";
      first = false;
      const double le = Histogram::bucket_upper_bound(b);
      os << '[' << (std::isinf(le) ? std::string("\"+inf\"") : json_number(le)) << ", "
         << h.buckets[b] << ']';
    }
    os << ']' << nl;
    os << pad2 << '}' << (i + 1 < snapshot.histograms.size() ? "," : "") << nl;
  }
  os << pad << '}' << nl;

  os << '}' << nl;
  return os.str();
}

// --- Registry ----------------------------------------------------------------

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  CA5G_CHECK_MSG(is_valid_metric_name(name),
                 "metric name violates the layer.noun_unit convention: " << name);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end())
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  CA5G_CHECK_MSG(is_valid_metric_name(name),
                 "metric name violates the layer.noun_unit convention: " << name);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end())
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  CA5G_CHECK_MSG(is_valid_metric_name(name),
                 "metric name violates the layer.noun_unit convention: " << name);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end())
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>()).first;
  return *it->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) snap.counters.emplace_back(name, c->value());
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) snap.gauges.emplace_back(name, g->value());
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_)
    snap.histograms.push_back(HistogramSnapshot::from(name, *h));
  return snap;
}

std::vector<std::string> MetricsRegistry::names() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& kv : counters_) out.push_back(kv.first);
  for (const auto& kv : gauges_) out.push_back(kv.first);
  for (const auto& kv : histograms_) out.push_back(kv.first);
  return out;
}

}  // namespace ca5g::obs

#include "bench_core.hpp"

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <queue>
#include <stdexcept>
#include <thread>
#include <unordered_map>

namespace perfbench {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

double unit_uniform(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  const std::uint64_t h = mix64(mix64(mix64(seed) ^ a) ^ (b * 0x632BE59BD9B4E019ULL));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

double exact_quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

WindowedQuantiles windowed_quantiles(const std::vector<std::int64_t>& t_ns,
                                     const std::vector<double>& values, std::int64_t window_ns) {
  if (window_ns <= 0) throw std::invalid_argument("windowed_quantiles: window must be positive");
  std::map<std::int64_t, std::vector<double>> bins;
  for (std::size_t i = 0; i < t_ns.size() && i < values.size(); ++i)
    bins[t_ns[i] / window_ns].push_back(values[i]);
  std::vector<double> p50, p99;
  for (auto& [w, v] : bins) {
    p50.push_back(exact_quantile(v, 0.50));
    p99.push_back(exact_quantile(v, 0.99));
  }
  return {median(p50), median(p99), bins.size()};
}

std::vector<Arrival> make_schedule(std::size_t ues, double rate_per_s, double duration_s,
                                   std::uint64_t seed) {
  if (ues == 0 || rate_per_s <= 0.0 || duration_s <= 0.0)
    throw std::invalid_argument("make_schedule: ues, rate and duration must be positive");
  const double period_ns = static_cast<double>(ues) / rate_per_s * 1e9;
  const double end_ns = duration_s * 1e9;
  // K-way merge of the per-UE arithmetic progressions.
  using Item = std::pair<double, std::uint32_t>;  // (due, ue)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
  for (std::size_t u = 0; u < ues; ++u) {
    const double phase = unit_uniform(seed, u, 0x5CED) * period_ns;
    if (phase < end_ns) heap.emplace(phase, static_cast<std::uint32_t>(u));
  }
  std::vector<Arrival> out;
  out.reserve(static_cast<std::size_t>(rate_per_s * duration_s) + ues);
  while (!heap.empty()) {
    const auto [due, ue] = heap.top();
    heap.pop();
    out.push_back({static_cast<std::int64_t>(due), ue});
    if (due + period_ns < end_ns) heap.emplace(due + period_ns, ue);
  }
  return out;
}

std::vector<double> make_ladder(double base, double ratio, std::size_t rungs) {
  std::vector<double> out;
  double r = base;
  for (std::size_t i = 0; i < rungs; ++i, r *= ratio) out.push_back(std::round(r));
  return out;
}

bool rung_passes(const RungResult& r, const Slo& slo) {
  if (r.attempted == 0) return false;
  const double failed_share =
      static_cast<double>(r.failed) / static_cast<double>(r.attempted);
  return r.p99_ms <= slo.p99_limit_ms && failed_share <= slo.max_failed_share &&
         !r.backlog_growing;
}

int select_max_rate(const std::vector<RungResult>& probed, const Slo& slo) {
  int best = -1;
  for (std::size_t i = 0; i < probed.size(); ++i) {
    if (!rung_passes(probed[i], slo)) continue;
    if (best < 0 || probed[i].rate_per_s > probed[static_cast<std::size_t>(best)].rate_per_s)
      best = static_cast<int>(i);
  }
  return best;
}

std::uint64_t SpanLog::add(const char* name, std::uint64_t parent, std::uint64_t request,
                           std::int64_t start_ns, std::int64_t end_ns) {
  const std::uint64_t id = next_id_++;
  spans_.push_back({id, parent, request, name, start_ns, end_ns});
  return id;
}

std::map<std::string, double> SpanLog::self_time_ns() const {
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans_)
    if (s.parent != 0) children[s.parent].push_back(&s);

  std::map<std::string, double> out;
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (const Span& s : spans_) {
    double covered = 0.0;
    if (auto it = children.find(s.id); it != children.end()) {
      iv.clear();
      for (const Span* c : it->second) {
        const std::int64_t a = std::max(c->start_ns, s.start_ns);
        const std::int64_t b = std::min(c->end_ns, s.end_ns);
        if (b > a) iv.emplace_back(a, b);
      }
      std::sort(iv.begin(), iv.end());
      std::int64_t cur_a = 0, cur_b = 0;
      bool open = false;
      for (const auto& [a, b] : iv) {
        if (open && a <= cur_b) {
          cur_b = std::max(cur_b, b);
          continue;
        }
        if (open) covered += static_cast<double>(cur_b - cur_a);
        cur_a = a;
        cur_b = b;
        open = true;
      }
      if (open) covered += static_cast<double>(cur_b - cur_a);
    }
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns) - covered;
  }
  return out;
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot write span log " + path);
  for (const Span& s : spans_)
    f << "{\"id\":" << s.id << ",\"parent\":" << s.parent << ",\"request\":" << s.request
      << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
      << ",\"end_ns\":" << s.end_ns << "}\n";
  if (!f.flush()) throw std::runtime_error("short write to span log " + path);
}

HostInfo host_info() {
  HostInfo h;
  // CPUs this process may run on, as nproc(1) counts them.
  cpu_set_t set;
  CPU_ZERO(&set);
  h.nproc = sched_getaffinity(0, sizeof set, &set) == 0
                ? static_cast<std::size_t>(std::max(1, CPU_COUNT(&set)))
                : std::max(1u, std::thread::hardware_concurrency());
  h.l1d_bytes = sysconf(_SC_LEVEL1_DCACHE_SIZE);
  h.l2_bytes = sysconf(_SC_LEVEL2_CACHE_SIZE);
  h.llc_bytes = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (h.llc_bytes <= 0) h.llc_bytes = h.l2_bytes;
  return h;
}

CpuTicks cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  CpuTicks t;
  double v = 0.0;
  for (int i = 0; i < 10 && f >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_share(const CpuTicks& before, const CpuTicks& after) {
  const double total = after.total - before.total;
  return total > 0.0 ? (after.steal - before.steal) / total : 0.0;
}

double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string key;
  while (f >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      f >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(f, rest);
  }
  return 0.0;
}

std::size_t heap_bytes_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

}  // namespace perfbench

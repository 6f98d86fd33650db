// The benchmark's own logic, kept free of the library so it can be
// self-tested on its own (selftest.cpp): exact percentiles over raw
// samples, the seeded open-loop arrival schedule, rate-ladder selection,
// span self time, and host facts recorded with every result.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// splitmix64: the benchmark's only source of randomness, so a seed
/// fixes every input bit-for-bit on any host.
std::uint64_t mix64(std::uint64_t x);

/// Uniform double in [0, 1) from (seed, a, b).
double unit_uniform(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0);

/// Exact q-quantile (0 < q <= 1) by nearest rank over raw samples: the
/// smallest sample with at least q·n samples at or below it. Returns 0
/// for an empty set. Sorts `v`.
double exact_quantile(std::vector<double>& v, double q);

/// Median of a copy of `v` (mean of the two middle values when even).
double median(std::vector<double> v);

/// Medians over consecutive windows of `window_ns`: samples are binned by
/// their time offset t_ns[i] (from 0), each window's exact p50 and p99 are
/// taken, and the median of each over the windows is returned. A transient
/// stall of the host then moves one window, not the result.
struct WindowedQuantiles {
  double p50 = 0.0;
  double p99 = 0.0;
  std::size_t windows = 0;
};
WindowedQuantiles windowed_quantiles(const std::vector<std::int64_t>& t_ns,
                                     const std::vector<double>& values, std::int64_t window_ns);

/// One scheduled send: UE `ue` is due `due_ns` after the phase start.
struct Arrival {
  std::int64_t due_ns = 0;
  std::uint32_t ue = 0;
};

/// Open-loop schedule for `ues` UEs offering `rate_per_s` in total over
/// `duration_s`. Every UE sends on its own period ues / rate_per_s with a
/// phase drawn from (seed, ue), so sends are spread rather than bursty
/// and the schedule is a pure function of its arguments. Sorted by due
/// time (ties by UE).
std::vector<Arrival> make_schedule(std::size_t ues, double rate_per_s, double duration_s,
                                   std::uint64_t seed);

/// Geometric rate ladder: `rungs` rates from `base`, each `ratio` × the last.
std::vector<double> make_ladder(double base, double ratio, std::size_t rungs);

/// What one probe of the ladder measured.
struct RungResult {
  double rate_per_s = 0.0;      ///< offered rate
  double achieved_per_s = 0.0;  ///< correct completions per second
  double p99_ms = 0.0;          ///< exact p99 from due time
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;     ///< shed + errored + closed + unsent
  bool backlog_growing = false;
};

/// The SLO a rung must meet to count as sustained.
struct Slo {
  double p99_limit_ms = 10.0;
  double max_failed_share = 0.001;
};

[[nodiscard]] bool rung_passes(const RungResult& r, const Slo& slo);

/// Index of the highest-rate passing rung among `probed`, or -1 when none
/// passes. Order of `probed` does not matter.
[[nodiscard]] int select_max_rate(const std::vector<RungResult>& probed, const Slo& slo);

/// Binary search over a ladder, assuming a rung that fails implies every
/// higher rung fails: calls probe(rate) for O(log rungs) rungs and
/// returns every result it measured. A rung that fails is probed once
/// more and passes if either probe passes, so one stall of a shared host
/// does not end the search early.
template <typename ProbeFn>
std::vector<RungResult> search_ladder(const std::vector<double>& ladder, const Slo& slo,
                                      ProbeFn&& probe) {
  std::vector<RungResult> out;
  std::size_t lo = 0, hi = ladder.size();  // answer in [lo - 1, hi)
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    out.push_back(probe(ladder[mid]));
    if (!rung_passes(out.back(), slo)) out.push_back(probe(ladder[mid]));
    if (rung_passes(out.back(), slo)) lo = mid + 1; else hi = mid;
  }
  return out;
}

/// In-memory span store. A span has a name, a [start, end] interval, the
/// span that caused it (0 = root) and the request id it serves.
struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  /// Append a span; returns its id (ids start at 1). Not thread-safe.
  std::uint64_t add(const char* name, std::uint64_t parent, std::uint64_t request,
                    std::int64_t start_ns, std::int64_t end_ns);
  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
  void reserve(std::size_t n) { spans_.reserve(n); }

  /// Self time per span name, in ns: each span's duration minus the part
  /// of its interval covered by the union of its children's intervals
  /// (clipped to the parent), summed over spans of that name.
  [[nodiscard]] std::map<std::string, double> self_time_ns() const;

  /// Write one JSON object per span.
  void write_jsonl(const std::string& path) const;

 private:
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
};

/// Facts about the machine recorded beside each result.
struct HostInfo {
  std::size_t nproc = 1;
  long l1d_bytes = 0;
  long l2_bytes = 0;
  long llc_bytes = 0;
};
[[nodiscard]] HostInfo host_info();

/// Cumulative (steal, total) CPU time of the machine from /proc/stat, in
/// clock ticks. On a virtual machine, steal is time the hypervisor gave
/// this machine's CPUs to someone else; a run with much of it is suspect.
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};
[[nodiscard]] CpuTicks cpu_ticks();
/// Share of the machine's CPU time stolen between two readings.
[[nodiscard]] double steal_share(const CpuTicks& before, const CpuTicks& after);

/// Peak resident set of this process (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mb();

/// Bytes currently allocated from the heap (glibc mallinfo2).
[[nodiscard]] std::size_t heap_bytes_in_use();

}  // namespace perfbench

// Per-run structured telemetry: the machine-readable record of what a
// sim/train/predict run did. Mirrors the paper's artifact discipline —
// every reported number traces back to a logged run with its scenario
// config and RNG seed — so a report carries:
//
//   meta     string/number key-values fixed at startup (scenario name,
//            seed, git-describe, CLI subcommand, ...)
//   events   an append-only timeline (JSONL, one object per line) for
//            phase transitions and notable occurrences
//   kpis     end-of-run scalar results (RMSE, Mbps, wall seconds)
//
// write_summary() emits one JSON object {run, meta, kpis, metrics?}
// optionally embedding a MetricsSnapshot; write_events() emits the
// JSONL timeline. The CLI writes the summary to --report-out=FILE and
// the events next to it as FILE.events.jsonl.
//
// RunReport is mutex-guarded (events may arrive from worker threads) and
// always compiled — unlike counters, a run report is requested per run
// via CLI flags, so there is nothing to strip from hot paths.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"

namespace ca5g::obs {

/// One timeline entry: monotone sequence number, seconds since the
/// report was created, a short kind tag, and free-form detail.
struct RunEvent {
  std::uint64_t seq = 0;
  double t_s = 0.0;
  std::string kind;
  std::string detail;
};

class RunReport {
 public:
  explicit RunReport(std::string run_name);

  /// Startup facts (scenario, seed, config). Number overload keeps
  /// numeric meta queryable as JSON numbers.
  void meta(std::string_view key, std::string_view value);
  void meta(std::string_view key, double value);

  /// End-of-run scalar result.
  void kpi(std::string_view key, double value);

  /// Append a timeline event. Thread-safe.
  void event(std::string_view kind, std::string_view detail = {});

  /// The summary JSON object; embeds `metrics` when non-null.
  [[nodiscard]] std::string summary_json(const MetricsSnapshot* metrics = nullptr,
                                         int indent = 2) const;
  /// One JSON object per line, in event order.
  [[nodiscard]] std::string events_jsonl() const;

  /// Write summary/events to `path` (CheckError if the file can't open).
  void write_summary(const std::string& path, const MetricsSnapshot* metrics = nullptr) const;
  void write_events(const std::string& path) const;

  /// The conventional events path for a summary path: `<path>.events.jsonl`.
  [[nodiscard]] static std::string events_path_for(std::string_view summary_path);

 private:
  std::string run_name_;
  StopWatch watch_;
  mutable std::mutex mu_;
  std::vector<std::pair<std::string, std::string>> meta_strings_;
  std::vector<std::pair<std::string, double>> meta_numbers_;
  std::vector<std::pair<std::string, double>> kpis_;
  std::vector<RunEvent> events_;
};

}  // namespace ca5g::obs

// Shared helpers for the benchmark harnesses that regenerate the paper's
// tables and figures. Each bench prints the rows/series of its artifact;
// absolute values come from the simulator substrate, so the *shape*
// (orderings, ratios, crossovers) is the comparison target — see
// EXPERIMENTS.md.
#pragma once

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/table.hpp"
#include "sim/engine.hpp"

namespace ca5g::bench {

/// True when CA5G_FAST=1 (reduced trace counts / epochs).
inline bool fast_mode() {
  const char* v = std::getenv("CA5G_FAST");
  return v != nullptr && v[0] == '1';
}

/// Standard banner naming the paper artifact being regenerated.
inline void banner(const std::string& artifact, const std::string& description) {
  std::cout << "\n################################################################\n"
            << "# Reproducing " << artifact << "\n# " << description << "\n"
            << "# (mode: " << (fast_mode() ? "FAST — reduced sizes" : "full") << ")\n"
            << "################################################################\n\n";
}

/// Distribution summary row used by several "violin"/CDF figures.
struct DistSummary {
  double mean = 0, stddev = 0, p5 = 0, p50 = 0, p95 = 0, max = 0;
};

inline DistSummary summarize(const std::vector<double>& xs) {
  DistSummary s;
  s.mean = common::mean(xs);
  s.stddev = common::stddev(xs);
  s.p5 = common::percentile(xs, 5);
  s.p50 = common::percentile(xs, 50);
  s.p95 = common::percentile(xs, 95);
  s.max = common::max_value(xs);
  return s;
}

/// Render a throughput series as a coarse ASCII sparkline (time-series
/// figures print these so the "shape" is visible in text output).
inline std::string sparkline(const std::vector<double>& xs, std::size_t width = 72) {
  static const char* kLevels[] = {" ", ".", ":", "-", "=", "+", "*", "#"};
  if (xs.empty()) return "";
  const double lo = common::min_value(xs);
  const double hi = common::max_value(xs);
  const double range = hi > lo ? hi - lo : 1.0;
  std::string out;
  const std::size_t bucket = std::max<std::size_t>(1, xs.size() / width);
  for (std::size_t start = 0; start < xs.size(); start += bucket) {
    double acc = 0.0;
    std::size_t n = 0;
    for (std::size_t i = start; i < std::min(xs.size(), start + bucket); ++i, ++n)
      acc += xs[i];
    const double v = (acc / n - lo) / range;
    out += kLevels[std::min<std::size_t>(7, static_cast<std::size_t>(v * 8))];
  }
  return out;
}

}  // namespace ca5g::bench

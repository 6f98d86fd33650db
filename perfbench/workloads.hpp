// Workload entry points of the benchmark driver (main.cpp) and the result
// record each returns.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_core.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string span_dir;  ///< where a traced run writes its spans
  /// Workload parameters from perfbench/workloads.json (key=value).
  std::map<std::string, std::string> params;

  /// A required numeric parameter; throws when absent or malformed.
  [[nodiscard]] double num(const std::string& key) const;
  [[nodiscard]] std::size_t count(const std::string& key) const {
    return static_cast<std::size_t>(num(key));
  }
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Metric values by name; main.cpp owns the names and units and
  /// refuses a name it does not know.
  std::map<std::string, double> values;
  /// Human-readable lines printed before the JSON result (hashes,
  /// RMSE, sample counts), so a change to them is visible.
  std::vector<std::string> notes;

  void set(const std::string& name, double value) { values[name] = value; }
  /// Record a failed output check: the run is marked incorrect.
  void fail_check(const std::string& what) {
    correct = false;
    notes.push_back("CHECK FAILED: " + what);
  }
};

enum class ServeKind { kPrism5g, kFleet };

[[nodiscard]] Result run_serve(const Args& args, ServeKind kind);
[[nodiscard]] Result run_offline_fleet(const Args& args);

}  // namespace perfbench

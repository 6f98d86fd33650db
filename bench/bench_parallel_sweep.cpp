// Fleet sweep scaling budget. Runs the same (operator, mobility, UE)
// sweep serially and on an 8-thread pool and enforces:
//
//  1. bit-identical fleet hashes — parallelism must never change results
//     (always checked, every build);
//  2. >= 3x wall-clock speedup at 8 threads over 1 thread
//     (CA5G_SWEEP_MIN_SPEEDUP overrides).
//
// The speedup threshold is skipped under sanitizers (instrumented code
// has its own scaling profile) and on hosts with fewer than 8 hardware
// threads, where an 8-thread pool just timeslices one core.
//
// `--smoke` shortens the simulated duration for ctest registration
// (label: parallel).
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <thread>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "sim/sweep.hpp"

namespace {

using namespace ca5g;

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitizedBuild = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr bool kSanitizedBuild = true;
#else
constexpr bool kSanitizedBuild = false;
#endif
#else
constexpr bool kSanitizedBuild = false;
#endif

sim::SweepSpec base_spec(bool smoke) {
  sim::SweepSpec spec;
  spec.ues_per_cell = smoke ? 2 : 4;        // 3 ops x 2 mobilities x ues
  spec.duration_s = smoke ? 2.0 : 10.0;
  spec.step_s = 0.01;
  spec.seed = 2024;
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  bench::banner("parallel sweep",
                std::string("fleet sweep scaling + thread-count determinism (") +
                    (kSanitizedBuild ? "sanitized build: perf asserts off" : "perf-asserted") +
                    ")");

  auto spec = base_spec(smoke);
  spec.threads = 1;
  const auto serial = sim::run_sweep(spec);
  spec.threads = 8;
  const auto pooled = sim::run_sweep(spec);

  common::TextTable table("sweep scaling (" + std::to_string(serial.units.size()) +
                          " units, " + common::TextTable::num(spec.duration_s, 0) +
                          " s each)");
  table.set_header({"metric", "1 thread", "8 threads"});
  table.add_row({"wall s", common::TextTable::num(serial.wall_s),
                 common::TextTable::num(pooled.wall_s)});
  const double speedup = pooled.wall_s > 0.0 ? serial.wall_s / pooled.wall_s : 0.0;
  table.add_row({"speedup", "1.00", common::TextTable::num(speedup)});
  std::cout << table.to_string() << "\n";

  bool ok = true;
  if (serial.fleet_hash != pooled.fleet_hash) {
    std::cerr << "FAIL: fleet hash depends on thread count (1 thread: " << std::hex
              << serial.fleet_hash << ", 8 threads: " << pooled.fleet_hash << std::dec
              << ")\n";
    ok = false;
  }
  for (std::size_t i = 0; ok && i < serial.units.size(); ++i) {
    if (serial.units[i].trace_hash != pooled.units[i].trace_hash) {
      std::cerr << "FAIL: unit " << serial.units[i].unit.label()
                << " trace hash depends on thread count\n";
      ok = false;
    }
  }

  if (kSanitizedBuild) {
    std::cout << "sanitized build: skipping speedup threshold\n";
    return ok ? 0 : 1;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw < 8) {
    std::cout << "only " << hw << " hardware threads: skipping speedup threshold\n";
    return ok ? 0 : 1;
  }

  double min_speedup = 3.0;
  if (const char* env = std::getenv("CA5G_SWEEP_MIN_SPEEDUP")) min_speedup = std::atof(env);
  if (speedup < min_speedup) {
    std::cerr << "FAIL: speedup " << speedup << "x < required " << min_speedup << "x\n";
    ok = false;
  }

  std::cout << (ok ? "PASS" : "FAIL") << ": parallel sweep budget\n";
  return ok ? 0 : 1;
}

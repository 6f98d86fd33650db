// Benchmark entry point: runs one named workload with a seed and prints, as
// its last stdout line, one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1), each with its unit. Exit status 1 when an output check
// failed, 2 on bad arguments. perfbench/run.py builds and runs it.
//
//   perfbench --workload serve_prism5g --seed 7 --seconds 12 --trace 0
//             --param ues=256 --param nominal_rate=1500 ...
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace perfbench {

double Args::num(const std::string& key) const {
  const auto it = params.find(key);
  if (it == params.end()) throw std::invalid_argument("missing --param " + key);
  std::size_t used = 0;
  const double v = std::stod(it->second, &used);
  if (used != it->second.size() || !std::isfinite(v) || v < 0.0)
    throw std::invalid_argument("bad value for --param " + key + ": " + it->second);
  return v;
}

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json's end_to_end and per_layer lists.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"p50_ms", "ms"},
    {"p99_ms", "ms"},
    {"max_rate_per_s", "1/s"},
    {"overload_goodput_per_s", "1/s"},
    {"fleet_steps_per_s", "1/s"},
    {"pipeline_s", "s"},
    {"rss_mb", "MiB"},
};

constexpr MetricDef kPerLayer[] = {
    {"infer.batch_us_p50", "us"},
    {"infer.us_per_window", "us"},
    {"infer.busy_share", "share"},
    {"infer.batch_size_mean", "count"},
    {"serve.submit_us_p50", "us"},
    {"serve.submit_us_p99", "us"},
    {"session.push_ns", "ns"},
    {"session.snapshot_ns", "ns"},
    {"session.bytes_per_ue", "B"},
    {"session.llc_ratio", "ratio"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.queue_wait_ms_p99", "ms"},
    {"serve.deadline_batch_share", "share"},
    {"serve.dispatch_us_p99", "us"},
    {"serve.shed_total", "count"},
    {"serve.errors_total", "count"},
    {"sim.step_us", "us"},
    {"sim.units_total", "count"},
    {"pool.busy_share", "share"},
    {"pool.steals_total", "count"},
    {"traces.featurize_s", "s"},
    {"traces.windows_per_s", "1/s"},
    {"nn.fit_s", "s"},
    {"gen.lag_p99_ms", "ms"},
    {"gen.sent_total", "count"},
    {"failed_share", "share"},
    {"trace.overhead_share", "share"},
    {"self.gen_share", "share"},
    {"self.serve_share", "share"},
    {"self.infer_share", "share"},
    {"self.sim_share", "share"},
    {"self.traces_share", "share"},
    {"self.other_share", "share"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload serve_prism5g|serve_fleet|offline_fleet --seed N "
               "--seconds S --trace 0|1 [--span-dir DIR] [--param key=value]...\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
        have_seconds = a.seconds > 0.0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        a.trace = value == "1";
        have_trace = true;
      } else if (flag == "--span-dir") {
        a.span_dir = value;
      } else if (flag == "--param") {
        const auto eq = value.find('=');
        if (eq == std::string::npos || eq == 0) usage("--param takes key=value");
        a.params[value.substr(0, eq)] = value.substr(eq + 1);
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace)
    usage("--workload, --seed, --seconds (> 0) and --trace are required");
  return a;
}

void print_json(const Result& r, bool trace) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, unit] : trace ? std::vector<MetricDef>(std::begin(kPerLayer), std::end(kPerLayer))
                                        : std::vector<MetricDef>(std::begin(kEndToEnd), std::end(kEndToEnd))) {
    const auto it = r.values.find(name);
    const double v = it == r.values.end() ? 0.0 : it->second;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + std::string(name) + "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  Result r;
  const CpuTicks ticks0 = cpu_ticks();
  try {
    if (args.workload == "serve_prism5g") r = run_serve(args, ServeKind::kPrism5g);
    else if (args.workload == "serve_fleet") r = run_serve(args, ServeKind::kFleet);
    else if (args.workload == "offline_fleet") r = run_offline_fleet(args);
    else usage("unknown workload " + args.workload);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << args.workload << " failed: " << e.what() << "\n";
    return 1;
  }
  // A metric name a workload sets must be one the contract lists.
  for (const auto& [name, v] : r.values) {
    bool known = false;
    for (const auto& d : kEndToEnd) known = known || name == d.name;
    for (const auto& d : kPerLayer) known = known || name == d.name;
    if (!known) {
      std::cerr << "perfbench: workload set unknown metric " << name << "\n";
      return 1;
    }
  }
  r.notes.push_back("host: cpu steal share during the run=" +
                    std::to_string(steal_share(ticks0, cpu_ticks())));
  for (const auto& n : r.notes) std::cout << n << "\n";
  print_json(r, args.trace);
  return r.correct ? 0 : 1;
}

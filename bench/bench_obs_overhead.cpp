// Observability tax measurement. The claim verified is that the
// instrumentation overhead stays < 2%: per-op costs of Counter::inc /
// Histogram::observe / ScopedTimer are measured directly, the number of
// instrument updates a sim run actually performs is read back from the
// registry snapshot, and the product is compared against the run's wall
// time.
//
// `--smoke` runs reduced iteration counts for ctest registration.
#include <cstring>
#include <iostream>

#include "bench_util.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "obs/trace_span.hpp"

namespace {

using namespace ca5g;

double ns_per_op(std::size_t iters, const auto& body) {
  obs::StopWatch watch;
  for (std::size_t i = 0; i < iters; ++i) body(i);
  return static_cast<double>(watch.elapsed_ns()) / static_cast<double>(iters);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  bench::banner("Observability overhead",
                "instrument micro-costs + sim-engine step tax");

  const std::size_t iters = smoke ? 100000 : 10000000;
  CA5G_METRIC_COUNTER(bench_counter, "bench.obs_overhead_ops_total");
  CA5G_METRIC_HISTOGRAM(bench_hist, "bench.obs_overhead_observe_ns");

  const double counter_ns = ns_per_op(iters, [&](std::size_t) { bench_counter.inc(); });
  const double observe_ns =
      ns_per_op(iters, [&](std::size_t i) { bench_hist.observe(static_cast<double>(i + 1)); });
  const double timer_ns = ns_per_op(iters / 10, [&](std::size_t) {
    CA5G_SCOPED_TIMER(bench_hist);
  });

  common::TextTable micro("Instrument micro-costs");
  micro.set_header({"Operation", "ns/op"});
  micro.add_row({"Counter::inc", common::TextTable::num(counter_ns, 2)});
  micro.add_row({"Histogram::observe", common::TextTable::num(observe_ns, 2)});
  micro.add_row({"ScopedTimer (construct+destroy)", common::TextTable::num(timer_ns, 2)});
  std::cout << micro << "\n";

  // Sim-engine step cost with whatever instrumentation this build has.
  sim::ScenarioConfig config;
  config.op = ran::OperatorId::kOpZ;
  config.env = radio::Environment::kUrbanMacro;
  config.mobility = sim::Mobility::kDriving;
  config.duration_s = smoke ? 5.0 : 60.0;
  config.step_s = 0.01;
  config.seed = 17;

  obs::StopWatch sim_watch;
  const auto trace = sim::run_scenario(config);
  const double sim_wall_ns = static_cast<double>(sim_watch.elapsed_ns());
  const double steps = static_cast<double>(trace.samples.size());
  const double step_ns = sim_wall_ns / steps;

  common::TextTable engine("Sim engine step cost");
  engine.set_header({"Metric", "Value"});
  engine.add_row({"steps", common::TextTable::num(steps, 0)});
  engine.add_row({"ns/step", common::TextTable::num(step_ns, 0)});
  engine.add_row({"steps/s", common::TextTable::num(1e9 / step_ns, 0)});

  // Estimate the instrumentation share of the sim run: the registry
  // knows exactly how many updates the run performed. Every instrument
  // on the simulator path counts one update per call — a counter value
  // is a call count, and quantities such as granted RBs go into a
  // histogram's sum. A counter update costs one inc; a `_ns` histogram
  // is fed by a ScopedTimer (clock reads plus the observe); any other
  // histogram update costs one observe.
  const auto snapshot = obs::MetricsRegistry::global().snapshot();
  double counter_updates = 0.0;
  for (const auto& kv : snapshot.counters)
    if (kv.first.rfind("bench.", 0) != 0) counter_updates += static_cast<double>(kv.second);
  double timer_updates = 0.0;
  double observe_updates = 0.0;
  for (const auto& h : snapshot.histograms) {
    if (h.name.rfind("bench.", 0) == 0) continue;
    const bool timed = h.name.size() > 3 && h.name.compare(h.name.size() - 3, 3, "_ns") == 0;
    (timed ? timer_updates : observe_updates) += static_cast<double>(h.count);
  }
  const double instrument_ns =
      counter_updates * counter_ns + timer_updates * timer_ns + observe_updates * observe_ns;
  const double share = 100.0 * instrument_ns / sim_wall_ns;
  engine.add_row({"instrument updates",
                  common::TextTable::num(counter_updates + timer_updates + observe_updates, 0)});
  engine.add_row({"instrumentation share (%)", common::TextTable::num(share, 3)});
  std::cout << engine << "\n";
  if (share >= 2.0) {
    std::cerr << "FAIL: instrumentation overhead " << share << "% >= 2%\n";
    return 1;
  }
  std::cout << "PASS: instrumentation share " << common::TextTable::num(share, 3)
            << "% of sim wall time (< 2% budget)\n";
  return 0;
}

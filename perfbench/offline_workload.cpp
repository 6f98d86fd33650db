// offline_fleet: the fleet pipeline end to end, repeated on identical
// inputs until the run's time is spent. One pass is sim::run_sweep over
// ops × {walking, driving} × UEs on a pool of nproc threads, then
// traces::Dataset::from_traces on nproc threads, then evaluate_rmse of a
// Prism5G model (fitted in set-up on a separate sweep) over every window,
// in model-batch-sized calls spread over a common::ThreadPool of nproc
// threads.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>

#include "common/thread_pool.hpp"
#include "core/prism5g.hpp"
#include "obs/metrics.hpp"
#include "sim/sweep.hpp"
#include "sim/trace_io.hpp"
#include "traces/dataset.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace traces = ca5g::traces;
namespace sim = ca5g::sim;

double seconds_between(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) * 1e-9;
}

traces::DatasetSpec window_spec(std::size_t stride) {
  traces::DatasetSpec spec;
  spec.history = 10;
  spec.horizon = 10;
  spec.stride = stride;
  return spec;
}

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

struct Pass {
  double pipeline_s = 0.0;
  double sweep_s = 0.0;
  double featurize_s = 0.0;
  double eval_s = 0.0;
  double steps = 0.0;
  double windows = 0.0;
  double unit_ns_sum = 0.0;
  std::size_t threads = 0;
  std::uint64_t steals = 0;
  std::uint64_t fleet_hash = 0;
  double rmse = 0.0;
  double steal = 0.0;           ///< machine CPU steal share during the pass
  std::vector<double> call_ms;  ///< per evaluate_rmse call
};

}  // namespace

Result run_offline_fleet(const Args& a) {
  const HostInfo host = host_info();
  const std::size_t threads = host.nproc;
  Result res;

  // Set-up: fit the Prism5G model every pass evaluates, on its own sweep.
  std::unique_ptr<ca5g::core::Prism5G> model;
  std::vector<double> setup_s, fit_s;
  for (std::size_t rep = 0; rep < a.count("setup_reps"); ++rep) {
    const std::int64_t t0 = now_ns();
    sim::SweepSpec fit_spec;
    fit_spec.ues_per_cell = a.count("fit_ues_per_cell");
    fit_spec.duration_s = a.num("fit_duration_s");
    fit_spec.seed = mix64(a.seed ^ 0xF17);
    fit_spec.threads = threads;
    fit_spec.keep_traces = true;
    const auto fit_sweep = sim::run_sweep(fit_spec);
    const auto ds = traces::Dataset::from_traces(fit_sweep.traces,
                                                 window_spec(a.count("fit_stride")), threads);
    const std::int64_t t1 = now_ns();
    ca5g::predictors::TrainConfig tc;
    tc.epochs = a.count("fit_epochs");
    tc.patience = tc.epochs;
    tc.seed = a.seed;
    model = std::make_unique<ca5g::core::Prism5G>(tc);
    ca5g::common::Rng rng(a.seed);
    const auto split = ds.random_split(0.6, 0.2, rng);
    model->fit(ds, split.train, split.val);
    const std::int64_t t2 = now_ns();
    setup_s.push_back(seconds_between(t0, t2));
    fit_s.push_back(seconds_between(t1, t2));
  }
  if (!model->fast_path_active()) res.fail_check("Prism5G has no compiled inference plan");

  sim::SweepSpec spec;
  spec.ues_per_cell = a.count("ues_per_cell");
  spec.duration_s = a.num("duration_s");
  spec.seed = a.seed;
  spec.threads = threads;
  spec.keep_traces = true;
  const std::size_t chunk = a.count("eval_chunk");
  auto& unit_ns = ca5g::obs::MetricsRegistry::global().histogram("sweep.unit_ns");
  ca5g::common::ThreadPool pool(threads);

  std::vector<Pass> passes;
  SpanLog spans;
  sim::SweepResult last_sweep;
  traces::Dataset last_ds;
  const std::int64_t run_start = now_ns();
  // A pass during which the hypervisor took more than max_steal_share of
  // the machine's CPU time does not count toward the timings while enough
  // clean passes exist; passes continue past --seconds, up to
  // retry_wall_share x --seconds, to collect min_passes clean ones.
  const std::size_t min_passes = a.count("min_passes");
  const auto is_clean = [&](const Pass& p) { return p.steal <= a.num("max_steal_share"); };
  std::size_t clean_passes = 0;
  for (;;) {
    const double elapsed = seconds_between(run_start, now_ns());
    const bool more = passes.size() < min_passes || elapsed < a.seconds ||
                      (clean_passes < min_passes && elapsed < a.seconds * a.num("retry_wall_share"));
    if (!more) break;
    Pass p;
    const CpuTicks ticks0 = cpu_ticks();
    const double unit_sum0 = unit_ns.sum();
    const std::int64_t t0 = now_ns();
    auto sweep = sim::run_sweep(spec);
    const std::int64_t t1 = now_ns();
    p.unit_ns_sum = unit_ns.sum() - unit_sum0;
    auto ds = traces::Dataset::from_traces(sweep.traces, window_spec(a.count("stride")),
                                           threads);
    const std::int64_t t2 = now_ns();

    // Each call covers part of one UE's windows: the UE's windows split
    // into equal parts of at most one model batch.
    std::vector<std::vector<const traces::Window*>> calls;
    const auto& pass_windows = ds.windows();
    for (std::size_t begin = 0; begin < pass_windows.size();) {
      std::size_t end = begin;
      while (end < pass_windows.size() && pass_windows[end].trace_id == pass_windows[begin].trace_id)
        ++end;
      const std::size_t count = end - begin;
      const std::size_t parts = (count + chunk - 1) / chunk;
      for (std::size_t part = 0; part < parts; ++part) {
        calls.emplace_back();
        for (std::size_t i = begin + count * part / parts; i < begin + count * (part + 1) / parts; ++i)
          calls.back().push_back(&pass_windows[i]);
      }
      begin = end;
    }
    std::vector<double> rmse(calls.size());
    std::vector<std::int64_t> start(calls.size()), end(calls.size());
    ca5g::common::parallel_for(pool, calls.size(), [&](std::size_t i) {
      start[i] = now_ns();
      rmse[i] = ca5g::predictors::evaluate_rmse(*model, calls[i]);
      end[i] = now_ns();
    });
    const std::int64_t t3 = now_ns();

    double sq = 0.0, n = 0.0;
    for (std::size_t i = 0; i < calls.size(); ++i) {
      sq += rmse[i] * rmse[i] * static_cast<double>(calls[i].size());
      n += static_cast<double>(calls[i].size());
      p.call_ms.push_back(seconds_between(start[i], end[i]) * 1e3);
    }
    p.rmse = std::sqrt(sq / std::max(1.0, n));
    p.windows = static_cast<double>(ds.windows().size());
    for (const auto& u : sweep.units) p.steps += static_cast<double>(u.samples);
    p.pipeline_s = seconds_between(t0, t3);
    p.sweep_s = seconds_between(t0, t1);
    p.featurize_s = seconds_between(t1, t2);
    p.eval_s = seconds_between(t2, t3);
    p.threads = sweep.threads_used;
    p.steals = sweep.pool_steals;
    p.fleet_hash = sweep.fleet_hash;
    p.steal = steal_share(ticks0, cpu_ticks());
    if (is_clean(p)) ++clean_passes;

    if (!std::isfinite(p.rmse)) res.fail_check("non-finite RMSE");
    if (!passes.empty() && p.fleet_hash != passes.front().fleet_hash)
      res.fail_check("fleet hash changed between passes over identical inputs");
    if (!passes.empty() && p.rmse != passes.front().rmse)
      res.fail_check("RMSE changed between passes over identical inputs");
    res.attempted += sweep.units.size() + ds.windows().size();

    // The first pass runs untraced, so the traced passes after it give the
    // tracing overhead.
    if (a.trace && !passes.empty()) {
      const std::uint64_t req = passes.size();
      const std::uint64_t root = spans.add("pipeline", 0, req, t0, t3);
      spans.add("sim.run_sweep", root, req, t0, t1);
      spans.add("traces.from_traces", root, req, t1, t2);
      for (std::size_t i = 0; i < calls.size(); ++i)
        spans.add("infer.evaluate_rmse", root, req, start[i], end[i]);
    }
    passes.push_back(std::move(p));
    last_sweep = std::move(sweep);
    last_ds = std::move(ds);
  }

  // A seeded subset of units re-run serially must hash equal to the
  // pooled run.
  std::vector<std::size_t> order(last_sweep.units.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
    return unit_uniform(a.seed, x, 0x5E41) < unit_uniform(a.seed, y, 0x5E41);
  });
  double serial_ns = 0.0, serial_steps = 0.0;
  const std::size_t n_serial = std::min(order.size(), a.count("serial_check_units"));
  for (std::size_t j = 0; j < n_serial; ++j) {
    const auto& u = last_sweep.units[order[j]];
    const std::int64_t t0 = now_ns();
    const sim::Trace trace = sim::run_scenario(u.unit.scenario(spec));
    serial_ns += static_cast<double>(now_ns() - t0);
    serial_steps += static_cast<double>(trace.samples.size());
    if (sim::trace_hash(trace) != u.trace_hash)
      res.fail_check("serial re-run of " + u.unit.label() + " hashes differently");
  }

  // The compiled plan must equal the autograd graph on sampled windows.
  std::vector<const traces::Window*> sample;
  const auto& wins = last_ds.windows();
  for (std::size_t i = 0; i < wins.size() && sample.size() < a.count("plan_check_windows"); ++i)
    if (unit_uniform(a.seed, i, 0x91A) < 0.05) sample.push_back(&wins[i]);
  const auto planned = model->predict_many(sample);
  model->set_fast_path(false);
  const auto graph = model->predict_many(sample);
  model->set_fast_path(true);
  if (sample.empty() || planned != graph)
    res.fail_check("compiled plan differs from the graph path on sampled windows");

  // Timings come from the clean passes when there are enough of them.
  const bool use_clean = clean_passes >= min_passes;
  const auto counts = [&](std::size_t i) { return !use_clean || is_clean(passes[i]); };
  const auto med = [&](auto field) {
    std::vector<double> v;
    for (std::size_t i = 0; i < passes.size(); ++i)
      if (counts(i)) v.push_back(field(passes[i]));
    return median(std::move(v));
  };
  const std::size_t timed_from = a.trace ? 1 : 0;
  std::vector<double> call_ms;
  for (std::size_t i = timed_from; i < passes.size(); ++i)
    if (counts(i))
      call_ms.insert(call_ms.end(), passes[i].call_ms.begin(), passes[i].call_ms.end());

  std::ostringstream note;
  note << "host: nproc=" << host.nproc << " pool=" << threads << " l1d=" << host.l1d_bytes
       << " l2=" << host.l2_bytes << " llc=" << host.llc_bytes;
  res.notes.push_back(note.str());
  char rmse_buf[64];
  std::snprintf(rmse_buf, sizeof rmse_buf, "%.17g", passes.front().rmse);
  res.notes.push_back("fleet: units=" + std::to_string(last_sweep.units.size()) +
                      " windows=" + std::to_string(wins.size()) +
                      " passes=" + std::to_string(passes.size()) +
                      " clean_passes=" + std::to_string(clean_passes) +
                      " evaluate_calls=" + std::to_string(call_ms.size()) +
                      " fleet_hash=" + hex(passes.front().fleet_hash) + " rmse=" + rmse_buf);

  if (!a.trace) {
    res.set("setup_s", median(setup_s));
    res.set("p50_ms", exact_quantile(call_ms, 0.50));
    res.set("p99_ms", exact_quantile(call_ms, 0.99));
    res.set("max_rate_per_s", med([](const Pass& p) { return p.windows / p.eval_s; }));
    res.set("overload_goodput_per_s",
            med([](const Pass& p) { return p.windows / p.pipeline_s; }));
    res.set("fleet_steps_per_s", med([](const Pass& p) { return p.steps / p.sweep_s; }));
    res.set("pipeline_s", med([](const Pass& p) { return p.pipeline_s; }));
    res.set("rss_mb", peak_rss_mb());
    return res;
  }

  std::vector<double> traced_pipeline;
  double eval_ns = 0.0, eval_wall_ns = 0.0, windows = 0.0, calls = 0.0;
  for (std::size_t i = 1; i < passes.size(); ++i) {
    traced_pipeline.push_back(passes[i].pipeline_s);
    for (double ms : passes[i].call_ms) eval_ns += ms * 1e6;
    eval_wall_ns += passes[i].eval_s * 1e9;
    windows += passes[i].windows;
    calls += static_cast<double>(passes[i].call_ms.size());
  }
  std::vector<double> call_us;
  for (double ms : call_ms) call_us.push_back(ms * 1e3);
  res.set("infer.batch_us_p50", exact_quantile(call_us, 0.5));
  res.set("infer.us_per_window", eval_ns * 1e-3 / std::max(1.0, windows));
  res.set("infer.busy_share", eval_ns / (static_cast<double>(threads) * std::max(1.0, eval_wall_ns)));
  res.set("infer.batch_size_mean", windows / std::max(1.0, calls));
  res.set("sim.step_us", serial_ns * 1e-3 / std::max(1.0, serial_steps));
  res.set("sim.units_total", static_cast<double>(last_sweep.units.size() * passes.size()));
  res.set("pool.busy_share", med([](const Pass& p) {
            return p.unit_ns_sum / (static_cast<double>(p.threads) * p.sweep_s * 1e9);
          }));
  double steals = 0.0;
  for (const auto& p : passes) steals += static_cast<double>(p.steals);
  res.set("pool.steals_total", steals);
  res.set("traces.featurize_s", med([](const Pass& p) { return p.featurize_s; }));
  res.set("traces.windows_per_s", med([](const Pass& p) { return p.windows / p.featurize_s; }));
  res.set("nn.fit_s", median(fit_s));
  res.set("failed_share",
          static_cast<double>(res.failed) / static_cast<double>(std::max<std::uint64_t>(1, res.attempted)));
  res.set("trace.overhead_share",
          (median(traced_pipeline) - passes.front().pipeline_s) / passes.front().pipeline_s);

  // Each layer's share of all self time the spans record; evaluate calls
  // overlap on the pool, so this is a share of thread time, not of wall.
  const auto self = spans.self_time_ns();
  double self_ns = 0.0;
  for (const auto& [name, ns] : self) self_ns += ns;
  const auto share = [&](const char* name) {
    const auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second / std::max(1.0, self_ns);
  };
  res.set("self.sim_share", share("sim.run_sweep"));
  res.set("self.traces_share", share("traces.from_traces"));
  res.set("self.infer_share", share("infer.evaluate_rmse"));
  res.set("self.other_share", share("pipeline"));
  if (!a.span_dir.empty())
    spans.write_jsonl(a.span_dir + "/" + a.workload + "-seed" + std::to_string(a.seed) + ".jsonl");
  return res;
}

}  // namespace perfbench

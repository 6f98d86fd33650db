// ca5g — command-line front end to the library.
//
//   ca5g simulate  --op OpZ --env urban --mobility driving
//                  --duration 60 --seed 7 [--rat 4g|5g] [--out trace.csv]
//   ca5g census    trace.csv
//   ca5g evaluate  --op OpZ --mobility driving --scale short
//                  --model Prism5G
//   ca5g qoe       --app vivo|abr --model Prism5G
//   ca5g quickstart [--seed N]       (sim → trace I/O → train → evaluate)
//   ca5g sweep     --ues 8 --duration 10 --threads 0 [--seed N]
//
// Every subcommand accepts --metrics-out FILE (metrics registry JSON) and
// --report-out FILE (run summary JSON + FILE.events.jsonl timeline).
// Every subcommand is deterministic for a given --seed. A flag the
// subcommand does not take, a flag without a value, or an enumerated
// flag's unknown value exits 2.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <string_view>

#include "apps/abr.hpp"
#include "apps/vivo.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "eval/pipeline.hpp"
#include "obs/metrics.hpp"
#include "obs/run_report.hpp"
#include "predictors/deep.hpp"
#include "sim/sweep.hpp"
#include "sim/trace_io.hpp"

namespace {

using namespace ca5g;

/// Minimal --key value argument parser. Every flag needs a value, and
/// `keys` (plus metrics-out and report-out) are the only keys accepted;
/// anything else exits 2 before the subcommand runs.
std::map<std::string, std::string> parse_args(int argc, char** argv, int first,
                                              std::initializer_list<std::string_view> keys) {
  const std::string command = argv[1];
  std::map<std::string, std::string> args;
  for (int i = first; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) {
      std::cerr << "unexpected argument: " << flag << "\n";
      std::exit(2);
    }
    const std::string key = flag.substr(2);
    if (key != "metrics-out" && key != "report-out" &&
        std::find(keys.begin(), keys.end(), key) == keys.end()) {
      std::cerr << "unknown flag for ca5g " << command << ": " << flag << "\n";
      std::exit(2);
    }
    if (i + 1 >= argc || std::string_view(argv[i + 1]).rfind("--", 0) == 0) {
      std::cerr << "flag " << flag << " needs a value\n";
      std::exit(2);
    }
    args[key] = argv[i + 1];
  }
  return args;
}

std::string get(const std::map<std::string, std::string>& args, const std::string& key,
                const std::string& fallback) {
  const auto it = args.find(key);
  return it == args.end() ? fallback : it->second;
}

ran::OperatorId parse_op(const std::string& name) {
  if (name == "OpX") return ran::OperatorId::kOpX;
  if (name == "OpY") return ran::OperatorId::kOpY;
  if (name == "OpZ") return ran::OperatorId::kOpZ;
  std::cerr << "unknown operator: " << name << " (use OpX/OpY/OpZ)\n";
  std::exit(2);
}

radio::Environment parse_env(const std::string& name) {
  if (name == "urban") return radio::Environment::kUrbanMacro;
  if (name == "suburban") return radio::Environment::kSuburbanMacro;
  if (name == "beltway" || name == "highway") return radio::Environment::kHighway;
  if (name == "indoor") return radio::Environment::kIndoor;
  std::cerr << "unknown environment: " << name << "\n";
  std::exit(2);
}

sim::Mobility parse_mobility(const std::string& name) {
  if (name == "stationary") return sim::Mobility::kStationary;
  if (name == "walking") return sim::Mobility::kWalking;
  if (name == "driving") return sim::Mobility::kDriving;
  std::cerr << "unknown mobility: " << name << "\n";
  std::exit(2);
}

/// True for `value == first`, false for `value == second`; any other
/// value exits 2.
bool parse_choice(const std::string& flag, const std::string& value, const char* first,
                  const char* second) {
  if (value == first) return true;
  if (value == second) return false;
  std::cerr << "unknown " << flag << ": " << value << " (use " << first << "/" << second
            << ")\n";
  std::exit(2);
}

/// Write --metrics-out / --report-out files if requested. Called at the
/// end of every subcommand so any run can export its telemetry.
void export_telemetry(const std::map<std::string, std::string>& args,
                      const obs::RunReport& report) {
  const auto metrics_path = get(args, "metrics-out", "");
  const auto report_path = get(args, "report-out", "");
  if (metrics_path.empty() && report_path.empty()) return;

  const auto snapshot = obs::MetricsRegistry::global().snapshot();
  if (!metrics_path.empty()) {
    std::ofstream out(metrics_path);
    if (!out.good()) {
      std::cerr << "cannot open --metrics-out path: " << metrics_path << "\n";
      std::exit(1);
    }
    out << obs::to_json(snapshot);
    std::cout << "metrics written to " << metrics_path << "\n";
  }
  if (!report_path.empty()) {
    report.write_summary(report_path, &snapshot);
    report.write_events(obs::RunReport::events_path_for(report_path));
    std::cout << "run report written to " << report_path << "\n";
  }
}

void print_trace_summary(const sim::Trace& trace) {
  const auto agg = trace.aggregate_series();
  const auto ccs = trace.cc_count_series();
  std::size_t events = 0;
  for (const auto& s : trace.samples) events += s.events.size();
  common::TextTable table("Trace summary");
  table.set_header({"Metric", "Value"});
  table.add_row({"samples", std::to_string(trace.samples.size())});
  table.add_row({"step (s)", common::TextTable::num(trace.step_s, 3)});
  table.add_row({"tput mean (Mbps)", common::TextTable::num(common::mean(agg), 1)});
  table.add_row({"tput std (Mbps)", common::TextTable::num(common::stddev(agg), 1)});
  table.add_row({"tput peak (Mbps)", common::TextTable::num(common::max_value(agg), 1)});
  table.add_row({"CC count mean", common::TextTable::num(common::mean(ccs), 2)});
  table.add_row({"CC count max", common::TextTable::num(common::max_value(ccs), 0)});
  table.add_row({"RRC events", std::to_string(events)});
  std::cout << table;
}

int cmd_simulate(int argc, char** argv) {
  const auto args = parse_args(argc, argv, 2,
                               {"op", "env", "mobility", "duration", "step", "seed", "rat", "out"});
  sim::ScenarioConfig config;
  config.op = parse_op(get(args, "op", "OpZ"));
  config.env = parse_env(get(args, "env", "urban"));
  config.ue_indoor = config.env == radio::Environment::kIndoor;
  config.mobility = parse_mobility(get(args, "mobility", "driving"));
  config.duration_s = std::stod(get(args, "duration", "60"));
  config.step_s = std::stod(get(args, "step", "0.01"));
  config.seed = std::stoull(get(args, "seed", "7"));
  if (parse_choice("--rat", get(args, "rat", "5g"), "4g", "5g")) {
    config.rat = phy::Rat::kLte;
    config.cc_slots = 5;
  }

  obs::RunReport report("simulate");
  report.meta("op", get(args, "op", "OpZ"));
  report.meta("env", get(args, "env", "urban"));
  report.meta("mobility", get(args, "mobility", "driving"));
  report.meta("seed", static_cast<double>(config.seed));
  report.meta("duration_s", config.duration_s);
  report.meta("step_s", config.step_s);

  report.event("phase", "simulate");
  const auto trace = sim::run_scenario(config);
  print_trace_summary(trace);
  report.kpi("samples", static_cast<double>(trace.samples.size()));
  report.kpi("tput_mean_mbps", common::mean(trace.aggregate_series()));
  const auto out = get(args, "out", "");
  if (!out.empty()) {
    report.event("phase", "save-trace");
    sim::save_trace(trace, out);
    std::cout << "\nwrote " << out << "\n";
  }
  export_telemetry(args, report);
  return 0;
}

int cmd_census(int argc, char** argv) {
  if (argc < 3) {
    std::cerr << "usage: ca5g census <trace.csv> [--metrics-out F] [--report-out F]\n";
    return 2;
  }
  const auto args = parse_args(argc, argv, 3, {});
  obs::RunReport report("census");
  report.meta("trace", argv[2]);
  report.event("phase", "load-trace");
  const auto trace = sim::load_trace(argv[2]);
  report.kpi("samples", static_cast<double>(trace.samples.size()));
  print_trace_summary(trace);

  std::map<std::string, std::size_t> combos;
  for (const auto& s : trace.samples) {
    std::string combo;
    for (const auto& cc : s.ccs) {
      if (!cc.active) continue;
      if (!combo.empty()) combo += "+";
      // The channel letter tells intra-band CA (n41-a+n41-b) from inter-band.
      combo += std::string(phy::band_info(cc.band).name) + "-" +
               static_cast<char>('a' + cc.channel_index);
    }
    if (!combo.empty()) ++combos[combo];
  }
  common::TextTable table("CA combination census");
  table.set_header({"Combination", "Share(%)"});
  for (const auto& [combo, count] : combos)
    table.add_row(
        {combo, common::TextTable::num(100.0 * count / trace.samples.size(), 1)});
  std::cout << table;
  export_telemetry(args, report);
  return 0;
}

int cmd_evaluate(int argc, char** argv) {
  const auto args =
      parse_args(argc, argv, 2, {"op", "mobility", "scale", "seed", "threads", "model"});
  eval::SubDatasetId id;
  id.op = parse_op(get(args, "op", "OpZ"));
  id.mobility = parse_mobility(get(args, "mobility", "driving"));
  const auto scale = parse_choice("--scale", get(args, "scale", "short"), "long", "short")
                         ? eval::TimeScale::kLong
                         : eval::TimeScale::kShort;

  obs::RunReport report("evaluate");
  report.meta("op", get(args, "op", "OpZ"));
  report.meta("mobility", get(args, "mobility", "driving"));
  report.meta("scale", eval::time_scale_name(scale));
  report.meta("seed", std::stod(get(args, "seed", "42")));
  // Construct the model first: an unknown --model fails before any simulation.
  auto model = eval::make_predictor(get(args, "model", "Prism5G"));
  report.meta("model", model->name());

  std::cout << "Generating " << id.label() << " dataset at "
            << eval::time_scale_name(scale) << "...\n";
  report.event("phase", "generate-dataset");
  auto gen = eval::GenerationConfig::from_env();
  gen.threads = std::stoul(get(args, "threads", "0"));
  const auto ds = eval::make_ml_dataset(id, scale, gen);
  common::Rng rng(std::stoull(get(args, "seed", "42")));
  const auto split = ds.random_split(0.5, 0.2, rng);

  std::cout << "Training " << model->name() << " on " << split.train.size()
            << " windows...\n";
  report.event("phase", "train-and-evaluate");
  const double rmse = eval::train_and_evaluate(*model, ds, split);
  report.kpi("test_rmse", rmse);
  std::cout << model->name() << " test RMSE (normalized): "
            << common::TextTable::num(rmse, 4) << "\n";
  // How far a deep model's fit got and what it cost (paper §6.1): epochs
  // run, the epoch whose weights it kept (1-based), whether it ran to the
  // epoch cap, its wall time, and the mean compiled-plan time per window
  // over the test set's micro-batches (the infer.window_ns histogram).
  if (const auto* deep = dynamic_cast<const predictors::DeepPredictor*>(model.get());
      deep != nullptr && !deep->val_history().empty()) {
    const auto& history = deep->val_history();
    const std::size_t best = deep->best_epoch();
    const bool at_cap = history.size() == deep->max_epochs();
    const double ms_per_epoch =
        1e3 * deep->fit_seconds() / static_cast<double>(history.size());
    std::cout << model->name() << " fit: " << history.size() << " of " << deep->max_epochs()
              << " epochs, best epoch " << best + 1 << " (validation RMSE "
              << common::TextTable::num(history[best], 4) << "), "
              << (at_cap ? "ran to the epoch cap" : "stopped early") << ", "
              << common::TextTable::num(deep->fit_seconds(), 2) << " s ("
              << common::TextTable::num(ms_per_epoch, 1) << " ms per epoch)\n";
    report.kpi("fit_epochs_run", static_cast<double>(history.size()));
    report.kpi("fit_best_epoch", static_cast<double>(best + 1));
    report.kpi("fit_best_val_rmse", history[best]);
    report.kpi("fit_ran_to_epoch_cap", at_cap ? 1.0 : 0.0);
    report.kpi("fit_wall_s", deep->fit_seconds());
    report.kpi("fit_ms_per_epoch", ms_per_epoch);

    const auto& window_ns = obs::MetricsRegistry::global().histogram("infer.window_ns");
    const std::uint64_t plan_runs = window_ns.count();
    const double us_per_window =
        plan_runs == 0 ? 0.0 : window_ns.sum() / 1e3 / static_cast<double>(plan_runs);
    std::cout << model->name() << " inference: " << common::TextTable::num(us_per_window, 1)
              << " us per window (mean of " << plan_runs << " plan runs)\n";
    report.kpi("infer_us_per_window", us_per_window);
  }

  export_telemetry(args, report);
  return 0;
}

int cmd_qoe(int argc, char** argv) {
  const auto args = parse_args(argc, argv, 2, {"app", "model", "seed", "threads"});
  const auto app = get(args, "app", "vivo");
  const auto model_name = get(args, "model", "Prism5G");
  const bool abr = parse_choice("--app", app, "abr", "vivo");
  // Construct the model first: an unknown --model fails before any simulation.
  std::shared_ptr<predictors::Predictor> model{eval::make_predictor(model_name)};

  obs::RunReport report("qoe");
  report.meta("app", app);
  report.meta("model", model_name);
  report.meta("seed", std::stod(get(args, "seed", "42")));

  eval::SubDatasetId id{ran::OperatorId::kOpZ, sim::Mobility::kDriving};
  const auto scale = abr ? eval::TimeScale::kLong : eval::TimeScale::kShort;
  report.event("phase", "generate-dataset");
  auto gen = eval::GenerationConfig::from_env();
  gen.threads = std::stoul(get(args, "threads", "0"));
  const auto ds = eval::make_ml_dataset(id, scale, gen);
  common::Rng rng(std::stoull(get(args, "seed", "42")));
  const auto split = ds.random_split(0.5, 0.2, rng);

  std::cout << "Training " << model_name << "...\n";
  report.event("phase", "train");
  model->fit(ds, split.train, split.val);
  report.event("phase", "session");

  auto session_gen = eval::GenerationConfig::from_env();
  session_gen.seed += 31337;
  session_gen.traces = 1;
  const auto trace = eval::generate_traces(id, scale, session_gen).front();

  traces::DatasetSpec spec;
  apps::ModelEstimator estimator(model, spec, ds.cc_slots(), ds.tput_scale_mbps());
  apps::IdealEstimator ideal;

  if (abr) {
    apps::AbrConfig config;
    config.total_chunks = 40;
    const auto r_model = apps::run_mpc_abr(trace, estimator, config);
    const auto r_ideal = apps::run_mpc_abr(trace, ideal, config);
    common::TextTable table("MPC ABR session QoE");
    table.set_header({"Forecaster", "AvgBitrate(Mbps)", "Stall(s)"});
    table.add_row({model->name(), common::TextTable::num(r_model.avg_bitrate_mbps, 1),
                   common::TextTable::num(r_model.stall_time_s, 1)});
    table.add_row({"Ideal", common::TextTable::num(r_ideal.avg_bitrate_mbps, 1),
                   common::TextTable::num(r_ideal.stall_time_s, 1)});
    std::cout << table;
    report.kpi("avg_bitrate_mbps", r_model.avg_bitrate_mbps);
    report.kpi("stall_time_s", r_model.stall_time_s);
  } else {
    apps::VivoConfig config;
    config.max_bitrate_mbps = 750.0;
    const auto r_model = apps::run_vivo(trace, estimator, config);
    const auto r_ideal = apps::run_vivo(trace, ideal, config);
    common::TextTable table("ViVo session QoE");
    table.set_header({"Estimator", "AvgQuality", "Stall(s)"});
    table.add_row({model->name(), common::TextTable::num(r_model.avg_quality, 2),
                   common::TextTable::num(r_model.stall_time_s, 2)});
    table.add_row({"Ideal", common::TextTable::num(r_ideal.avg_quality, 2),
                   common::TextTable::num(r_ideal.stall_time_s, 2)});
    std::cout << table;
    report.kpi("avg_quality", r_model.avg_quality);
    report.kpi("stall_time_s", r_model.stall_time_s);
  }
  export_telemetry(args, report);
  return 0;
}

// quickstart: one small end-to-end pass that exercises every
// instrumented layer in a single process — simulate, round-trip the
// trace through the CSV codec, window it into a dataset, train a tiny
// LSTM, and evaluate it. This is what `tools/ci.sh` runs in its obs
// stage to assert the exported metrics cover sim/ran/phy/nn/predictor/
// trace_io.
int cmd_quickstart(int argc, char** argv) {
  const auto args = parse_args(argc, argv, 2, {"seed", "threads"});
  const auto seed = std::stoull(get(args, "seed", "7"));

  obs::RunReport report("quickstart");
  report.meta("seed", static_cast<double>(seed));
  report.meta("scenario", "OpZ urban driving 10s @ 10ms");

  sim::ScenarioConfig config;
  config.op = ran::OperatorId::kOpZ;
  config.env = radio::Environment::kUrbanMacro;
  config.mobility = sim::Mobility::kDriving;
  config.duration_s = 10.0;
  config.step_s = 0.01;
  config.seed = seed;

  report.event("phase", "simulate");
  std::cout << "Simulating " << config.duration_s << " s (10 ms steps)...\n";
  const auto trace = sim::run_scenario(config);
  report.kpi("sim_samples", static_cast<double>(trace.samples.size()));

  // Round-trip through the CSV codec in memory so trace_io counters
  // reflect a real encode/decode pass without touching disk.
  report.event("phase", "trace-roundtrip");
  const auto reloaded = sim::trace_from_csv(sim::trace_to_csv(trace));

  report.event("phase", "window-dataset");
  traces::DatasetSpec spec;
  spec.history = 10;
  spec.horizon = 10;
  spec.stride = 20;
  const auto ds = traces::Dataset::from_traces({reloaded}, spec,
                                               std::stoul(get(args, "threads", "0")));
  common::Rng rng(seed);
  const auto split = ds.random_split(0.5, 0.2, rng);
  report.kpi("windows", static_cast<double>(ds.windows().size()));

  report.event("phase", "train");
  predictors::TrainConfig train_config;
  train_config.epochs = 2;
  train_config.hidden = 8;
  train_config.layers = 1;
  train_config.batch_size = 16;
  train_config.patience = 2;
  train_config.seed = seed;
  predictors::LstmPredictor model(train_config);
  std::cout << "Training a small " << model.name() << " on " << split.train.size()
            << " windows...\n";
  model.fit(ds, split.train, split.val);

  report.event("phase", "evaluate");
  const double rmse = predictors::evaluate_rmse(model, split.test);
  report.kpi("test_rmse", rmse);
  std::cout << model.name() << " test RMSE (normalized): "
            << common::TextTable::num(rmse, 4) << "\n";

  export_telemetry(args, report);
  return 0;
}

// sweep: the fleet-scale offline pipeline. Enumerates the (operator,
// mobility, UE) cross product, runs every unit concurrently on the
// shared thread pool, and prints per-cell statistics plus the fleet
// hash — the determinism fingerprint that must not depend on --threads.
int cmd_sweep(int argc, char** argv) {
  const auto args = parse_args(
      argc, argv, 2,
      {"ues", "duration", "step", "env", "seed", "threads", "op", "mobility"});
  sim::SweepSpec spec;
  spec.ues_per_cell = std::stoul(get(args, "ues", "4"));
  spec.duration_s = std::stod(get(args, "duration", "10"));
  spec.step_s = std::stod(get(args, "step", "0.01"));
  spec.env = parse_env(get(args, "env", "urban"));
  spec.seed = std::stoull(get(args, "seed", "2024"));
  spec.threads = std::stoul(get(args, "threads", "0"));
  const auto op_filter = get(args, "op", "");
  if (!op_filter.empty()) spec.ops = {parse_op(op_filter)};
  const auto mobility_filter = get(args, "mobility", "");
  if (!mobility_filter.empty()) spec.mobilities = {parse_mobility(mobility_filter)};

  obs::RunReport report("sweep");
  report.meta("ues_per_cell", static_cast<double>(spec.ues_per_cell));
  report.meta("duration_s", spec.duration_s);
  report.meta("seed", static_cast<double>(spec.seed));

  report.event("phase", "sweep");
  const auto result = sim::run_sweep(spec);
  report.meta("threads", static_cast<double>(result.threads_used));

  common::TextTable table("Fleet sweep (" + std::to_string(result.units.size()) +
                          " units, " + std::to_string(result.threads_used) +
                          " threads)");
  table.set_header({"Unit", "Samples", "Mean(Mbps)", "Peak(Mbps)", "MeanCCs"});
  for (const auto& u : result.units)
    table.add_row({u.unit.label(), std::to_string(u.samples),
                   common::TextTable::num(u.mean_tput_mbps, 1),
                   common::TextTable::num(u.peak_tput_mbps, 1),
                   common::TextTable::num(u.mean_cc_count, 2)});
  std::cout << table;

  std::ostringstream hash;
  hash << std::hex << result.fleet_hash;
  std::cout << "fleet hash: " << hash.str() << "\n"
            << "wall: " << common::TextTable::num(result.wall_s, 2) << " s\n";
  report.kpi("units", static_cast<double>(result.units.size()));
  report.kpi("wall_s", result.wall_s);
  export_telemetry(args, report);
  return 0;
}

void usage() {
  std::cout << "ca5g — CA-aware 5G throughput prediction toolkit\n\n"
            << "subcommands:\n"
            << "  simulate  --op OpX|OpY|OpZ --env urban|suburban|beltway|indoor\n"
            << "            --mobility stationary|walking|driving --duration S\n"
            << "            [--rat 4g|5g] [--step S] [--seed N] [--out trace.csv]\n"
            << "  census    <trace.csv>\n"
            << "  evaluate  --op .. --mobility .. --scale short|long\n"
            << "            --model Prophet|HarmonicMean|LSTM|TCN|Lumos5G|Prism5G|\n"
            << "                    Prism5G-nostate|Prism5G-nofusion\n"
            << "            [--seed N] [--threads N]\n"
            << "  qoe       --app vivo|abr --model <name> [--seed N] [--threads N]\n"
            << "  quickstart [--seed N] [--threads N]\n"
            << "            small end-to-end sim+train+eval pass\n"
            << "  sweep     fleet-scale parallel simulation sweep over the\n"
            << "            (operator, mobility, UE) cross product\n"
            << "            [--ues N] [--duration S] [--step S] [--env E] [--seed N]\n"
            << "            [--op OpX] [--mobility M] [--threads N]\n\n"
            << "all subcommands accept --metrics-out FILE and --report-out FILE\n"
            << "to export the metrics registry and a per-run report as JSON.\n"
            << "--threads 0 (the default) uses every hardware thread (or\n"
            << "CA5G_THREADS); dataset generation and sweeps are bit-identical\n"
            << "at any thread count.\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string command = argv[1];
  try {
    if (command == "simulate") return cmd_simulate(argc, argv);
    if (command == "census") return cmd_census(argc, argv);
    if (command == "evaluate") return cmd_evaluate(argc, argv);
    if (command == "qoe") return cmd_qoe(argc, argv);
    if (command == "quickstart") return cmd_quickstart(argc, argv);
    if (command == "sweep") return cmd_sweep(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  usage();
  return 2;
}

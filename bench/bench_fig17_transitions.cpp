// Figs. 17, 18, 33–36: prediction time series on an urban driving
// trace, zooming into transition zones — Z1 (throughput drop at SCell
// deactivation) and Z2 (boost at SCell activation). Prophet/LSTM
// over-/under-shoot at transitions; Prism5G tracks them, and its
// per-CC heads decompose the aggregate (Figs. 33–34).
#include "bench_util.hpp"
#include "eval/pipeline.hpp"

namespace {

using namespace ca5g;

/// First-step-of-horizon prediction series over a whole trace.
std::vector<double> prediction_series(const predictors::Predictor& model,
                                      const sim::Trace& trace, double scale_mbps) {
  traces::DatasetSpec spec;
  std::vector<double> out;
  for (std::size_t now = spec.history;
       now + spec.horizon < trace.samples.size(); ++now) {
    const auto w = traces::build_window(trace.samples, now - spec.history, spec, 4,
                                        scale_mbps, true);
    out.push_back(model.predict(w).front() * scale_mbps);
  }
  return out;
}

/// RMSE restricted to ±`radius` samples around CC-count changes.
double transition_rmse(const std::vector<double>& pred, const sim::Trace& trace,
                       std::size_t radius) {
  traces::DatasetSpec spec;
  const auto counts = trace.cc_count_series();
  std::vector<double> p, t;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const std::size_t target_idx = i + spec.history;  // first horizon step
    bool near = false;
    for (std::size_t j = target_idx > radius ? target_idx - radius : 0;
         j < std::min(counts.size() - 1, target_idx + radius); ++j)
      near = near || counts[j] != counts[j + 1];
    if (!near) continue;
    p.push_back(pred[i]);
    t.push_back(trace.samples[target_idx].aggregate_tput_mbps);
  }
  if (p.size() < 5) return 0.0;
  return common::rmse(p, t);
}

}  // namespace

int main() {
  bench::banner("Figs. 17-18 / 33-36",
                "Prediction time series & transition zones Z1/Z2 (10 ms scale)");
  bench::BenchReport bench_json("fig17_transitions");

  // Training data: the standard OpZ driving short-scale sub-dataset.
  auto gen = eval::GenerationConfig::from_env();
  const eval::SubDatasetId id{ran::OperatorId::kOpZ, sim::Mobility::kDriving};
  const auto ds = eval::make_ml_dataset(id, eval::TimeScale::kShort, gen);
  common::Rng rng(170);
  const auto split = ds.random_split(0.5, 0.2, rng);

  auto prophet = eval::make_predictor("Prophet");
  auto lstm = eval::make_predictor("LSTM");
  auto prism = eval::make_predictor("Prism5G");
  prophet->fit(ds, split.train, split.val);
  std::cerr << "  training LSTM...\n";
  lstm->fit(ds, split.train, split.val);
  std::cerr << "  training Prism5G...\n";
  prism->fit(ds, split.train, split.val);

  // Fresh evaluation trace from the same campaign distribution.
  auto eval_gen = gen;
  eval_gen.seed = gen.seed + 4321;
  eval_gen.traces = 1;
  eval_gen.short_trace_duration_s = 40.0;
  const auto trace = eval::generate_traces(id, eval::TimeScale::kShort, eval_gen).front();

  const auto truth = trace.aggregate_series();
  const auto p_prophet = prediction_series(*prophet, trace, ds.tput_scale_mbps());
  const auto p_lstm = prediction_series(*lstm, trace, ds.tput_scale_mbps());
  const auto p_prism = prediction_series(*prism, trace, ds.tput_scale_mbps());

  std::cout << "Real    : " << bench::sparkline(truth) << "\n"
            << "Prophet : " << bench::sparkline(p_prophet) << "\n"
            << "LSTM    : " << bench::sparkline(p_lstm) << "\n"
            << "Prism5G : " << bench::sparkline(p_prism) << "\n\n";

  // Whole-trace and transition-zone RMSE (Fig. 18's Z1/Z2 contrast).
  traces::DatasetSpec spec;
  std::vector<double> aligned_truth;
  for (std::size_t i = 0; i < p_prism.size(); ++i)
    aligned_truth.push_back(truth[i + spec.history]);
  common::TextTable table("First-step prediction error (Mbps RMSE)");
  table.set_header({"Model", "Whole trace", "Transition zones (±0.25 s)"});
  auto add = [&](const char* name, const std::vector<double>& pred) {
    const double whole = common::rmse(pred, aligned_truth);
    const double zones = transition_rmse(pred, trace, 25);
    table.add_row({name, common::TextTable::num(whole, 0),
                   common::TextTable::num(zones, 0)});
    bench_json.result(std::string(name) + "_rmse_mbps", whole);
    bench_json.result(std::string(name) + "_transition_rmse_mbps", zones);
  };
  add("Prophet", p_prophet);
  add("LSTM", p_lstm);
  add("Prism5G", p_prism);
  std::cout << table << "\n";

  // Figs. 33-34: per-CC decomposition by Prism5G at one test window.
  auto* prism_model = dynamic_cast<core::Prism5G*>(prism.get());
  if (prism_model != nullptr && !split.test.empty()) {
    const auto& w = *split.test.front();
    const auto per_cc = prism_model->predict_per_cc(w);
    common::TextTable cc_table("Per-CC prediction vs target (first horizon step, Mbps)");
    cc_table.set_header({"CC slot", "Predicted", "Actual"});
    for (std::size_t c = 0; c < per_cc.size(); ++c)
      cc_table.add_row({"cc" + std::to_string(c),
                        common::TextTable::num(per_cc[c].front() * ds.tput_scale_mbps(), 0),
                        common::TextTable::num(w.cc_target_at(0, c) * ds.tput_scale_mbps(), 0)});
    std::cout << cc_table << "\n";
  }

  std::cout << "Paper shape: Prophet/LSTM overestimate in Z1 (drop) and\n"
            << "underestimate in Z2 (boost); Prism5G reacts fastest at\n"
            << "transitions and models each CC individually (Figs. 33-34).\n";
  return 0;
}

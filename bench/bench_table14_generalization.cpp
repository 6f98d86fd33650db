// Table 14: generalizability of Prism5G — (1) train/test split by whole
// traces (same route, different runs) and (2) evaluation on traces from
// entirely new routes not in the training set. OpZ walking, 1 s scale,
// as in the paper.
#include "bench_util.hpp"
#include "eval/pipeline.hpp"

namespace {

using namespace ca5g;

const std::vector<std::string> kModels{"Prophet", "LSTM", "Lumos5G", "Prism5G"};

void evaluate_setting(const std::string& label, const traces::Dataset& train_ds,
                      const traces::Dataset::Split& split, common::TextTable& table) {
  std::vector<std::string> row{label};
  double best_baseline = 1e9, prism = 0.0;
  const auto scores = eval::evaluate_models(kModels, train_ds, split, /*threads=*/0);
  for (std::size_t m = 0; m < kModels.size(); ++m) {
    const double rmse = scores[m].rmse;
    row.push_back(common::TextTable::num(rmse, 3));
    if (kModels[m] == "Prism5G")
      prism = rmse;
    else
      best_baseline = std::min(best_baseline, rmse);
  }
  row.push_back(common::TextTable::num(100.0 * (best_baseline - prism) / best_baseline, 1));
  table.add_row(std::move(row));
}

}  // namespace

int main() {
  bench::banner("Table 14",
                "Generalizability: unseen runs of the same route & entirely new routes "
                "(OpZ walking, 1 s scale)");

  auto gen = eval::GenerationConfig::from_env();
  const eval::SubDatasetId id{ran::OperatorId::kOpZ, sim::Mobility::kWalking};

  common::TextTable table("Table 14 — RMSE under generalization splits");
  auto header = std::vector<std::string>{"Setting"};
  for (const auto& m : kModels) header.push_back(m);
  header.push_back("Improv.(%)");
  table.set_header(header);

  // (1) Same route, different runs: split whole traces.
  {
    const auto ds = eval::make_ml_dataset(id, eval::TimeScale::kLong, gen);
    common::Rng rng(141);
    const auto split = ds.trace_split(0.6, 0.2, rng);
    evaluate_setting("(1) same route, unseen runs", ds, split, table);
    std::cerr << "  setting (1) done\n";
  }

  // (2) New routes: train on the standard dataset, test on traces
  // simulated over different deployments/routes (fresh seeds).
  {
    const auto train_ds = eval::make_ml_dataset(id, eval::TimeScale::kLong, gen);
    auto new_gen = gen;
    new_gen.seed = gen.seed + 99991;  // different deployment & routes
    const auto test_traces = eval::generate_traces(id, eval::TimeScale::kLong, new_gen);
    traces::DatasetSpec spec;
    // Evaluate new-route windows on the training normalization scale so
    // predictions and targets share units.
    std::vector<traces::Window> new_windows;
    for (const auto& trace : test_traces)
      for (std::size_t start = 0; start + 20 <= trace.samples.size(); start += 2)
        new_windows.push_back(traces::build_window(trace.samples, start, spec, 4,
                                                   train_ds.tput_scale_mbps()));
    common::Rng rng(142);
    auto split = train_ds.random_split(0.7, 0.2, rng);
    split.test.clear();
    for (const auto& w : new_windows) split.test.push_back(&w);
    evaluate_setting("(2) entirely new routes", train_ds, split, table);
    std::cerr << "  setting (2) done\n";
  }

  std::cout << table << "\n";
  std::cout << "Paper shape: Prism5G stays best under both splits (≈9.4% and\n"
            << "≈12.5% lower RMSE than the best baseline); new routes are\n"
            << "harder than unseen runs of a known route for every model.\n";
  return 0;
}

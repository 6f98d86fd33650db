// Table 4 — the headline result: RMSE of Prism5G vs. Prophet, LSTM,
// TCN, and Lumos5G on the six sub-datasets (3 operators × walking/
// driving) at both time scales (10 ms / 100 ms horizon and 1 s / 10 s
// horizon). Lower is better; the final column is Prism5G's improvement
// over the best baseline.
//
// `--check RMSE_JSON_PATH` prints the same tables, also writes every
// cell's per-model RMSEs to RMSE_JSON_PATH, and exits 1 unless Prism5G
// has the lowest RMSE in all 12 cells. Run it in full mode: reduced
// budgets under-train the deep models and invert the ordering.
#include <chrono>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string_view>

#include "bench_util.hpp"
#include "eval/pipeline.hpp"

namespace {

using namespace ca5g;

const std::vector<std::string> kModels{"Prophet", "LSTM", "TCN", "Lumos5G", "Prism5G"};

}  // namespace

int main(int argc, char** argv) {
  std::string check_path;
  if (argc == 3 && std::string_view(argv[1]) == "--check") {
    check_path = argv[2];
  } else if (argc != 1) {
    std::cerr << "usage: bench_table04_prediction [--check RMSE_JSON_PATH]\n";
    return 2;
  }
  bench::banner("Table 4",
                "Prediction RMSE (normalized) — Prism5G vs baselines, "
                "6 sub-datasets x 2 time scales");

  const auto gen = eval::GenerationConfig::from_env();
  std::ostringstream cells;  // one JSON object per cell
  cells << std::setprecision(17);
  std::size_t cells_won = 0, cell_count = 0;

  for (auto scale : {eval::TimeScale::kShort, eval::TimeScale::kLong}) {
    common::TextTable table("Table 4 — " + eval::time_scale_name(scale));
    auto header = std::vector<std::string>{"Dataset"};
    for (const auto& m : kModels) header.push_back(m);
    header.push_back("Improv.(%)");
    table.set_header(header);

    common::RunningStats improvements;
    for (const auto& id : eval::all_sub_datasets()) {
      const auto t0 = std::chrono::steady_clock::now();
      const auto ds = eval::make_ml_dataset(id, scale, gen);
      common::Rng rng(42 + static_cast<std::uint64_t>(id.op));
      const auto split = ds.random_split(0.5, 0.2, rng);

      std::vector<std::string> row{id.label()};
      double best_baseline = 1e9, prism = 0.0;
      const auto scores = eval::evaluate_models(kModels, ds, split, /*threads=*/0);
      for (std::size_t m = 0; m < kModels.size(); ++m) {
        const double rmse = scores[m].rmse;
        row.push_back(common::TextTable::num(rmse, 3));
        if (kModels[m] == "Prism5G")
          prism = rmse;
        else
          best_baseline = std::min(best_baseline, rmse);
      }
      cells << (cell_count++ == 0 ? "\n" : ",\n") << "    {\"scale\": \""
            << eval::time_scale_name(scale) << "\", \"dataset\": \"" << id.label()
            << "\", \"rmse\": {";
      for (std::size_t m = 0; m < kModels.size(); ++m)
        cells << (m == 0 ? "" : ", ") << '"' << kModels[m] << "\": " << scores[m].rmse;
      cells << "}}";
      if (prism < best_baseline)
        ++cells_won;
      else if (!check_path.empty())
        std::cerr << "check: Prism5G is not best in " << eval::time_scale_name(scale) << ' '
                  << id.label() << '\n';
      const double improv = 100.0 * (best_baseline - prism) / best_baseline;
      improvements.add(improv);
      row.push_back(common::TextTable::num(improv, 2));
      table.add_row(std::move(row));

      const auto elapsed = std::chrono::duration_cast<std::chrono::seconds>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
      std::cerr << "  [" << eval::time_scale_name(scale) << "] " << id.label()
                << " done in " << elapsed << "s\n";
    }
    std::cout << table;
    std::cout << "Mean improvement over best baseline: "
              << common::TextTable::num(improvements.mean(), 1) << "% (max "
              << common::TextTable::num(improvements.max(), 1) << "%)\n\n";
  }

  std::cout << "Paper shape: Prism5G wins every cell; average ≈14% / max ≈22%\n"
            << "RMSE reduction vs the best baseline; Prophet is consistently\n"
            << "the weakest; driving datasets are harder than walking.\n";
  if (check_path.empty()) return 0;

  std::ofstream out(check_path);
  out << "{\n  \"mode\": \"" << (bench::fast_mode() ? "fast" : "full")
      << "\",\n  \"prism5g_best_cells\": " << cells_won << ",\n  \"cells\": ["
      << cells.str() << "\n  ]\n}\n";
  if (!out.good()) {
    std::cerr << "check: cannot write " << check_path << '\n';
    return 1;
  }
  std::cerr << "check: Prism5G best in " << cells_won << " of " << cell_count << " cells\n";
  return cells_won == cell_count ? 0 : 1;
}

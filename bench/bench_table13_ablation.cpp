// Table 13: ablation study — Prism5G without the state-trigger
// mechanism ("No State") and without the fusion module ("No Fusion"),
// against the full model, on all six sub-datasets at both time scales.
#include "bench_util.hpp"
#include "eval/pipeline.hpp"

int main() {
  using namespace ca5g;
  bench::banner("Table 13", "Ablation: No-State / No-Fusion vs full Prism5G (RMSE)");

  const auto gen = eval::GenerationConfig::from_env();
  const std::vector<std::string> variants{"Prism5G-nostate", "Prism5G-nofusion",
                                          "Prism5G"};

  for (auto scale : {eval::TimeScale::kShort, eval::TimeScale::kLong}) {
    common::TextTable table("Table 13 — " + eval::time_scale_name(scale));
    table.set_header({"Dataset", "No State", "No Fusion", "Prism5G", "ΔState(%)",
                      "ΔFusion(%)"});
    common::RunningStats state_delta, fusion_delta;
    // Fast mode covers the representative operator only (the paper
    // also leans on OpZ for its in-depth analyses).
    for (const auto& id : eval::all_sub_datasets()) {
      if (bench::fast_mode() && id.op != ran::OperatorId::kOpZ) continue;
      const auto ds = eval::make_ml_dataset(id, scale, gen);
      common::Rng rng(84 + static_cast<std::uint64_t>(id.op));
      const auto split = ds.random_split(0.5, 0.2, rng);

      std::vector<double> rmse;
      for (const auto& score : eval::evaluate_models(variants, ds, split, /*threads=*/0))
        rmse.push_back(score.rmse);
      const double ds_pct = 100.0 * (rmse[0] - rmse[2]) / rmse[2];
      const double df_pct = 100.0 * (rmse[1] - rmse[2]) / rmse[2];
      state_delta.add(ds_pct);
      fusion_delta.add(df_pct);
      table.add_row({id.label(), common::TextTable::num(rmse[0], 3),
                     common::TextTable::num(rmse[1], 3),
                     common::TextTable::num(rmse[2], 3),
                     common::TextTable::num(ds_pct, 1),
                     common::TextTable::num(df_pct, 1)});
      std::cerr << "  [" << eval::time_scale_name(scale) << "] " << id.label()
                << " done\n";
    }
    std::cout << table;
    std::cout << "Mean RMSE increase without state: "
              << common::TextTable::num(state_delta.mean(), 1) << "% (max "
              << common::TextTable::num(state_delta.max(), 1)
              << "%); without fusion: " << common::TextTable::num(fusion_delta.mean(), 1)
              << "% (max " << common::TextTable::num(fusion_delta.max(), 1) << "%)\n\n";
  }

  std::cout << "Paper shape: removing the state trigger raises RMSE ≈5.3%\n"
            << "avg / 7.1% max; removing fusion ≈6.2% avg / 9.5% max.\n";
  return 0;
}

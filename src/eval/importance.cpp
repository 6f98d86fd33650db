#include "eval/importance.hpp"

#include "common/contracts.hpp"

namespace ca5g::eval {
namespace {

/// Evaluate RMSE over (possibly modified) copies of the test windows.
double rmse_over(const predictors::Predictor& model,
                 const std::vector<traces::Window>& windows) {
  std::vector<const traces::Window*> ptrs;
  ptrs.reserve(windows.size());
  for (const auto& w : windows) ptrs.push_back(&w);
  return predictors::evaluate_rmse(model, ptrs);
}

}  // namespace

const std::vector<std::string>& cc_feature_names() {
  static const std::vector<std::string> kNames{
      "active",   "pcell", "band",   "bandwidth", "ssRSRP", "ssRSRQ", "SINR",
      "CQI",      "BLER",  "#RB",    "#Layers",   "MCS",    "HisTput(cc)"};
  return kNames;
}

std::vector<FeatureImportance> permutation_importance(
    const predictors::Predictor& model,
    std::span<const traces::Window* const> test, common::Rng& rng,
    std::size_t rounds) {
  CA5G_CHECK_MSG(!test.empty(), "importance on empty test set");
  CA5G_CHECK_MSG(rounds >= 1, "need at least one permutation round");

  std::vector<traces::Window> base;
  base.reserve(test.size());
  for (const auto* w : test) base.push_back(*w);
  const double baseline = rmse_over(model, base);

  std::vector<FeatureImportance> result;
  for (std::size_t feature = 0; feature < traces::kCcFeatureDim; ++feature) {
    double permuted_total = 0.0;
    for (std::size_t round = 0; round < rounds; ++round) {
      std::vector<traces::Window> shuffled = base;
      // Permute the feature's source window per target window; keep the
      // temporal/per-CC structure of the donor intact.
      std::vector<std::size_t> donor(base.size());
      for (std::size_t i = 0; i < donor.size(); ++i) donor[i] = i;
      rng.shuffle(donor);
      for (std::size_t i = 0; i < shuffled.size(); ++i) {
        const auto& src = base[donor[i]];
        for (std::size_t t = 0; t < shuffled[i].history(); ++t)
          for (std::size_t c = 0; c < shuffled[i].cc_slots; ++c)
            shuffled[i].cc(t, c)[feature] = src.cc(t, c)[feature];
      }
      permuted_total += rmse_over(model, shuffled);
    }
    FeatureImportance fi;
    fi.feature = cc_feature_names()[feature];
    fi.baseline_rmse = baseline;
    fi.permuted_rmse = permuted_total / static_cast<double>(rounds);
    result.push_back(std::move(fi));
  }
  return result;
}

FeatureImportance history_importance(const predictors::Predictor& model,
                                     std::span<const traces::Window* const> test,
                                     common::Rng& rng, std::size_t rounds) {
  CA5G_CHECK_MSG(!test.empty(), "importance on empty test set");
  std::vector<traces::Window> base;
  base.reserve(test.size());
  for (const auto* w : test) base.push_back(*w);

  FeatureImportance fi;
  fi.feature = "HisTput(aggregate)";
  fi.baseline_rmse = rmse_over(model, base);
  double permuted_total = 0.0;
  for (std::size_t round = 0; round < rounds; ++round) {
    std::vector<traces::Window> shuffled = base;
    std::vector<std::size_t> donor(base.size());
    for (std::size_t i = 0; i < donor.size(); ++i) donor[i] = i;
    rng.shuffle(donor);
    for (std::size_t i = 0; i < shuffled.size(); ++i)
      for (std::size_t t = 0; t < shuffled[i].history(); ++t)
        shuffled[i].agg(t) = base[donor[i]].agg(t);
    permuted_total += rmse_over(model, shuffled);
  }
  fi.permuted_rmse = permuted_total / static_cast<double>(rounds);
  return fi;
}

}  // namespace ca5g::eval

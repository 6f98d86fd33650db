// Evaluation pipeline (paper §6.1): generates the six ML sub-datasets
// (3 operators × {walking, driving}, Table 11) at the two time scales
// (10 ms with 100 ms horizon; 1 s with 10 s horizon), provides the model
// zoo, and runs train/evaluate rounds used by the Table 4 / 13 / 14
// benches.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "core/prism5g.hpp"
#include "predictors/deep.hpp"
#include "predictors/naive.hpp"
#include "sim/engine.hpp"
#include "traces/dataset.hpp"

namespace ca5g::eval {

/// Time-scale of a sub-dataset (paper Table 4 columns).
enum class TimeScale : std::uint8_t {
  kShort,  ///< 10 ms samples, 100 ms prediction horizon
  kLong,   ///< 1 s samples, 10 s prediction horizon
};

[[nodiscard]] std::string time_scale_name(TimeScale scale);

/// One of the six sub-dataset identities.
struct SubDatasetId {
  ran::OperatorId op = ran::OperatorId::kOpZ;
  sim::Mobility mobility = sim::Mobility::kDriving;

  [[nodiscard]] std::string label() const;
};

/// All six sub-datasets in Table 4 row order.
[[nodiscard]] std::vector<SubDatasetId> all_sub_datasets();

/// Generation knobs. `size_factor` scales trace count/length (CA5G_FAST
/// sets 0.35 via from_env()). `threads` parallelizes per-trace simulation
/// and window featurization on the shared pool; per-trace seeds are fixed
/// functions of the trace index, so any thread count produces the same
/// bytes (1 = serial, 0 = common::default_thread_count).
struct GenerationConfig {
  std::size_t traces = 6;
  double short_trace_duration_s = 50.0;  ///< at 10 ms steps
  double long_trace_duration_s = 400.0;  ///< resampled to 1 s
  std::size_t short_stride = 12;         ///< window stride at 10 ms
  std::uint64_t seed = 2024;
  std::size_t threads = 1;

  [[nodiscard]] static GenerationConfig from_env();
};

/// Simulate the traces of one sub-dataset at a time scale (config.threads
/// simulations run concurrently).
[[nodiscard]] std::vector<sim::Trace> generate_traces(const SubDatasetId& id,
                                                      TimeScale scale,
                                                      const GenerationConfig& config);

/// Simulate + window one sub-dataset into an ML dataset.
[[nodiscard]] traces::Dataset make_ml_dataset(const SubDatasetId& id, TimeScale scale,
                                              const GenerationConfig& config);

/// Model zoo: construct a predictor by its Table 4 column name
/// ("Prophet", "LSTM", "TCN", "Lumos5G", "Prism5G"), the "HarmonicMean"
/// baseline of the QoE study, or a Table 13 ablation ("Prism5G-nostate",
/// "Prism5G-nofusion"). Any other name is a CheckError.
[[nodiscard]] std::unique_ptr<predictors::Predictor> make_predictor(
    const std::string& name);

/// Fit on the split's train/val and return test RMSE (normalized units).
[[nodiscard]] double train_and_evaluate(predictors::Predictor& model,
                                        const traces::Dataset& ds,
                                        const traces::Dataset::Split& split);

/// One Table 4 cell: a model-zoo column name and its test RMSE.
struct ModelScore {
  std::string name;
  double rmse = 0.0;
};

/// Train + evaluate several model-zoo entries concurrently (each model is
/// an independent task on the shared pool; its training RNG comes from
/// its own TrainConfig seed, so scores match the serial run exactly).
/// Results are in `names` order. threads: 0 = auto, 1 = serial.
[[nodiscard]] std::vector<ModelScore> evaluate_models(
    const std::vector<std::string>& names, const traces::Dataset& ds,
    const traces::Dataset::Split& split, std::size_t threads = 1);

}  // namespace ca5g::eval

#include "eval/pipeline.hpp"

#include <cstdlib>

#include "common/contracts.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"

namespace ca5g::eval {

std::string time_scale_name(TimeScale scale) {
  return scale == TimeScale::kShort ? "Short(10ms)" : "Long(1s)";
}

std::string SubDatasetId::label() const {
  return ran::operator_name(op) + " (" +
         (mobility == sim::Mobility::kWalking ? "Walking" : "Driving") + ")";
}

std::vector<SubDatasetId> all_sub_datasets() {
  using ran::OperatorId;
  return {
      {OperatorId::kOpX, sim::Mobility::kWalking},
      {OperatorId::kOpX, sim::Mobility::kDriving},
      {OperatorId::kOpY, sim::Mobility::kWalking},
      {OperatorId::kOpY, sim::Mobility::kDriving},
      {OperatorId::kOpZ, sim::Mobility::kWalking},
      {OperatorId::kOpZ, sim::Mobility::kDriving},
  };
}

GenerationConfig GenerationConfig::from_env() {
  GenerationConfig config;
  if (const char* fast = std::getenv("CA5G_FAST"); fast && fast[0] == '1') {
    config.traces = 3;
    config.short_trace_duration_s = 25.0;
    config.long_trace_duration_s = 150.0;
    config.short_stride = 20;
  }
  return config;
}

std::vector<sim::Trace> generate_traces(const SubDatasetId& id, TimeScale scale,
                                        const GenerationConfig& config) {
  CA5G_METRIC_COUNTER(traces_generated, "eval.traces_generated_total");
  std::vector<sim::Trace> out(config.traces);
  // Each trace's seed is a pure function of its index, so the concurrent
  // simulations below are independent and out[i] is the same at any
  // thread count.
  common::parallel_for(config.threads, config.traces, [&](std::size_t i) {
    traces_generated.inc();
    sim::ScenarioConfig scenario;
    scenario.op = id.op;
    scenario.mobility = id.mobility;
    scenario.env = id.mobility == sim::Mobility::kWalking
                       ? radio::Environment::kUrbanMacro
                       : radio::Environment::kUrbanMacro;
    scenario.seed = config.seed + 131 * i + 7 * static_cast<std::size_t>(id.op) +
                    1009 * static_cast<std::size_t>(id.mobility);
    if (scale == TimeScale::kShort) {
      scenario.step_s = 0.01;
      scenario.duration_s = config.short_trace_duration_s;
      out[i] = sim::run_scenario(scenario);
    } else {
      // Simulate at 100 ms and average to 1 s: slot-level fading detail
      // is irrelevant at this horizon and the simulation is 10× cheaper.
      scenario.step_s = 0.1;
      scenario.duration_s = config.long_trace_duration_s;
      out[i] = sim::run_scenario(scenario).resampled(1.0);
    }
  });
  return out;
}

traces::Dataset make_ml_dataset(const SubDatasetId& id, TimeScale scale,
                                const GenerationConfig& config) {
  const auto traces_vec = generate_traces(id, scale, config);
  traces::DatasetSpec spec;
  spec.history = 10;
  spec.horizon = 10;
  spec.stride = scale == TimeScale::kShort ? config.short_stride : 1;
  return traces::Dataset::from_traces(traces_vec, spec, config.threads);
}

std::unique_ptr<predictors::Predictor> make_predictor(const std::string& name) {
  if (name == "Prophet") return std::make_unique<predictors::ProphetLitePredictor>();
  if (name == "HarmonicMean") return std::make_unique<predictors::HarmonicMeanPredictor>();
  if (name == "LSTM") return std::make_unique<predictors::LstmPredictor>();
  if (name == "TCN") return std::make_unique<predictors::TcnPredictor>();
  if (name == "Lumos5G") return std::make_unique<predictors::Lumos5gPredictor>();
  if (name == "Prism5G") return std::make_unique<core::Prism5G>();
  if (name == "Prism5G-nostate")
    return std::make_unique<core::Prism5G>(predictors::train_config_from_env(),
                                           core::Prism5G::Variant::kNoState);
  if (name == "Prism5G-nofusion")
    return std::make_unique<core::Prism5G>(predictors::train_config_from_env(),
                                           core::Prism5G::Variant::kNoFusion);
  CA5G_CHECK_MSG(false, "unknown predictor name: " << name);
  return nullptr;  // unreachable
}

double train_and_evaluate(predictors::Predictor& model, const traces::Dataset& ds,
                          const traces::Dataset::Split& split) {
  CA5G_METRIC_HISTOGRAM(train_ns, "eval.train_ns");
  {
    CA5G_SCOPED_TIMER(train_ns);
    model.fit(ds, split.train, split.val);
  }
  return predictors::evaluate_rmse(model, split.test);
}

std::vector<ModelScore> evaluate_models(const std::vector<std::string>& names,
                                        const traces::Dataset& ds,
                                        const traces::Dataset::Split& split,
                                        std::size_t threads) {
  CA5G_METRIC_COUNTER(models_evaluated, "eval.models_evaluated_total");
  std::vector<ModelScore> scores(names.size());
  // Every model instance is private to its task; the shared Dataset/Split
  // are read-only. Scores land in `names` order whatever the schedule.
  common::parallel_for(threads, names.size(), [&](std::size_t i) {
    auto model = make_predictor(names[i]);
    scores[i].name = model->name();
    scores[i].rmse = train_and_evaluate(*model, ds, split);
    models_evaluated.inc();
  });
  return scores;
}

}  // namespace ca5g::eval

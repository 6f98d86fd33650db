#include "serve/model_registry.hpp"

#include "common/contracts.hpp"
#include "obs/metrics.hpp"

namespace ca5g::serve {

std::uint64_t ModelRegistry::install(const std::string& name,
                                     std::shared_ptr<const predictors::Predictor> model) {
  CA5G_CHECK_MSG(model != nullptr, "ModelRegistry::install with null model");
  CA5G_METRIC_COUNTER(swaps, "serve.model_swaps_total");
  std::lock_guard<std::mutex> lock(mu_);
  current_ = Entry{std::move(model), current_.version + 1, name};
  swaps.inc();
  return current_.version;
}

ModelRegistry::Entry ModelRegistry::current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

}  // namespace ca5g::serve

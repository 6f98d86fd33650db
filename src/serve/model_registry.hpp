// The serving model slot with atomic hot-swap. The serving workers pin
// the model once per micro-batch (a shared_ptr copy under a short mutex),
// so an operator can install a freshly trained model while requests are
// in flight: batches already dispatched finish on the model they pinned,
// later batches pick up the replacement. There is one slot: every install
// replaces the served model and bumps a monotonically increasing version
// that is echoed in each Prediction, so clients can tell which model
// produced a horizon.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "predictors/predictor.hpp"

namespace ca5g::serve {

class ModelRegistry {
 public:
  /// The pinned view a worker dispatches a batch against.
  struct Entry {
    std::shared_ptr<const predictors::Predictor> model;
    std::uint64_t version = 0;
    std::string name;
  };

  /// Install `model` under `name`, replacing whatever is served. Returns
  /// the new version.
  std::uint64_t install(const std::string& name,
                        std::shared_ptr<const predictors::Predictor> model);

  /// Pin the served model. Entry.model is null until the first install.
  [[nodiscard]] Entry current() const;

 private:
  mutable std::mutex mu_;
  Entry current_;
};

}  // namespace ca5g::serve

// Inference fast-path budget. For every DeepPredictor with a compiled
// plan (LSTM, TCN, Lumos5G, Prism5G) this bench runs the serving model
// shape (T = 10, H = 10, hidden = 32, 2 layers) through both execution
// paths at the batch sizes the server dispatches (B = 1, 8, 32) and
// enforces:
//
//  1. bit-identical predictions between the compiled plan and the
//     autograd graph (always checked, every build — the fast path must
//     be invisible);
//  2. >= 3x wall-clock speedup of the plan over the graph per model at
//     B = 1, the paper's per-UE serving call.
//
// B = 1 is the gated shape because it is where the graph tax lives:
// every autograd op allocates its Node + value/grad vectors once per
// *op*, independent of batch rows, so single-window inference is almost
// pure overhead. At B = 32 both paths converge on a shared floor the
// plan cannot legally cross — bit-identity pins sigmoid/tanh to the
// exact libm calls and every dot product to the graph's accumulation
// order, and those transcendentals dominate the batched forward. The
// B = 8/32 rows are reported so the batched trajectory is visible, just
// not gated.
//
// Sanitized builds skip the timing loops entirely and run only the
// bit-identity check: the speedup threshold would be meaningless there
// (allocator interception taxes the two paths asymmetrically) and the
// 10–20x sanitizer slowdown would blow the ctest timeout for nothing —
// concurrency coverage lives in test_infer_fastpath instead. `--smoke`
// shortens the timing loops for ctest registration (labels: serve,
// parallel); `--equality-only` forces the same equality-only behaviour
// in any build — CI's -march=native stage runs it to prove equivalence
// whatever the host's vector ISA.
#include <chrono>
#include <cstring>
#include <iostream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/prism5g.hpp"
#include "predictors/deep.hpp"
#include "tests/test_helpers.hpp"

namespace {

using namespace ca5g;
using namespace ca5g::predictors;

#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitizedBuild = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr bool kSanitizedBuild = true;
#else
constexpr bool kSanitizedBuild = false;
#endif
#else
constexpr bool kSanitizedBuild = false;
#endif

/// The plan must beat the graph by this factor at B = 1.
constexpr double kMinSpeedup = 3.0;

/// The serving shape: hidden 32, 2 layers, micro-batches of 32 windows.
TrainConfig serving_config() {
  TrainConfig config;
  config.epochs = 1;  // weights don't affect timing; keep fit cheap
  config.hidden = 32;
  config.layers = 2;
  config.batch_size = 32;
  return config;
}

double time_predict_many(const DeepPredictor& model,
                         std::span<const traces::Window* const> batch,
                         std::size_t reps) {
  (void)model.predict_many(batch);  // warm up (sizes the arena)
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < reps; ++r) (void)model.predict_many(batch);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count() /
         static_cast<double>(reps);
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const bool equality_only =
      kSanitizedBuild ||
      (argc > 1 && std::strcmp(argv[1], "--equality-only") == 0);
  bench::banner("inference fast path",
                std::string("compiled plan vs autograd graph on the serving batch shape (") +
                    (kSanitizedBuild ? "sanitized build: perf asserts off" : "perf-asserted") +
                    ")");

  const auto ds = test::synthetic_dataset(2, 400);
  common::Rng rng(42);
  const auto split = ds.random_split(0.6, 0.2, rng);

  // One serving micro-batch: 32 windows, exactly what serve::Worker
  // hands predict_many.
  const std::size_t batch_size = std::min<std::size_t>(32, split.test.size());
  const std::span<const traces::Window* const> batch(split.test.data(), batch_size);

  std::vector<std::unique_ptr<DeepPredictor>> models;
  models.push_back(std::make_unique<LstmPredictor>(serving_config()));
  models.push_back(std::make_unique<TcnPredictor>(serving_config()));
  models.push_back(std::make_unique<Lumos5gPredictor>(serving_config()));
  models.push_back(std::make_unique<core::Prism5G>(serving_config()));

  bool ok = true;
  const std::size_t reps = smoke ? 20 : 200;

  common::TextTable table("plan vs graph across serving batch sizes (" +
                          std::to_string(reps) + " reps at B=" +
                          std::to_string(batch_size) + ")");
  table.set_header({"model", "graph ms", "plan ms", "speedup", "us/window"});

  for (auto& model : models) {
    model->fit(ds, split.train, split.val);

    // 1. Bit-identity — never skipped. The plan must reproduce the
    // autograd forward exactly on every window and horizon step.
    const auto fast = model->predict_many(split.test);
    model->set_fast_path(false);
    const auto graph = model->predict_many(split.test);
    bool matched = true;
    for (std::size_t i = 0; i < fast.size() && matched; ++i) {
      if (fast[i] != graph[i]) {
        std::cerr << "FAIL: " << model->name()
                  << " plan diverged from graph on window " << i << "\n";
        matched = false;
      }
    }
    ok = ok && matched;
    model->set_fast_path(true);
    if (equality_only) {
      if (matched)
        std::cout << model->name() << ": plan == graph on " << fast.size()
                  << " windows\n";
      continue;
    }

    // 2. Speedup across serving batch shapes. Smaller batches run more
    // reps so every row integrates a similar amount of wall clock, and
    // each shape takes the best of three interleaved trials — external
    // load (ctest -j neighbours) only ever deflates a measured speedup,
    // so the max is the robust estimate of what the plan can do.
    for (const std::size_t b : {std::size_t{1}, std::size_t{8}, batch_size}) {
      const std::span<const traces::Window* const> sub(split.test.data(), b);
      const std::size_t b_reps = reps * batch_size / b;
      double graph_ms = 0.0, plan_ms = 0.0, speedup = 0.0;
      for (int trial = 0; trial < 3; ++trial) {
        model->set_fast_path(false);
        const double g = time_predict_many(*model, sub, b_reps);
        model->set_fast_path(true);
        const double p = time_predict_many(*model, sub, b_reps);
        const double s = p > 0.0 ? g / p : 0.0;
        if (s > speedup) {
          graph_ms = g;
          plan_ms = p;
          speedup = s;
        }
      }
      table.add_row({model->name() + " B=" + std::to_string(b),
                     common::TextTable::num(graph_ms), common::TextTable::num(plan_ms),
                     common::TextTable::num(speedup),
                     common::TextTable::num(plan_ms * 1000.0 / static_cast<double>(b))});

      if (b != 1) continue;
      if (speedup < kMinSpeedup) {
        std::cerr << "FAIL: " << model->name() << " B=1 plan speedup " << speedup
                  << "x < required " << kMinSpeedup << "x\n";
        ok = false;
      }
    }
  }

  if (equality_only) {
    if (kSanitizedBuild)
      std::cout << "sanitized build: timing loops skipped\n";
    std::cout << (ok ? "PASS" : "FAIL") << ": fast-path equality\n";
    return ok ? 0 : 1;
  }

  std::cout << table.to_string() << "\n";
  std::cout << (ok ? "PASS" : "FAIL") << ": inference fast-path budget\n";
  return ok ? 0 : 1;
}

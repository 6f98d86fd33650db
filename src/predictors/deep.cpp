#include "predictors/deep.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/contracts.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"

namespace ca5g::predictors {

namespace {

/// Stage one kThroughputOnly step: x (rows × 1).
void stage_throughput(std::span<const traces::Window* const> batch, std::size_t t,
                      float* x) {
  for (std::size_t b = 0; b < batch.size(); ++b) x[b] = batch[b]->agg(t);
}

/// Stage one kThroughputPlusGlobal step: x (rows × (1 + globals)).
void stage_throughput_global(std::span<const traces::Window* const> batch,
                             std::size_t t, float* x) {
  constexpr std::size_t dim = 1 + traces::kGlobalFeatureDim;
  for (std::size_t b = 0; b < batch.size(); ++b) {
    float* row = x + b * dim;
    row[0] = batch[b]->agg(t);
    for (std::size_t g = 0; g < traces::kGlobalFeatureDim; ++g)
      row[1 + g] = batch[b]->global(t, g);
  }
}

}  // namespace

// ---- Base training loop ------------------------------------------------------

std::size_t DeepPredictor::input_dim(InputMode mode) {
  return mode == InputMode::kThroughputOnly ? 1 : 1 + traces::kGlobalFeatureDim;
}

std::vector<nn::Tensor> DeepPredictor::make_sequence(
    std::span<const traces::Window* const> batch, InputMode mode) {
  CA5G_CHECK_MSG(!batch.empty(), "empty batch");
  const std::size_t t_len = batch.front()->history();
  std::vector<nn::Tensor> sequence;
  sequence.reserve(t_len);
  for (std::size_t t = 0; t < t_len; ++t) {
    nn::Tensor x(batch.size(), input_dim(mode));
    if (mode == InputMode::kThroughputOnly)
      stage_throughput(batch, t, x.values().data());
    else
      stage_throughput_global(batch, t, x.values().data());
    sequence.push_back(std::move(x));
  }
  return sequence;
}

nn::Tensor DeepPredictor::make_target(std::span<const traces::Window* const> batch,
                                      std::size_t horizon) {
  nn::Tensor y(batch.size(), horizon);
  for (std::size_t b = 0; b < batch.size(); ++b) {
    CA5G_CHECK_MSG(batch[b]->target.size() >= horizon, "target shorter than horizon");
    for (std::size_t h = 0; h < horizon; ++h)
      y.set(b, h, static_cast<float>(batch[b]->target[h]));
  }
  return y;
}

std::vector<std::vector<float>> DeepPredictor::snapshot_parameters() {
  std::vector<std::vector<float>> snapshot;
  for (const auto& p : trainable_parameters()) snapshot.push_back(p.values());
  return snapshot;
}

void DeepPredictor::restore_parameters(const std::vector<std::vector<float>>& snapshot) {
  auto params = trainable_parameters();
  CA5G_CHECK_MSG(params.size() == snapshot.size(), "snapshot size mismatch");
  for (std::size_t i = 0; i < params.size(); ++i) params[i].values() = snapshot[i];
}

void DeepPredictor::fit(const traces::Dataset& ds,
                        std::span<const traces::Window* const> train,
                        std::span<const traces::Window* const> val) {
  CA5G_CHECK_MSG(!train.empty(), "fit with empty training set");
  const auto fit_start = std::chrono::steady_clock::now();
  horizon_ = ds.horizon();

  common::Rng rng(config_.seed);
  build(ds, rng);

  nn::Adam::Config adam_config;
  adam_config.lr = config_.lr;
  nn::Adam optimizer(trainable_parameters(), adam_config);

  std::vector<std::size_t> order(train.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;

  double best_val = 1e30;
  std::vector<std::vector<float>> best_params = snapshot_parameters();
  std::size_t since_best = 0;
  val_history_.clear();
  best_epoch_ = 0;

  CA5G_METRIC_COUNTER(epochs_total, "nn.train_epochs_total");
  CA5G_METRIC_COUNTER(batches_total, "nn.train_batches_total");
  CA5G_METRIC_HISTOGRAM(backward_ns, "nn.backward_ns");

  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    epochs_total.inc();
    rng.shuffle(order);
    for (std::size_t start = 0; start < order.size(); start += config_.batch_size) {
      const std::size_t end = std::min(order.size(), start + config_.batch_size);
      std::vector<const traces::Window*> batch;
      batch.reserve(end - start);
      for (std::size_t i = start; i < end; ++i) batch.push_back(train[order[i]]);

      batches_total.inc();
      optimizer.zero_grad();
      nn::Tensor loss = compute_loss(batch);
      {
        CA5G_SCOPED_TIMER(backward_ns);
        loss.backward();
      }
      optimizer.step();
    }

    // Validation RMSE for model selection.
    double val_rmse = 0.0;
    if (!val.empty()) {
      double sq = 0.0;
      std::size_t count = 0;
      for (std::size_t start = 0; start < val.size(); start += config_.batch_size) {
        const std::size_t end = std::min(val.size(), start + config_.batch_size);
        std::vector<const traces::Window*> batch(val.begin() + static_cast<std::ptrdiff_t>(start),
                                                 val.begin() + static_cast<std::ptrdiff_t>(end));
        const nn::Tensor pred = forward_batch(batch, /*training=*/false);
        for (std::size_t b = 0; b < batch.size(); ++b)
          for (std::size_t h = 0; h < horizon_; ++h) {
            const double d = pred.at(b, h) - batch[b]->target[h];
            sq += d * d;
            ++count;
          }
      }
      val_rmse = std::sqrt(sq / static_cast<double>(std::max<std::size_t>(count, 1)));
      val_history_.push_back(val_rmse);
      if (val_rmse < best_val - 1e-5) {
        best_val = val_rmse;
        best_epoch_ = epoch;
        best_params = snapshot_parameters();
        since_best = 0;
      } else if (++since_best >= config_.patience) {
        break;  // early stop
      }
    }
  }
  if (!val.empty()) restore_parameters(best_params);
  plan_ = compile_plan();
  CA5G_CHECK_MSG(plan_ != nullptr, name() << " compiled no inference plan");
  fit_seconds_ =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - fit_start).count();
}

nn::Tensor DeepPredictor::compute_loss(std::span<const traces::Window* const> batch) {
  const nn::Tensor pred = forward_batch(batch, /*training=*/true);
  const nn::Tensor target = make_target(batch, horizon_);
  return nn::mse_loss(pred, target);
}

void DeepPredictor::run_plan(std::span<const traces::Window* const> batch,
                             std::vector<std::vector<double>>& out) const {
  CA5G_METRIC_COUNTER(plan_runs, "infer.plan_runs_total");
  CA5G_METRIC_GAUGE(arena_bytes, "infer.arena_bytes");
  CA5G_METRIC_HISTOGRAM(window_ns, "infer.window_ns");

  nn::infer::Arena& arena = nn::infer::thread_arena();
  arena.reset();
  float* pred = arena.alloc(batch.size() * horizon_);
  const auto t0 = std::chrono::steady_clock::now();
  plan_->run(batch, arena, pred);
  const auto dt = std::chrono::steady_clock::now() - t0;
  window_ns.observe(
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(dt).count()) /
      static_cast<double>(batch.size()));
  arena_bytes.set(static_cast<double>(arena.high_water_bytes()));
  plan_runs.inc();
  append_clamped_rows(pred, batch.size(), horizon_, out);
}

void DeepPredictor::append_clamped_rows(const float* pred, std::size_t rows,
                                        std::size_t horizon,
                                        std::vector<std::vector<double>>& out) {
  for (std::size_t b = 0; b < rows; ++b) {
    std::vector<double>& row =
        out.emplace_back(pred + b * horizon, pred + (b + 1) * horizon);
    for (double& v : row) v = std::clamp(v, 0.0, 1.5);
  }
}

std::vector<double> DeepPredictor::predict(const traces::Window& w) const {
  const traces::Window* ptr = &w;
  return std::move(predict_many(std::span<const traces::Window* const>(&ptr, 1)).front());
}

std::vector<std::vector<double>> DeepPredictor::predict_many(
    std::span<const traces::Window* const> windows) const {
  // Every forward sizes its batch by the first window's history, so a
  // shorter window would be read past its end.
  for (const traces::Window* w : windows)
    CA5G_CHECK_MSG(w->history() == windows.front()->history(),
                   "predict_many: a window of history " << w->history()
                       << " in a batch whose first window has history "
                       << windows.front()->history());
  CA5G_CHECK_MSG(plan_ != nullptr, name() << ": predict before fit");
  std::vector<std::vector<double>> out;
  out.reserve(windows.size());
  const std::size_t chunk = std::max<std::size_t>(1, config_.batch_size);
  const bool fast = fast_path_active();
  for (std::size_t start = 0; start < windows.size(); start += chunk) {
    const auto batch = windows.subspan(start, std::min(chunk, windows.size() - start));
    if (fast) {
      run_plan(batch, out);
      continue;
    }
    CA5G_METRIC_COUNTER(graph_runs, "infer.graph_runs_total");
    graph_runs.inc();
    const nn::Tensor pred = forward_batch(batch, /*training=*/false);
    append_clamped_rows(pred.values().data(), batch.size(), horizon_, out);
  }
  return out;
}

// ---- Compiled inference plans ---------------------------------------------------
//
// Each plan mirrors its model's forward_batch(training=false) op by op
// with the nn::infer kernels the graph's ops call too, in the graph's
// order, so the two match bit-for-bit (see nn/infer.hpp). Inputs are staged by the
// same stage_* helpers make_sequence uses.

namespace {

namespace infer = nn::infer;

/// LSTM baseline: lstm over the throughput history → linear head.
class LstmPlan final : public DeepPredictor::InferencePlan {
 public:
  LstmPlan(const nn::Lstm& lstm, const nn::Linear& head)
      : lstm_(lstm), head_(head) {}

  void run(std::span<const traces::Window* const> batch, infer::Arena& arena,
           float* out) const override {
    const std::size_t rows = batch.size();
    const std::size_t t_len = batch.front()->history();
    const std::size_t g4 = 4 * lstm_.hidden();
    float* x = arena.alloc(rows);
    float* states = lstm_.alloc_states(arena, rows);
    float* xg = arena.alloc(rows * g4);
    float* hg = arena.alloc(rows * g4);
    for (std::size_t t = 0; t < t_len; ++t) {
      stage_throughput(batch, t, x);
      lstm_.step(x, states, rows, xg, hg);
    }
    head_.forward(lstm_.top_hidden(states, rows), rows, out);
  }

 private:
  infer::PackedLstm lstm_;
  infer::PackedLinear head_;
};

/// TCN baseline: stacked causal convolutions with ReLU, head on the
/// last step.
class TcnPlan final : public DeepPredictor::InferencePlan {
 public:
  TcnPlan(const std::vector<nn::CausalConv1d>& convs, const nn::Linear& head)
      : head_(head) {
    for (const auto& conv : convs) convs_.emplace_back(conv);
  }

  void run(std::span<const traces::Window* const> batch, infer::Arena& arena,
           float* out) const override {
    const std::size_t rows = batch.size();
    const std::size_t t_len = batch.front()->history();
    float* seq = arena.alloc(t_len * rows);
    for (std::size_t t = 0; t < t_len; ++t)
      stage_throughput(batch, t, seq + t * rows);
    const float* cur = seq;
    for (const auto& conv : convs_) {
      float* next = arena.alloc(t_len * rows * conv.out);
      float* tmp = arena.alloc(rows * conv.out);
      for (std::size_t t = 0; t < t_len; ++t)
        conv.forward_step(cur, t, t_len, rows, next + t * rows * conv.out, tmp);
      infer::relu_inplace(next, t_len * rows * conv.out);
      cur = next;
    }
    const std::size_t ch = convs_.back().out;
    head_.forward(cur + (t_len - 1) * rows * ch, rows, out);
  }

 private:
  std::vector<infer::PackedConv1d> convs_;
  infer::PackedLinear head_;
};

/// Lumos5G Seq2Seq: LSTM encoder seeds the decoder's states; the
/// decoder unrolls over the horizon feeding its own output back.
class LumosPlan final : public DeepPredictor::InferencePlan {
 public:
  LumosPlan(const nn::Lstm& encoder, const nn::Lstm& decoder,
            const nn::Linear& head, std::size_t horizon)
      : encoder_(encoder), decoder_(decoder), head_(head), horizon_(horizon) {}

  void run(std::span<const traces::Window* const> batch, infer::Arena& arena,
           float* out) const override {
    const std::size_t rows = batch.size();
    const std::size_t t_len = batch.front()->history();
    constexpr std::size_t enc_dim = 1 + traces::kGlobalFeatureDim;
    const std::size_t g4 = 4 * encoder_.hidden();

    float* x = arena.alloc(rows * enc_dim);
    float* states = encoder_.alloc_states(arena, rows);
    float* xg = arena.alloc(rows * g4);
    float* hg = arena.alloc(rows * g4);
    for (std::size_t t = 0; t < t_len; ++t) {
      stage_throughput_global(batch, t, x);
      encoder_.step(x, states, rows, xg, hg);
    }

    // The decoder runs on the encoder's final states (same layers and
    // hidden width by construction) and starts from the last observed
    // aggregate throughput.
    float* y = arena.alloc(rows);
    for (std::size_t b = 0; b < rows; ++b) y[b] = batch[b]->agg(t_len - 1);
    for (std::size_t h = 0; h < horizon_; ++h) {
      const float* top = decoder_.step(y, states, rows, xg, hg);
      head_.forward(top, rows, y);
      for (std::size_t b = 0; b < rows; ++b) out[b * horizon_ + h] = y[b];
    }
  }

 private:
  infer::PackedLstm encoder_;
  infer::PackedLstm decoder_;
  infer::PackedLinear head_;
  std::size_t horizon_;
};

}  // namespace

// ---- LSTM baseline -------------------------------------------------------------

void LstmPredictor::build(const traces::Dataset& ds, common::Rng& rng) {
  lstm_ = std::make_unique<nn::Lstm>(rng, input_dim(InputMode::kThroughputOnly),
                                     config_.hidden, config_.layers);
  head_ = std::make_unique<nn::Linear>(rng, config_.hidden, ds.horizon());
}

nn::Tensor LstmPredictor::forward_batch(std::span<const traces::Window* const> batch,
                                        bool /*training*/) const {
  const auto sequence = make_sequence(batch, InputMode::kThroughputOnly);
  return head_->forward(lstm_->last_hidden(sequence));
}

std::vector<nn::Tensor> LstmPredictor::trainable_parameters() {
  auto params = lstm_->parameters();
  for (auto& p : head_->parameters()) params.push_back(p);
  return params;
}

std::unique_ptr<DeepPredictor::InferencePlan> LstmPredictor::compile_plan() const {
  return std::make_unique<LstmPlan>(*lstm_, *head_);
}

// ---- TCN baseline ---------------------------------------------------------------

void TcnPredictor::build(const traces::Dataset& ds, common::Rng& rng) {
  convs_.clear();
  const std::size_t h = config_.hidden;
  convs_.emplace_back(rng, input_dim(InputMode::kThroughputOnly), h, 3, 1);
  convs_.emplace_back(rng, h, h, 3, 2);
  convs_.emplace_back(rng, h, h, 3, 4);
  head_ = std::make_unique<nn::Linear>(rng, h, ds.horizon());
}

nn::Tensor TcnPredictor::forward_batch(std::span<const traces::Window* const> batch,
                                       bool /*training*/) const {
  std::vector<nn::Tensor> seq = make_sequence(batch, InputMode::kThroughputOnly);
  for (const auto& conv : convs_) {
    seq = conv.forward(seq);
    for (auto& x : seq) x = nn::relu(x);
  }
  return head_->forward(seq.back());
}

std::vector<nn::Tensor> TcnPredictor::trainable_parameters() {
  std::vector<nn::Tensor> params;
  for (auto& conv : convs_)
    for (auto& p : conv.parameters()) params.push_back(p);
  for (auto& p : head_->parameters()) params.push_back(p);
  return params;
}

std::unique_ptr<DeepPredictor::InferencePlan> TcnPredictor::compile_plan() const {
  return std::make_unique<TcnPlan>(convs_, *head_);
}

// ---- Lumos5G (Seq2Seq) -----------------------------------------------------------

void Lumos5gPredictor::build(const traces::Dataset& /*ds*/, common::Rng& rng) {
  encoder_ = std::make_unique<nn::Lstm>(
      rng, input_dim(InputMode::kThroughputPlusGlobal), config_.hidden,
      config_.layers);
  decoder_ = std::make_unique<nn::Lstm>(rng, 1, config_.hidden, config_.layers);
  out_ = std::make_unique<nn::Linear>(rng, config_.hidden, 1);
}

nn::Tensor Lumos5gPredictor::forward_batch(std::span<const traces::Window* const> batch,
                                           bool training) const {
  const auto sequence = make_sequence(batch, InputMode::kThroughputPlusGlobal);
  auto states = encoder_->final_states(sequence);

  // Decoder starts from the last observed aggregate throughput.
  nn::Tensor input(batch.size(), 1);
  for (std::size_t b = 0; b < batch.size(); ++b)
    input.set(b, 0, batch[b]->agg(batch[b]->history() - 1));

  std::vector<nn::Tensor> step_outputs;
  for (std::size_t h = 0; h < horizon_; ++h) {
    const nn::Tensor hidden = decoder_->step_with_states(input, states);
    nn::Tensor y = out_->forward(hidden);
    step_outputs.push_back(y);
    if (training) {
      // Teacher forcing: next decoder input is the ground truth.
      nn::Tensor forced(batch.size(), 1);
      for (std::size_t b = 0; b < batch.size(); ++b)
        forced.set(b, 0, static_cast<float>(batch[b]->target[h]));
      input = forced;
    } else {
      input = y.detach();
    }
  }
  return nn::concat_cols(step_outputs);
}

std::vector<nn::Tensor> Lumos5gPredictor::trainable_parameters() {
  auto params = encoder_->parameters();
  for (auto& p : decoder_->parameters()) params.push_back(p);
  for (auto& p : out_->parameters()) params.push_back(p);
  return params;
}

std::unique_ptr<DeepPredictor::InferencePlan> Lumos5gPredictor::compile_plan() const {
  return std::make_unique<LumosPlan>(*encoder_, *decoder_, *out_, horizon_);
}

}  // namespace ca5g::predictors

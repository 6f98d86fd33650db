#include "core/prism5g.hpp"

#include <algorithm>

#include "common/contracts.hpp"
#include "nn/infer.hpp"

namespace ca5g::core {
namespace {

namespace infer = nn::infer;

/// Width of one encoder input: per-CC features plus the shared context
/// (aggregate history, RRC event flag, CC count).
constexpr std::size_t kEncoderInputDim = traces::kCcFeatureDim + 1 + traces::kGlobalFeatureDim;

/// Weight of the auxiliary per-CC supervision in the training loss.
constexpr float kPerCcLossWeight = 0.5f;

/// Stage CC c's step-t encoder inputs for every window of the batch into
/// x (rows × kEncoderInputDim). Shared by the autograd and compiled paths
/// so both stage the same floats, and by both to CHECK that each window
/// has the model's `cc_slots`: any other layout would be read out of step.
void stage_cc_step(std::span<const traces::Window* const> batch, std::size_t cc_slots,
                   std::size_t c, std::size_t t, bool use_state, float* x) {
  for (std::size_t b = 0; b < batch.size(); ++b) {
    CA5G_CHECK_MSG(batch[b]->cc_slots == cc_slots,
                   "Prism5G: a window of " << batch[b]->cc_slots
                                           << " CC slots for a model of " << cc_slots);
    const auto feat = batch[b]->cc(t, c);
    // State trigger: gate per-CC features by the RRC-derived activation
    // mask (X' = X ⊙ I); a {0,1} gate is exact. Without it, raw features
    // pass through untouched — inactive CCs then still look like zeros in
    // most features, but the model loses the explicit on/off signal.
    const float gate = use_state ? batch[b]->mask(t, c) : 1.0f;
    float* row = x + b * kEncoderInputDim;
    std::size_t f = 0;
    for (; f < traces::kCcFeatureDim; ++f) row[f] = feat[f] * gate;
    // Shared context (aggregate history + globals), gated like the rest:
    // X'_c = X_c ⊙ I deactivates the whole module.
    row[f++] = batch[b]->agg(t) * gate;
    for (std::size_t g = 0; g < traces::kGlobalFeatureDim; ++g)
      row[f++] = batch[b]->global(t, g) * gate;
  }
}

/// Stage the flattened binary mask (rows × C·T, CC-major) for the embedding.
void stage_mask(std::span<const traces::Window* const> batch, std::size_t cc_slots,
                float* m) {
  const std::size_t t_len = batch.front()->history();
  for (std::size_t b = 0; b < batch.size(); ++b)
    for (std::size_t c = 0; c < cc_slots; ++c)
      for (std::size_t t = 0; t < t_len; ++t)
        m[b * cc_slots * t_len + c * t_len + t] = batch[b]->mask(t, c);
}

/// Compiled Prism5G forward: per-CC shared-LSTM encoding over
/// mask-gated inputs, mask embedding + fusion, shared heads, mask
/// gating at the last step, and the ordered per-CC sum — mirroring
/// forward_per_cc/forward_batch op for op, row for row, so the result
/// is bit-identical to the autograd path. The shared encoder and heads
/// run all CCs as one batch where the graph loops over CCs. Honors
/// both ablation switches.
class Prism5gPlan final : public predictors::DeepPredictor::InferencePlan {
 public:
  Prism5gPlan(const nn::Lstm& encoder, const nn::Linear& mask_embed,
              const nn::Mlp& fusion, const nn::Mlp& head, bool use_state,
              bool use_fusion, std::size_t cc_slots, std::size_t horizon)
      : encoder_(encoder),
        mask_embed_(mask_embed),
        fusion_(fusion),
        head_(head),
        use_state_(use_state),
        use_fusion_(use_fusion),
        cc_slots_(cc_slots),
        horizon_(horizon),
        history_(mask_embed_.in / cc_slots) {
    // The encoder's top hidden state after a whole window of all-zero
    // input from the zero state. With the state trigger on, a CC that is
    // inactive for the whole history has exactly this input, so run()
    // copies it instead of encoding the row.
    const std::size_t g4 = 4 * encoder_.hidden();
    infer::Arena arena;
    float* x = arena.alloc(kEncoderInputDim);
    std::fill(x, x + kEncoderInputDim, 0.0f);
    float* states = encoder_.alloc_states(arena, 1);
    float* xg = arena.alloc(g4);
    float* hg = arena.alloc(g4);
    for (std::size_t t = 0; t < history_; ++t) encoder_.step(x, states, 1, xg, hg);
    const float* top = encoder_.top_hidden(states, 1);
    zero_response_.assign(top, top + encoder_.hidden());
  }

  void run(std::span<const traces::Window* const> batch, infer::Arena& arena,
           float* out) const override {
    const std::size_t rows = batch.size();
    const std::size_t t_len = batch.front()->history();
    CA5G_CHECK_MSG(t_len == history_, "Prism5G plan compiled for windows of "
                                          << history_ << " steps, got " << t_len);
    const std::size_t hidden = encoder_.hidden();
    const std::size_t g4 = 4 * hidden;

    // 1. Shared per-CC encoding. The encoder's weights are shared, so all
    // CCs advance as one batch, CC-major (row c·B + b); rows never mix in
    // a matmul, so each row's floats are those of a per-CC pass. Every
    // step is staged first: a row whose input is zero at every step ends
    // in zero_response_, and only the other rows (live[r] = 1) are
    // encoded, compacted to the front of each step.
    const std::size_t cc_rows = cc_slots_ * rows;
    const std::size_t step_floats = cc_rows * kEncoderInputDim;
    float* xs = arena.alloc(t_len * step_floats);
    for (std::size_t t = 0; t < t_len; ++t)
      for (std::size_t c = 0; c < cc_slots_; ++c)
        stage_cc_step(batch, cc_slots_, c, t, use_state_,
                      xs + t * step_floats + c * rows * kEncoderInputDim);
    float* live = arena.alloc(cc_rows);
    std::size_t n_live = 0;
    for (std::size_t r = 0; r < cc_rows; ++r) {
      bool any = false;
      for (std::size_t t = 0; t < t_len && !any; ++t) {
        const float* row = xs + t * step_floats + r * kEncoderInputDim;
        any = std::any_of(row, row + kEncoderInputDim, [](float v) { return v != 0.0f; });
      }
      live[r] = any ? 1.0f : 0.0f;
      if (!any) continue;
      if (n_live != r)
        for (std::size_t t = 0; t < t_len; ++t) {
          float* step = xs + t * step_floats;
          std::copy(step + r * kEncoderInputDim, step + (r + 1) * kEncoderInputDim,
                    step + n_live * kEncoderInputDim);
        }
      ++n_live;
    }
    const float* top = nullptr;
    if (n_live > 0) {
      float* states = encoder_.alloc_states(arena, n_live);
      float* xg = arena.alloc(n_live * g4);
      float* hg = arena.alloc(n_live * g4);
      for (std::size_t t = 0; t < t_len; ++t)
        encoder_.step(xs + t * step_floats, states, n_live, xg, hg);
      top = encoder_.top_hidden(states, n_live);
    }
    // h_all[c] (rows × hidden each).
    float* h_all = arena.alloc(cc_rows * hidden);
    for (std::size_t r = 0, k = 0; r < cc_rows; ++r) {
      const float* h = live[r] != 0.0f ? top + (k++) * hidden : zero_response_.data();
      std::copy(h, h + hidden, h_all + r * hidden);
    }

    // 2+3. Mask embedding and fusion over [h_1..h_C, E].
    const float* fused = nullptr;
    if (use_fusion_) {
      const float* embed = nullptr;
      std::size_t embed_dim = 0;
      if (use_state_) {
        float* mask = arena.alloc(rows * cc_slots_ * t_len);
        stage_mask(batch, cc_slots_, mask);
        embed_dim = mask_embed_.out;
        float* e = arena.alloc(rows * embed_dim);
        mask_embed_.forward(mask, rows, e);
        embed = e;
      }
      const std::size_t fusion_in = cc_slots_ * hidden + embed_dim;
      float* fin = arena.alloc(rows * fusion_in);
      for (std::size_t r = 0; r < rows; ++r) {
        float* frow = fin + r * fusion_in;
        for (std::size_t c = 0; c < cc_slots_; ++c)
          std::copy(h_all + c * rows * hidden + r * hidden,
                    h_all + c * rows * hidden + (r + 1) * hidden,
                    frow + c * hidden);
        if (embed)
          std::copy(embed + r * embed_dim, embed + (r + 1) * embed_dim,
                    frow + cc_slots_ * hidden);
      }
      fused = fusion_.forward(arena, fin, rows);
    }

    // 4. Shared heads on h'_c = h_c + h_f (in place: the fusion input
    // already holds its copy of h_c), again as one batch of C·B rows,
    // gated by the last-step mask, summed across CCs in order (y_0, then
    // + y_1, ...).
    if (fused)
      for (std::size_t c = 0; c < cc_slots_; ++c)
        infer::add_inplace(h_all + c * rows * hidden, fused, rows * hidden);
    const float* y_all = head_.forward(arena, h_all, cc_rows);
    const std::size_t t_last = t_len - 1;
    float* gate = arena.alloc(rows);
    float* gated = arena.alloc(rows * horizon_);
    for (std::size_t c = 0; c < cc_slots_; ++c) {
      const float* y = y_all + c * rows * horizon_;
      if (use_state_) {
        for (std::size_t b = 0; b < rows; ++b) gate[b] = batch[b]->mask(t_last, c);
        infer::mul_col_broadcast(y, gate, gated, rows, horizon_);
        y = gated;
      }
      if (c == 0)
        std::copy(y, y + rows * horizon_, out);
      else
        infer::add_inplace(out, y, rows * horizon_);
    }
  }

 private:
  infer::PackedLstm encoder_;
  infer::PackedLinear mask_embed_;
  infer::PackedMlp fusion_;
  infer::PackedMlp head_;
  bool use_state_;
  bool use_fusion_;
  std::size_t cc_slots_;
  std::size_t horizon_;
  std::size_t history_;  ///< window length T; the mask embedding reads C·T
  std::vector<float> zero_response_;  ///< hidden floats
};

/// The aggregate y = Σ_c y_c, summed in CC order (y_0, then + y_1, ...).
nn::Tensor sum_ccs(const std::vector<nn::Tensor>& per_cc) {
  nn::Tensor agg = per_cc.front();
  for (std::size_t c = 1; c < per_cc.size(); ++c) agg = agg + per_cc[c];
  return agg;
}

}  // namespace

Prism5G::Prism5G(predictors::TrainConfig train, Variant variant)
    : predictors::DeepPredictor(train), variant_(variant) {}

std::string Prism5G::name() const {
  if (variant_ == Variant::kNoState) return "Prism5G(no-state)";
  if (variant_ == Variant::kNoFusion) return "Prism5G(no-fusion)";
  return "Prism5G";
}

void Prism5G::build(const traces::Dataset& ds, common::Rng& rng) {
  cc_slots_ = ds.cc_slots();
  const std::size_t hidden = config_.hidden;

  // One encoder instance == shared weights across all CC slots.
  encoder_ = std::make_unique<nn::Lstm>(rng, kEncoderInputDim, hidden, config_.layers);
  // Every variant builds all four modules in this order: the trained-
  // weights golden pins these RNG draws.
  mask_embed_ = std::make_unique<nn::Linear>(rng, cc_slots_ * ds.history(), kEmbedDim);
  const std::size_t fusion_in = cc_slots_ * hidden + (use_state() ? kEmbedDim : 0);
  fusion_ = std::make_unique<nn::Mlp>(
      rng, std::vector<std::size_t>{fusion_in, hidden, hidden});
  head_ = std::make_unique<nn::Mlp>(
      rng, std::vector<std::size_t>{hidden, hidden, ds.horizon()});
}

std::vector<std::vector<nn::Tensor>> Prism5G::make_cc_sequences(
    std::span<const traces::Window* const> batch) const {
  CA5G_CHECK_MSG(!batch.empty(), "empty batch");
  const std::size_t t_len = batch.front()->history();
  std::vector<std::vector<nn::Tensor>> sequences(cc_slots_);
  for (std::size_t c = 0; c < cc_slots_; ++c) {
    sequences[c].reserve(t_len);
    for (std::size_t t = 0; t < t_len; ++t) {
      nn::Tensor x(batch.size(), kEncoderInputDim);
      stage_cc_step(batch, cc_slots_, c, t, use_state(), x.values().data());
      sequences[c].push_back(std::move(x));
    }
  }
  return sequences;
}

nn::Tensor Prism5G::make_mask_matrix(std::span<const traces::Window* const> batch) const {
  nn::Tensor m(batch.size(), cc_slots_ * batch.front()->history());
  stage_mask(batch, cc_slots_, m.values().data());
  return m;
}

std::vector<nn::Tensor> Prism5G::forward_per_cc(
    std::span<const traces::Window* const> batch) const {
  const auto sequences = make_cc_sequences(batch);

  // 1. Shared per-CC encoding.
  std::vector<nn::Tensor> hidden_states;
  hidden_states.reserve(cc_slots_);
  for (std::size_t c = 0; c < cc_slots_; ++c)
    hidden_states.push_back(encoder_->last_hidden(sequences[c]));

  // 2+3. Mask embedding and fusion over [h_1..h_C, E].
  nn::Tensor fused;
  if (use_fusion()) {
    std::vector<nn::Tensor> fusion_inputs = hidden_states;
    if (use_state())
      fusion_inputs.push_back(mask_embed_->forward(make_mask_matrix(batch)));
    fused = fusion_->forward(nn::concat_cols(fusion_inputs));
  }

  // 4. Shared per-CC heads on h'_c = h_c + h_f. With the state trigger
  // on, a module whose carrier is inactive at prediction time is
  // deactivated outright: it contributes exactly zero throughput.
  const std::size_t t_last = batch.front()->history() - 1;
  std::vector<nn::Tensor> outputs;
  outputs.reserve(cc_slots_);
  for (std::size_t c = 0; c < cc_slots_; ++c) {
    const nn::Tensor h = fused.defined() ? hidden_states[c] + fused : hidden_states[c];
    nn::Tensor y = head_->forward(h);
    if (use_state()) {
      // The per-row gate needs no gradient; it scales the row's horizon.
      nn::Tensor gate(batch.size(), 1);
      for (std::size_t b = 0; b < batch.size(); ++b)
        gate.set(b, 0, batch[b]->mask(t_last, c));
      y = nn::mul_col_broadcast(y, gate);
    }
    outputs.push_back(y);
  }
  return outputs;
}

nn::Tensor Prism5G::forward_batch(std::span<const traces::Window* const> batch,
                                  bool /*training*/) const {
  return sum_ccs(forward_per_cc(batch));
}

nn::Tensor Prism5G::compute_loss(std::span<const traces::Window* const> batch) {
  const auto per_cc = forward_per_cc(batch);
  nn::Tensor loss = nn::mse_loss(sum_ccs(per_cc), make_target(batch, horizon_));

  // Auxiliary per-CC supervision: each head should track its own CC.
  for (std::size_t c = 0; c < per_cc.size(); ++c) {
    nn::Tensor cc_target(batch.size(), horizon_);
    for (std::size_t b = 0; b < batch.size(); ++b)
      for (std::size_t h = 0; h < horizon_; ++h)
        cc_target.set(b, h, static_cast<float>(batch[b]->cc_target_at(h, c)));
    loss = loss + nn::scale(nn::mse_loss(per_cc[c], cc_target),
                            kPerCcLossWeight / static_cast<float>(per_cc.size()));
  }
  return loss;
}

std::vector<std::vector<double>> Prism5G::predict_per_cc(const traces::Window& w) const {
  const traces::Window* ptr = &w;
  std::vector<std::vector<double>> out;
  for (const nn::Tensor& y :
       forward_per_cc(std::span<const traces::Window* const>(&ptr, 1)))
    append_clamped_rows(y.values().data(), 1, horizon_, out);
  return out;
}

std::unique_ptr<predictors::DeepPredictor::InferencePlan> Prism5G::compile_plan()
    const {
  return std::make_unique<Prism5gPlan>(*encoder_, *mask_embed_, *fusion_, *head_,
                                       use_state(), use_fusion(), cc_slots_, horizon_);
}

std::vector<nn::Tensor> Prism5G::trainable_parameters() {
  auto params = encoder_->parameters();
  for (auto& p : mask_embed_->parameters()) params.push_back(p);
  for (auto& p : fusion_->parameters()) params.push_back(p);
  for (auto& p : head_->parameters()) params.push_back(p);
  return params;
}

}  // namespace ca5g::core

// ML dataset construction from traces, following the paper's §6.1 setup:
// sliding windows of T=10 history steps and H=10 future steps, min–max
// normalized features, random 0.5/0.2/0.3 train/val/test splits, and the
// trace-level splits used for the generalizability study (Table 14).
//
// Per-CC features follow Table 12: activation mask, PCell flag, band &
// bandwidth encodings, ssRSRP, ssRSRQ, SINR, CQI, BLER, #RB, #Layers,
// MCS, and historical per-CC throughput.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "sim/trace.hpp"

namespace ca5g::traces {

/// Number of normalized features per component carrier per time step.
inline constexpr std::size_t kCcFeatureDim = 13;
/// Global (non-per-CC) features per time step: RRC event flag, CC count.
inline constexpr std::size_t kGlobalFeatureDim = 2;

/// Index meanings inside a CC feature vector.
enum CcFeature : std::size_t {
  kFeatActive = 0,
  kFeatPcell,
  kFeatBand,
  kFeatBandwidth,
  kFeatRsrp,
  kFeatRsrq,
  kFeatSinr,
  kFeatCqi,
  kFeatBler,
  kFeatRb,
  kFeatLayers,
  kFeatMcs,
  kFeatTput,
};

/// Values per history step ahead of the mask: every CC's features, the
/// globals and the aggregate.
[[nodiscard]] constexpr std::size_t flat_dim(std::size_t cc_slots) noexcept {
  return cc_slots * kCcFeatureDim + kGlobalFeatureDim + 1;
}
/// Values per history row of a Window: the flat_dim values, then the mask.
[[nodiscard]] constexpr std::size_t step_dim(std::size_t cc_slots) noexcept {
  return flat_dim(cc_slots) + cc_slots;
}

/// One training window: T history steps and H future (target) steps,
/// stored contiguously. Each history row is
///   [C×kCcFeatureDim CC features | kGlobalFeatureDim globals | aggregate | C mask].
/// The mask is the paper's RRC-derived binary activation mask I. It keeps
/// its own lane instead of aliasing kFeatActive, so perturbing the
/// "active" feature column leaves Prism5G's gate untouched.
struct Window {
  std::size_t cc_slots = 0;
  /// [T][step_dim(cc_slots)] normalized history rows, in float: the
  /// precision every model reads. Targets stay double for RMSE.
  std::vector<float> steps;
  /// [H] normalized aggregate throughput targets.
  std::vector<double> target;
  /// [H][C] normalized per-CC throughput targets, horizon-major.
  std::vector<double> cc_target;
  /// Which trace this window came from (for trace-level splits).
  std::size_t trace_id = 0;

  [[nodiscard]] std::size_t history() const noexcept {
    return steps.size() / step_dim(cc_slots);
  }
  [[nodiscard]] std::span<const float, kCcFeatureDim> cc(std::size_t t,
                                                         std::size_t c) const noexcept {
    return std::span<const float, kCcFeatureDim>(steps.data() + at(t, c * kCcFeatureDim),
                                                 kCcFeatureDim);
  }
  [[nodiscard]] std::span<float, kCcFeatureDim> cc(std::size_t t, std::size_t c) noexcept {
    return std::span<float, kCcFeatureDim>(steps.data() + at(t, c * kCcFeatureDim),
                                           kCcFeatureDim);
  }
  [[nodiscard]] float mask(std::size_t t, std::size_t c) const noexcept {
    return steps[at(t, flat_dim(cc_slots) + c)];
  }
  [[nodiscard]] float& mask(std::size_t t, std::size_t c) noexcept {
    return steps[at(t, flat_dim(cc_slots) + c)];
  }
  [[nodiscard]] float global(std::size_t t, std::size_t g) const noexcept {
    return steps[at(t, cc_slots * kCcFeatureDim + g)];
  }
  [[nodiscard]] float agg(std::size_t t) const noexcept {
    return steps[at(t, cc_slots * kCcFeatureDim + kGlobalFeatureDim)];
  }
  [[nodiscard]] float& agg(std::size_t t) noexcept {
    return steps[at(t, cc_slots * kCcFeatureDim + kGlobalFeatureDim)];
  }
  [[nodiscard]] double cc_target_at(std::size_t h, std::size_t c) const noexcept {
    return cc_target[h * cc_slots + c];
  }

 private:
  [[nodiscard]] std::size_t at(std::size_t t, std::size_t i) const noexcept {
    return t * step_dim(cc_slots) + i;
  }
};

/// Windowing parameters (paper: input length 10, output length 10).
struct DatasetSpec {
  std::size_t history = 10;
  std::size_t horizon = 10;
  std::size_t stride = 1;
};

/// Featurize one trace step into a history row of step_dim(cc_slots)
/// values, in place, each computed in double and stored as float. Shared
/// by the batch windowing below and by the serve path's per-UE rings,
/// which featurize each sample once at ingest.
/// Samples with fewer than `cc_slots` CCs are padded with inactive
/// slots; more than `cc_slots` is a contract violation.
void featurize_step(const sim::TraceSample& s, std::size_t cc_slots,
                    double tput_scale_mbps, std::span<float> row);

/// Build one window from trace samples starting at `start` (history
/// begins there; targets follow). Used by Dataset and by the QoE apps'
/// streaming predictors. `allow_short_target` permits fewer than
/// `spec.horizon` future samples (targets are truncated).
[[nodiscard]] Window build_window(const std::vector<sim::TraceSample>& samples,
                                  std::size_t start, const DatasetSpec& spec,
                                  std::size_t cc_slots, double tput_scale_mbps,
                                  bool allow_short_target = false);

/// A normalized, windowed dataset plus its de-normalization scale.
class Dataset {
 public:
  /// Build from traces. All traces must share cc_slots. Featurizes the
  /// windows with common::parallel_for on `threads` threads (0 =
  /// common::default_thread_count, 1 = inline on the caller); every window
  /// is written to its pre-enumerated slot, so the dataset is
  /// bit-identical at any thread count.
  [[nodiscard]] static Dataset from_traces(const std::vector<sim::Trace>& traces,
                                           const DatasetSpec& spec,
                                           std::size_t threads = 1);

  [[nodiscard]] const std::vector<Window>& windows() const noexcept { return windows_; }
  [[nodiscard]] std::size_t cc_slots() const noexcept { return cc_slots_; }
  [[nodiscard]] std::size_t history() const noexcept { return spec_.history; }
  [[nodiscard]] std::size_t horizon() const noexcept { return spec_.horizon; }
  /// Mbps value that normalizes to 1.0 (dataset max aggregate tput).
  [[nodiscard]] double tput_scale_mbps() const noexcept { return tput_scale_mbps_; }

  /// View of windows split into train/val/test.
  struct Split {
    std::vector<const Window*> train;
    std::vector<const Window*> val;
    std::vector<const Window*> test;
  };

  /// Random window-level split (paper default: 0.5/0.2/0.3).
  [[nodiscard]] Split random_split(double train_frac, double val_frac,
                                   common::Rng& rng) const;

  /// Trace-level split: whole traces are assigned to train+val or test
  /// (generalizability evaluation, Table 14).
  [[nodiscard]] Split trace_split(double train_traces_frac, double val_frac,
                                  common::Rng& rng) const;

 private:
  DatasetSpec spec_;
  std::size_t cc_slots_ = 4;
  std::size_t trace_count_ = 0;
  double tput_scale_mbps_ = 1.0;
  std::vector<Window> windows_;
};

}  // namespace ca5g::traces

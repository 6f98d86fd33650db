#include "traces/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/contracts.hpp"
#include "common/thread_pool.hpp"

namespace ca5g::traces {
namespace {

/// Fixed-range normalizations for PHY quantities (known physical ranges,
/// keeps features comparable across datasets).
double norm_rsrp(double dbm) { return std::clamp((dbm + 140.0) / 70.0, 0.0, 1.0); }
double norm_rsrq(double db) { return std::clamp((db + 20.0) / 15.0, 0.0, 1.0); }
double norm_sinr(double db) { return std::clamp((db + 15.0) / 50.0, 0.0, 1.0); }

// Each feature is computed in double; the assignment rounds it to float once.
void cc_features_into(const sim::CcSample& cc, double tput_scale,
                      std::span<float, kCcFeatureDim> f) {
  std::fill(f.begin(), f.end(), 0.0f);
  if (!cc.active) return;  // inactive slots are zeroed, as in the paper's mask
  f[kFeatActive] = 1.0;
  f[kFeatPcell] = cc.is_pcell ? 1.0 : 0.0;
  f[kFeatBand] = (static_cast<double>(cc.band) + 1.0) / (phy::kBandCount + 1.0);
  f[kFeatBandwidth] = cc.bandwidth_mhz / 100.0;
  f[kFeatRsrp] = norm_rsrp(cc.rsrp_dbm);
  f[kFeatRsrq] = norm_rsrq(cc.rsrq_db);
  f[kFeatSinr] = norm_sinr(cc.sinr_db);
  f[kFeatCqi] = cc.cqi / 15.0;
  f[kFeatBler] = std::clamp(cc.bler, 0.0, 1.0);
  f[kFeatRb] = cc.rb / 273.0;
  f[kFeatLayers] = cc.layers / 4.0;
  f[kFeatMcs] = cc.mcs / 27.0;
  f[kFeatTput] = cc.tput_mbps / tput_scale;
}

}  // namespace

void featurize_step(const sim::TraceSample& s, std::size_t cc_slots,
                    double tput_scale_mbps, std::span<float> row) {
  CA5G_CHECK_LE_MSG(s.ccs.size(), cc_slots, "sample reports more CCs than cc_slots");
  CA5G_CHECK_EQ(row.size(), step_dim(cc_slots));
  float* context = row.data() + cc_slots * kCcFeatureDim;  // globals, then aggregate
  float* mask = row.data() + flat_dim(cc_slots);
  for (std::size_t c = 0; c < cc_slots; ++c) {
    const sim::CcSample& cc = c < s.ccs.size() ? s.ccs[c] : sim::CcSample{};
    cc_features_into(cc, tput_scale_mbps, row.subspan(c * kCcFeatureDim).first<kCcFeatureDim>());
    mask[c] = cc.active ? 1.0f : 0.0f;
  }
  context[0] = s.events.empty() ? 0.0f : 1.0f;
  context[1] = static_cast<double>(s.active_cc_count()) / static_cast<double>(cc_slots);
  context[kGlobalFeatureDim] = s.aggregate_tput_mbps / tput_scale_mbps;
}

Window build_window(const std::vector<sim::TraceSample>& samples, std::size_t start,
                    const DatasetSpec& spec, std::size_t cc_slots, double tput_scale_mbps,
                    bool allow_short_target) {
  CA5G_CHECK_MSG(start + spec.history <= samples.size(), "window history out of range");
  if (!allow_short_target)
    CA5G_CHECK_MSG(start + spec.history + spec.horizon <= samples.size(),
                   "window target out of range");

  Window w;
  w.cc_slots = cc_slots;
  const std::size_t dim = step_dim(cc_slots);
  w.steps.resize(spec.history * dim);
  for (std::size_t t = 0; t < spec.history; ++t)
    featurize_step(samples[start + t], cc_slots, tput_scale_mbps,
                   std::span<float>(w.steps).subspan(t * dim, dim));
  const std::size_t horizon_avail =
      std::min(spec.horizon, samples.size() - start - spec.history);
  w.target.resize(horizon_avail);
  w.cc_target.assign(horizon_avail * cc_slots, 0.0);
  for (std::size_t h = 0; h < horizon_avail; ++h) {
    const auto& s = samples[start + spec.history + h];
    w.target[h] = s.aggregate_tput_mbps / tput_scale_mbps;
    for (std::size_t c = 0; c < cc_slots && c < s.ccs.size(); ++c)
      w.cc_target[h * cc_slots + c] = s.ccs[c].tput_mbps / tput_scale_mbps;
  }
  return w;
}

Dataset Dataset::from_traces(const std::vector<sim::Trace>& traces,
                             const DatasetSpec& spec, std::size_t threads) {
  CA5G_CHECK_MSG(!traces.empty(), "dataset from no traces");
  CA5G_CHECK_MSG(spec.history >= 1 && spec.horizon >= 1 && spec.stride >= 1,
                 "bad dataset spec");

  Dataset ds;
  ds.spec_ = spec;
  ds.cc_slots_ = traces.front().cc_slots;
  ds.trace_count_ = traces.size();

  // Normalization scale: dataset-wide max aggregate throughput (min–max
  // with min = 0, matching the paper's min–max scaler on throughput).
  double max_tput = 1.0;
  for (const auto& trace : traces) {
    CA5G_CHECK_MSG(trace.cc_slots == ds.cc_slots_, "traces disagree on cc_slots");
    for (const auto& s : trace.samples) max_tput = std::max(max_tput, s.aggregate_tput_mbps);
  }
  ds.tput_scale_mbps_ = max_tput;

  // Enumerate every (trace, start) pair first, then featurize. Window i
  // lands in slot i regardless of which pool thread built it, so the
  // parallel dataset is byte-for-byte the serial one.
  struct WindowSite {
    std::size_t trace_id;
    std::size_t start;
  };
  std::vector<WindowSite> sites;
  for (std::size_t trace_id = 0; trace_id < traces.size(); ++trace_id) {
    const auto& samples = traces[trace_id].samples;
    if (samples.size() < spec.history + spec.horizon) continue;
    for (std::size_t start = 0; start + spec.history + spec.horizon <= samples.size();
         start += spec.stride)
      sites.push_back({trace_id, start});
  }
  CA5G_CHECK_MSG(!sites.empty(), "dataset produced no windows");

  ds.windows_.resize(sites.size());
  common::parallel_for(threads, sites.size(), [&](std::size_t i) {
    Window w = build_window(traces[sites[i].trace_id].samples, sites[i].start, spec,
                            ds.cc_slots_, max_tput);
    w.trace_id = sites[i].trace_id;
    ds.windows_[i] = std::move(w);
  });
  return ds;
}

Dataset::Split Dataset::random_split(double train_frac, double val_frac,
                                     common::Rng& rng) const {
  CA5G_CHECK_MSG(train_frac > 0.0 && val_frac >= 0.0 && train_frac + val_frac < 1.0,
                 "bad split fractions");
  std::vector<std::size_t> idx(windows_.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  rng.shuffle(idx);

  const auto n_train = static_cast<std::size_t>(train_frac * static_cast<double>(idx.size()));
  const auto n_val = static_cast<std::size_t>(val_frac * static_cast<double>(idx.size()));
  Split split;
  for (std::size_t i = 0; i < idx.size(); ++i) {
    const Window* w = &windows_[idx[i]];
    if (i < n_train)
      split.train.push_back(w);
    else if (i < n_train + n_val)
      split.val.push_back(w);
    else
      split.test.push_back(w);
  }
  CA5G_CHECK_MSG(!split.train.empty() && !split.test.empty(), "degenerate split");
  return split;
}

Dataset::Split Dataset::trace_split(double train_traces_frac, double val_frac,
                                    common::Rng& rng) const {
  CA5G_CHECK_MSG(train_traces_frac > 0.0 && train_traces_frac < 1.0, "bad trace split");
  std::vector<std::size_t> trace_ids(trace_count_);
  for (std::size_t i = 0; i < trace_ids.size(); ++i) trace_ids[i] = i;
  rng.shuffle(trace_ids);
  const auto n_train_traces = std::max<std::size_t>(
      1, static_cast<std::size_t>(train_traces_frac * static_cast<double>(trace_count_)));
  std::vector<bool> is_train_trace(trace_count_, false);
  for (std::size_t i = 0; i < n_train_traces; ++i) is_train_trace[trace_ids[i]] = true;

  Split split;
  for (const auto& w : windows_) {
    if (is_train_trace[w.trace_id]) {
      split.train.push_back(&w);
    } else {
      split.test.push_back(&w);
    }
  }
  // Carve validation windows out of the training traces.
  const auto n_val = static_cast<std::size_t>(val_frac * static_cast<double>(split.train.size()));
  std::vector<std::size_t> idx(split.train.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  rng.shuffle(idx);
  std::vector<const Window*> new_train;
  for (std::size_t i = 0; i < idx.size(); ++i) {
    if (i < n_val)
      split.val.push_back(split.train[idx[i]]);
    else
      new_train.push_back(split.train[idx[i]]);
  }
  split.train = std::move(new_train);
  CA5G_CHECK_MSG(!split.train.empty() && !split.test.empty(), "degenerate trace split");
  return split;
}

}  // namespace ca5g::traces

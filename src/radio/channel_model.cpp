#include "radio/channel_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"

namespace ca5g::radio {

LinkChannel::LinkChannel(common::Rng rng, ChannelModelParams params)
    : rng_(rng), params_(params) {
  shadow_db_ = rng_.normal(0.0, params_.shadow_sigma_db);
  fading_db_ = rng_.normal(0.0, params_.fading_sigma_db);
}

LinkChannel::Step LinkChannel::step(const ChannelModelParams& params, double moved_m,
                                     double dt_s) {
  CA5G_CHECK_MSG(moved_m >= 0.0 && dt_s >= 0.0, "negative movement/time");
  Step s;
  // Gudmundson spatial correlation for shadowing.
  s.shadow_rho = std::exp(-moved_m / params.shadow_corr_distance_m);
  s.shadow_innovation = std::sqrt(std::max(0.0, 1.0 - s.shadow_rho * s.shadow_rho));
  // AR(1) temporal correlation for fast fading. Even a stationary UE sees
  // fading churn (scatterer motion), hence time- not distance-driven.
  s.fading_rho = std::exp(-dt_s / params.fading_corr_time_s);
  s.fading_innovation = std::sqrt(std::max(0.0, 1.0 - s.fading_rho * s.fading_rho));
  return s;
}

void LinkChannel::advance(const Step& step) {
  shadow_db_ = step.shadow_rho * shadow_db_ +
               step.shadow_innovation * rng_.normal(0.0, params_.shadow_sigma_db);
  fading_db_ = step.fading_rho * fading_db_ +
               step.fading_innovation * rng_.normal(0.0, params_.fading_sigma_db);
}

void LinkChannel::correlate_with(const LinkChannel& other, double rho) {
  CA5G_CHECK_MSG(rho >= 0.0 && rho <= 1.0, "correlation out of range: " << rho);
  shadow_db_ = rho * other.shadow_db_ + std::sqrt(1.0 - rho * rho) * shadow_db_;
}

NoiseFloor noise_floor(int scs_khz, double interference_load) {
  // Per-resource-element noise floor: SS-RSRP and SS-SINR are per-RE
  // quantities, so the comparison uses the subcarrier bandwidth.
  NoiseFloor f;
  f.noise_dbm = noise_power_dbm(scs_khz * 1e3);
  f.noise_mw = std::pow(10.0, f.noise_dbm / 10.0);
  // Load-scaled rise over thermal (~8 dB at a busy cell edge).
  f.load_interference_dbm =
      f.noise_dbm + 10.0 * std::log10(1.0 + 7.0 * std::clamp(interference_load, 0.0, 1.0));
  return f;
}

LinkMeasurement link_quality(double rsrp_dbm, const NoiseFloor& floor,
                             double explicit_interference_dbm) {
  LinkMeasurement m;
  m.rsrp_dbm = rsrp_dbm;
  // Neighbour-cell interference: explicit co-channel power when the
  // caller computed it from actual neighbour links; otherwise the
  // load-based rise over thermal.
  const double interference_dbm = explicit_interference_dbm > -300.0
                                      ? explicit_interference_dbm
                                      : floor.load_interference_dbm;
  const double denom_mw = floor.noise_mw + std::pow(10.0, interference_dbm / 10.0);
  m.sinr_db = rsrp_dbm - 10.0 * std::log10(denom_mw);
  m.sinr_db = std::clamp(m.sinr_db, -15.0, 35.0);

  // RSRQ = N·RSRP/RSSI; map via SINR so quality degrades with load.
  // Perfect channel → ≈ -5 dB; cell edge → ≈ -19 dB.
  m.rsrq_db = std::clamp(-19.5 + 14.0 * (m.sinr_db + 15.0) / 50.0, -19.5, -5.0);
  return m;
}

LinkMeasurement compute_link(const LinkBudgetInputs& in) {
  double loss = path_loss_db(in.freq_mhz, in.dist_m, in.env) + in.stochastic_loss_db;
  if (in.ue_indoor) loss += o2i_penetration_db(in.freq_mhz);
  return link_quality(in.tx_power_dbm - loss, noise_floor(in.scs_khz, in.interference_load),
                      in.explicit_interference_dbm);
}

}  // namespace ca5g::radio

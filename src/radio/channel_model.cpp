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

void LinkChannel::advance(double moved_m, double dt_s) {
  CA5G_CHECK_MSG(moved_m >= 0.0 && dt_s >= 0.0, "negative movement/time");
  // Gudmundson spatial correlation for shadowing.
  const double rho_s = std::exp(-moved_m / params_.shadow_corr_distance_m);
  shadow_db_ = rho_s * shadow_db_ +
               std::sqrt(std::max(0.0, 1.0 - rho_s * rho_s)) *
                   rng_.normal(0.0, params_.shadow_sigma_db);
  // AR(1) temporal correlation for fast fading. Even a stationary UE sees
  // fading churn (scatterer motion), hence time- not distance-driven.
  const double rho_f = std::exp(-dt_s / params_.fading_corr_time_s);
  fading_db_ = rho_f * fading_db_ +
               std::sqrt(std::max(0.0, 1.0 - rho_f * rho_f)) *
                   rng_.normal(0.0, params_.fading_sigma_db);
}

void LinkChannel::correlate_with(const LinkChannel& other, double rho) {
  CA5G_CHECK_MSG(rho >= 0.0 && rho <= 1.0, "correlation out of range: " << rho);
  shadow_db_ = rho * other.shadow_db_ + std::sqrt(1.0 - rho * rho) * shadow_db_;
}

LinkMeasurement compute_link(const LinkBudgetInputs& in) {
  double loss = path_loss_db(in.freq_mhz, in.dist_m, in.env) + in.stochastic_loss_db;
  if (in.ue_indoor) loss += o2i_penetration_db(in.freq_mhz);

  LinkMeasurement m;
  m.rsrp_dbm = in.tx_power_dbm - loss;

  // Per-resource-element noise floor: SS-RSRP and SS-SINR are per-RE
  // quantities, so the comparison uses the subcarrier bandwidth.
  const double noise_dbm = noise_power_dbm(in.scs_khz * 1e3);
  const double signal_dbm = m.rsrp_dbm;
  // Neighbour-cell interference: explicit co-channel power when the
  // caller computed it from actual neighbour links; otherwise a
  // load-scaled rise over thermal (~8 dB at a busy cell edge).
  const double interference_dbm =
      in.explicit_interference_dbm > -300.0
          ? in.explicit_interference_dbm
          : noise_dbm + 10.0 * std::log10(
                            1.0 + 7.0 * std::clamp(in.interference_load, 0.0, 1.0));
  const double denom_mw = std::pow(10.0, noise_dbm / 10.0) +
                          std::pow(10.0, interference_dbm / 10.0);
  m.sinr_db = signal_dbm - 10.0 * std::log10(denom_mw);
  m.sinr_db = std::clamp(m.sinr_db, -15.0, 35.0);

  // RSRQ = N·RSRP/RSSI; map via SINR so quality degrades with load.
  // Perfect channel → ≈ -5 dB; cell edge → ≈ -19 dB.
  m.rsrq_db = std::clamp(-19.5 + 14.0 * (m.sinr_db + 15.0) / 50.0, -19.5, -5.0);
  return m;
}

}  // namespace ca5g::radio

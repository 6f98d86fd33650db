// Per-link stochastic channel state: spatially correlated log-normal
// shadowing (Gudmundson) plus temporally correlated fast fading (AR(1)).
//
// Intra-band component carriers at the same site share most of their
// propagation environment, so their shadowing processes are generated
// with a configurable cross-correlation — this is what produces the
// paper's Fig. 13 contrast (intra-band RSRPs track each other; inter-band
// RSRPs do not).
#pragma once

#include "common/rng.hpp"
#include "radio/propagation.hpp"

namespace ca5g::radio {

/// Parameters of the correlated shadowing/fading processes.
struct ChannelModelParams {
  double shadow_sigma_db = 5.0;       ///< log-normal shadowing std-dev
  double shadow_corr_distance_m = 90; ///< decorrelation distance
  double fading_sigma_db = 3.0;       ///< fast-fading std-dev (post-MRC)
  double fading_corr_time_s = 0.25;   ///< fading coherence time
};

/// Evolving shadowing + fading state for one cell↔UE link.
class LinkChannel {
 public:
  /// AR(1) coefficients of one time step. They depend only on the
  /// parameters and the step, so links that share their parameters share
  /// one Step.
  struct Step {
    double shadow_rho = 1.0;         ///< Gudmundson spatial correlation
    double shadow_innovation = 0.0;  ///< sqrt(1 - shadow_rho²)
    double fading_rho = 1.0;         ///< temporal correlation of fast fading
    double fading_innovation = 0.0;  ///< sqrt(1 - fading_rho²)
  };

  LinkChannel(common::Rng rng, ChannelModelParams params);

  /// Coefficients of a step in which the UE moved `moved_m` metres over
  /// `dt_s` seconds.
  [[nodiscard]] static Step step(const ChannelModelParams& params, double moved_m,
                                 double dt_s);

  /// Advance the processes by one step computed from this link's params.
  void advance(const Step& step);

  /// Force a correlated restart from another link's shadowing value
  /// (used to correlate intra-band CCs at the same site): the new
  /// shadowing is rho·other + sqrt(1-rho²)·own.
  void correlate_with(const LinkChannel& other, double rho);

  [[nodiscard]] double shadow_db() const noexcept { return shadow_db_; }
  /// Total stochastic loss contribution (positive = weaker signal).
  [[nodiscard]] double total_db() const noexcept { return shadow_db_ + fading_db_; }

 private:
  common::Rng rng_;
  ChannelModelParams params_;
  double shadow_db_ = 0.0;
  double fading_db_ = 0.0;
};

/// Instantaneous link-quality measurements a UE reports for one carrier.
struct LinkMeasurement {
  double rsrp_dbm = -140.0;  ///< SS-RSRP
  double rsrq_db = -20.0;    ///< SS-RSRQ
  double sinr_db = -10.0;    ///< SS-SINR
};

/// Sentinel for LinkBudgetInputs::explicit_interference_dbm: no explicit
/// co-channel power, use the load-based rise over thermal.
inline constexpr double kNoExplicitInterference = -1000.0;

/// Inputs for a link-budget evaluation of one carrier at one instant.
struct LinkBudgetInputs {
  double tx_power_dbm = 28.0;       ///< per-RE EIRP toward the UE (incl. gains)
  double freq_mhz = 1900.0;
  double dist_m = 100.0;
  Environment env = Environment::kUrbanMacro;
  bool ue_indoor = false;
  double stochastic_loss_db = 0.0;  ///< LinkChannel::total_db()
  int scs_khz = 30;                 ///< subcarrier spacing (per-RE noise floor)
  double interference_load = 0.3;   ///< neighbour-cell activity in [0,1]
  /// Explicit co-channel interference power (dBm, per-RE). When set
  /// (> -300), it replaces the load-based rise-over-thermal model —
  /// the simulator computes it from actual neighbour received powers.
  double explicit_interference_dbm = kNoExplicitInterference;
};

/// Per-RE noise floor of a carrier, and the load-based interference its
/// links fall back to when no explicit co-channel power is known.
struct NoiseFloor {
  double noise_dbm = 0.0;
  double noise_mw = 0.0;
  double load_interference_dbm = 0.0;  ///< load-scaled rise over thermal
};

/// Noise floor of a carrier with `scs_khz` subcarriers whose neighbours
/// carry `interference_load` in [0,1] (clamped).
[[nodiscard]] NoiseFloor noise_floor(int scs_khz, double interference_load);

/// SINR and RSRQ of a link received at `rsrp_dbm`, over `floor` plus
/// `explicit_interference_dbm` (when > -300) or the floor's load-based
/// interference. The returned measurement carries `rsrp_dbm` as its RSRP.
[[nodiscard]] LinkMeasurement link_quality(double rsrp_dbm, const NoiseFloor& floor,
                                           double explicit_interference_dbm);

/// Compute RSRP/RSRQ/SINR from the link budget. Interference is modelled
/// as a load-scaled rise over thermal noise.
[[nodiscard]] LinkMeasurement compute_link(const LinkBudgetInputs& in);

}  // namespace ca5g::radio

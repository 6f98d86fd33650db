// Per-component-carrier MAC scheduler and link adaptation.
//
// Converts a carrier's link measurement into the UE's slot-level grant:
// resource blocks (vs. cell load and CA-state throttling, paper Fig. 15),
// MIMO layers (rank adaptation including the CA power-split penalty that
// drops n25 from 3 layers to 1 in the paper's Fig. 14), MCS from CQI,
// BLER, and the resulting goodput.
#pragma once

#include "common/rng.hpp"
#include "phy/tbs.hpp"
#include "radio/channel_model.hpp"
#include "ran/deployment.hpp"
#include "ue/capability.hpp"

namespace ca5g::ran {

/// State of the CA combination relevant to per-CC scheduling decisions.
struct CaContext {
  int active_ccs = 1;            ///< CCs currently aggregated (incl. this one)
  int aggregate_bw_mhz = 0;      ///< total aggregated bandwidth
  bool is_pcell = true;
  bool is_fdd_supplement = false;///< FDD CC aggregated beside TDD CCs
  /// Outer-loop link adaptation: the MCS actually transmitted (trails
  /// the CQI-implied target; see CcAllocation::target_mcs). -1 = use
  /// the instantaneous target directly.
  int mcs_override = -1;
};

/// The slot-level grant and link-adaptation outcome for one CC.
struct CcAllocation {
  int cqi = 0;
  int mcs = 0;        ///< MCS actually used this interval
  int target_mcs = 0; ///< CQI-implied MCS the outer loop converges toward
  int layers = 1;
  int rb = 0;
  double bler = 0.0;
  double tput_bps = 0.0;  ///< goodput after BLER
};

/// Scheduler tuning parameters (calibrated in DESIGN.md §4.2).
struct SchedulerParams {
  /// Extra SINR loss per additional CC for FDD carriers sharing the
  /// site's power budget (drives the Fig. 14 MIMO-layer drop).
  double fdd_power_split_db_per_cc = 1.5;
  /// Same for TDD carriers (milder; separate panels/power amplifiers).
  double tdd_power_split_db_per_cc = 0.5;
  /// Aggregate bandwidth beyond which busy cells throttle SCell RBs.
  double throttle_bw_threshold_mhz = 120.0;
  /// Strength of the SCell RB throttle (fraction lost per 100 MHz excess
  /// at full load; paper Fig. 15).
  double throttle_strength = 0.55;
  /// Mean fraction of RBs granted to our UE at zero competing load.
  double max_rb_fraction = 0.92;
  /// RB grant jitter (std-dev, fraction of max).
  double rb_jitter = 0.06;
  /// Per-interval link utilization: real 5G throughput at 10 ms
  /// granularity is bursty (TDD patterns, HARQ, queue contention), so
  /// each scheduling interval realizes only a noisy fraction of the
  /// nominal rate. Mean/sigma of that fraction:
  double utilization_mean = 0.92;
  double utilization_sigma = 0.10;
  /// Probability of a deep scheduling outage in an interval (preemption
  /// by other traffic / HARQ stalls) and the residual rate during it.
  double outage_probability = 0.03;
  double outage_depth = 0.25;
};

/// Stateless per-slot scheduling decision.
class Scheduler {
 public:
  explicit Scheduler(SchedulerParams params = {}) : params_(params) {}

  /// Allocate one CC for one scheduling interval.
  /// `load` is the cell's competing-traffic fraction in [0,1].
  [[nodiscard]] CcAllocation allocate(const Carrier& carrier,
                                      const radio::LinkMeasurement& link,
                                      const CaContext& ca,
                                      const ue::UeCapability& capability, double load,
                                      common::Rng& rng) const;

  /// Rank (MIMO layers) selected for an effective SINR, before caps.
  [[nodiscard]] static int rank_from_sinr(double sinr_db) noexcept;

 private:
  SchedulerParams params_;
};

}  // namespace ca5g::ran

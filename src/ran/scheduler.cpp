#include "ran/scheduler.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "obs/metrics.hpp"
#include "phy/mcs.hpp"
#include "phy/numerology.hpp"

namespace ca5g::ran {

int Scheduler::rank_from_sinr(double sinr_db) noexcept {
  if (sinr_db >= 21.0) return 4;
  if (sinr_db >= 14.0) return 3;
  if (sinr_db >= 6.0) return 2;
  return 1;
}

CcAllocation Scheduler::allocate(const Carrier& carrier, const radio::LinkMeasurement& link,
                                 const CaContext& ca, const ue::UeCapability& capability,
                                 double load, common::Rng& rng) const {
  CA5G_CHECK_GE_MSG(ca.active_ccs, 1, "a scheduled CC is always part of the active set");
  CA5G_CHECK_GE_MSG(ca.aggregate_bw_mhz, 0, "aggregate bandwidth cannot be negative");
  CA5G_CHECK_GE_MSG(capability.max_mimo_layers, 1, "UE must support at least one layer");
  load = std::clamp(load, 0.0, 1.0);
  const auto& info = phy::band_info(carrier.band);
  CA5G_DCHECK_GE_MSG(ca.aggregate_bw_mhz, ca.is_pcell || ca.active_ccs == 1
                                              ? 0
                                              : carrier.bandwidth_mhz,
                     "aggregate bandwidth must cover this SCell's own channel");

  // --- Effective SINR: CA splits the site's transmit resources. The
  // penalty applies to the additional CCs; FDD supplemental carriers
  // (low-power re-farmed spectrum) suffer the most (paper Fig. 14).
  double sinr_eff = link.sinr_db;
  if (ca.active_ccs > 1) {
    const double per_cc = info.duplex == phy::Duplex::kFdd
                              ? params_.fdd_power_split_db_per_cc
                              : params_.tdd_power_split_db_per_cc;
    sinr_eff -= per_cc * static_cast<double>(ca.active_ccs - 1);
  }

  CA5G_METRIC_COUNTER(grants, "ran.grants_total");
  CA5G_METRIC_COUNTER(no_grants, "ran.no_grant_total");
  // One observation per grant: count is grants, sum is RBs granted.
  CA5G_METRIC_HISTOGRAM(grant_rb, "ran.grant_rb_count");
  CA5G_METRIC_COUNTER(scell_throttled, "ran.scell_throttled_total");

  CcAllocation alloc;
  alloc.cqi = phy::cqi_from_sinr(sinr_eff);
  if (alloc.cqi == 0) {
    no_grants.inc();
    return alloc;  // out of range: no grant
  }

  // --- Rank adaptation, capped by UE and band capability.
  int max_layers = capability.max_mimo_layers;
  if (phy::is_mmwave(carrier.band)) max_layers = std::min(max_layers, 2);
  if (info.duplex == phy::Duplex::kFdd) {
    // FDD radios in this study are 2T2R (low band) / 4T4R-but-3-layer
    // (re-farmed mid band) panels.
    max_layers = std::min(max_layers, info.range == phy::BandRange::kLow ? 2 : 3);
    // Under CA the base station re-balances transmit power away from the
    // supplemental FDD carriers; their usable rank collapses — the
    // paper's Fig. 14 shows n25 falling from 3 layers to 1 inside a
    // 3CC combination at identical RSRP/CQI.
    if (ca.active_ccs >= 3)
      max_layers = 1;
    else if (ca.active_ccs == 2)
      max_layers = std::min(max_layers, 2);
  }
  alloc.layers = std::min(rank_from_sinr(sinr_eff), max_layers);

  // --- MCS: the outer loop converges toward the CQI-implied target;
  // the engine supplies the lagged value via ca.mcs_override. A stale,
  // too-high MCS raises BLER until adaptation catches up — per-CC BLER
  // is therefore a leading indicator of that CC's throughput dips.
  int target = phy::mcs_from_cqi(alloc.cqi);
  target += static_cast<int>(rng.uniform_int(-1, 1));
  alloc.target_mcs = std::clamp(target, 0, phy::kMaxMcsIndex);
  alloc.mcs = ca.mcs_override >= 0 ? std::clamp(ca.mcs_override, 0, phy::kMaxMcsIndex)
                                   : alloc.target_mcs;
  alloc.bler = phy::bler_estimate(sinr_eff, alloc.mcs);

  // --- RB grant: full-buffer UE shares the carrier with `load` worth of
  // competing traffic (paper Tables 9–10: #RB shrinks at rush hour).
  const int max_rb = phy::max_resource_blocks(info.rat, carrier.bandwidth_mhz,
                                              carrier.scs_khz);
  double rb_fraction = params_.max_rb_fraction * (1.0 - 0.55 * load);

  // --- SCell throttling in busy cells once the aggregate bandwidth is
  // large (paper Fig. 15: the 40 MHz n41 SCell in a 240 MHz combo gets
  // starved while the same SCell in a 140 MHz combo does not). This is
  // an FR1 re-farming artefact; dedicated mmWave carriers are exempt.
  if (!phy::is_mmwave(carrier.band) && !ca.is_pcell &&
      ca.aggregate_bw_mhz > params_.throttle_bw_threshold_mhz) {
    const double excess_100mhz =
        (ca.aggregate_bw_mhz - params_.throttle_bw_threshold_mhz) / 100.0;
    rb_fraction *= std::max(0.15, 1.0 - params_.throttle_strength * load * excess_100mhz -
                                      0.25 * excess_100mhz);
    scell_throttled.inc();
  }

  rb_fraction = std::clamp(rb_fraction + rng.normal(0.0, params_.rb_jitter), 0.05, 1.0);
  alloc.rb = std::max(1, static_cast<int>(std::lround(rb_fraction * max_rb)));
  // The grant can never exceed what the carrier's channel bandwidth
  // physically carries (TS 38.101 RB capacity for this bandwidth/SCS).
  CA5G_DCHECK_LE_MSG(alloc.rb, max_rb, "RB grant exceeds carrier capacity");
  CA5G_DCHECK_IN_RANGE(alloc.layers, 1, capability.max_mimo_layers);
  CA5G_DCHECK_IN_RANGE(alloc.mcs, 0, phy::kMaxMcsIndex);

  // --- Slot throughput from the TBS machinery (paper Eq. 1).
  phy::TbsParams tbs;
  tbs.prb_count = alloc.rb;
  tbs.symbols = 13;  // one symbol of control overhead
  tbs.mcs_index = alloc.mcs;
  tbs.mimo_layers = alloc.layers;
  const double raw_bps = phy::slot_throughput_bps(tbs, carrier.scs_khz, info.duplex);

  // Per-interval utilization burstiness (see SchedulerParams). This is
  // what makes 10 ms-granularity throughput traces as noisy as the
  // paper's measurements (std/mean ≈ 0.45 both with and without CA).
  double utilization = std::clamp(
      rng.normal(params_.utilization_mean, params_.utilization_sigma), 0.15, 1.0);
  if (rng.bernoulli(params_.outage_probability))
    utilization *= params_.outage_depth * rng.uniform(0.3, 1.2);

  alloc.tput_bps = raw_bps * (1.0 - alloc.bler) * utilization;
  grants.inc();
  grant_rb.observe(static_cast<double>(alloc.rb));
  return alloc;
}

}  // namespace ca5g::ran

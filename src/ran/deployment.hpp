// Operator deployments: cell sites with configured carriers per the
// paper's Table 2 / Table 6 observations.
//
//  * OpX — 4G FDD low/mid portfolio; 5G n5 + n77 (2CC, up to 120 MHz)
//          plus dense-urban n260 mmWave (8CC).
//  * OpY — 4G portfolio; 5G n5 + n77+n77 (160 MHz) plus n261 mmWave.
//  * OpZ — aggressively re-farmed FR1: n71/n25/n41 with up to 4CC
//          (180 MHz aggregate), widest CA coverage.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "phy/band.hpp"
#include "radio/propagation.hpp"

namespace ca5g::ran {

/// Index of a configured carrier within a Deployment.
using CarrierId = std::uint32_t;

/// The three (anonymized) US operators of the study.
enum class OperatorId : std::uint8_t { kOpX, kOpY, kOpZ };

[[nodiscard]] std::string operator_name(OperatorId op);

/// One configured channel (component-carrier candidate) at a site.
struct Carrier {
  CarrierId id = 0;
  phy::BandId band = phy::BandId::kN41;
  int bandwidth_mhz = 20;
  int scs_khz = 15;
  int pci = 0;               ///< physical cell id
  int channel_index = 0;     ///< distinguishes n41-a vs n41-b within a band
  double tx_power_dbm = 44;  ///< EIRP toward the UE
  std::size_t site = 0;      ///< owning site index
};

/// A cell site (gNB/eNB) hosting one or more carriers.
struct Site {
  radio::Position pos;
  std::vector<CarrierId> carriers;
};

/// How likely cells are loaded and how load varies over the day; drives
/// RB availability (paper §B.2 temporal dynamics, Tables 8–10).
struct LoadProfile {
  double base_load = 0.25;       ///< off-peak competing-traffic fraction
  double rush_hour_load = 0.65;  ///< peak-hour fraction
  double rush_hour_start_h = 16.0;
  double rush_hour_end_h = 18.0;

  /// Cell load in [0,1] at a wall-clock hour of day.
  [[nodiscard]] double load_at_hour(double hour) const;
};

/// A full operator deployment over one measurement area.
struct Deployment {
  OperatorId op = OperatorId::kOpZ;
  radio::Environment env = radio::Environment::kUrbanMacro;
  std::vector<Site> sites;
  std::vector<Carrier> carriers;
  LoadProfile load;

  [[nodiscard]] const Carrier& carrier(CarrierId id) const;
  /// Carriers filtered by radio access technology.
  [[nodiscard]] std::vector<CarrierId> carriers_of_rat(phy::Rat rat) const;
};

/// Parameters for procedural deployment generation.
struct DeploymentParams {
  double extent_m = 2000.0;       ///< square area half-extent (centre at 0,0)
  double site_spacing_m = 350.0;  ///< target inter-site distance
  std::uint64_t seed = 1;
};

/// Build an operator deployment for an environment. Site density, carrier
/// sets, and 5G-CA prevalence follow the paper's per-operator findings
/// (§3.1: 5G CA coverage ≈ 24% OpX / 44% OpY / 86% OpZ of urban area).
[[nodiscard]] Deployment make_deployment(OperatorId op, radio::Environment env,
                                         const DeploymentParams& params);

/// Site index with the most carriers of the given RAT whose band is in
/// `band_lock` (any band when empty; see sim::ScenarioConfig::band_lock) —
/// where an ideal-condition (line-of-sight hot spot) measurement parks.
[[nodiscard]] std::size_t best_ca_site(const Deployment& dep, phy::Rat rat,
                                       std::span<const phy::BandId> band_lock = {});

}  // namespace ca5g::ran

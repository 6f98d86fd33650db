// The simulation engine: advances a UE through a deployment in fixed
// time steps (10 ms default), evolving per-link channels, running the CA
// manager at the RRC evaluation cadence, scheduling every active CC, and
// recording a Trace in the Table 12 schema.
//
// This substitutes for the paper's drive/walk measurement campaigns:
// the engine is the "network", the Trace is the "XCAL log".
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "ran/ca_manager.hpp"
#include "ran/scheduler.hpp"
#include "sim/trace.hpp"
#include "ue/mobility.hpp"

namespace ca5g::sim {

/// Mobility mode of a scenario (paper Table 1).
enum class Mobility : std::uint8_t { kStationary, kWalking, kDriving };

[[nodiscard]] std::string mobility_name(Mobility m);

/// Complete configuration of one simulated measurement run.
struct ScenarioConfig {
  ran::OperatorId op = ran::OperatorId::kOpZ;
  radio::Environment env = radio::Environment::kUrbanMacro;
  Mobility mobility = Mobility::kDriving;
  phy::Rat rat = phy::Rat::kNr;     ///< which RAT's CA the UE camps on
  double duration_s = 60.0;
  double step_s = 0.01;             ///< 10 ms recording granularity
  double rrc_interval_s = 0.1;      ///< CA-manager evaluation cadence
  double start_hour = 23.0;         ///< midnight runs, as in the paper
  ue::ModemModel modem = ue::ModemModel::kX70;
  bool ue_indoor = false;
  std::uint64_t seed = 7;
  /// [C1]-style band lock: restrict service to one band (service code
  /// *#2263# in the paper). Empty = all bands allowed.
  std::vector<phy::BandId> band_lock;
  /// Restrict service to specific carriers (lock to a combo under test).
  std::vector<ran::CarrierId> carrier_lock;
  /// Number of per-sample CC slots in the trace (4 FR1 / 8 FR2).
  std::size_t cc_slots = 4;
  /// Route for driving mobility; autogenerated when empty.
  std::vector<radio::Position> route;
  /// Fixed position for stationary mobility; default is a hot spot near
  /// the deployment centre.
  std::optional<radio::Position> stationary_position;
};

/// Simulates one scenario over a deployment and records the trace.
class SimulationEngine {
 public:
  SimulationEngine(const ran::Deployment& dep, ScenarioConfig config);

  /// Run the full scenario; returns the recorded trace.
  [[nodiscard]] Trace run();

 private:
  /// Values of one carrier that stay fixed for the whole run: the site
  /// positions, the start hour (hence the load) and the band never change.
  struct CarrierTerms {
    std::size_t site = 0;
    std::size_t group = 0;             ///< co-channel group index
    bool allowed = true;               ///< passes the band/carrier lock
    bool fr2 = false;
    double tx_power_dbm = 0.0;
    double frequency_db = 0.0;         ///< radio::path_loss_frequency_db
    double path_loss_10m_db = 0.0;     ///< path_loss_db at 10 m (RSRP round trip)
    double o2i_db = 0.0;               ///< wall loss for an indoor UE
    radio::NoiseFloor floor;           ///< per-RE noise, load-based fallback
    double activity = 0.0;             ///< neighbour activity scaling interference
    double util_rho = 0.0;             ///< cc_util AR(1) coefficient per step
    double util_innovation = 0.0;      ///< sqrt(1 - util_rho²)
    double util_sigma = 0.0;
  };

  void init_links();
  void init_mobility();
  void init_carrier_terms();
  [[nodiscard]] bool carrier_allowed(ran::CarrierId id) const;
  /// Received power of every carrier at the UE into ring row `row`; marks
  /// the row's co-channel sums stale.
  void measure_rx(std::size_t row);
  /// Total received power (mW) of co-channel group `group` in ring row
  /// `row`, summed in member order on first use after measure_rx.
  [[nodiscard]] double group_mw(std::size_t row, std::size_t group);
  /// RSRP as the UE reports it, from the received power `rx_dbm`.
  [[nodiscard]] double rsrp_dbm(ran::CarrierId id, double rx_dbm) const;
  /// Full measurement of carrier `id` from ring row `row`, with co-channel
  /// interference from the row's neighbour received powers.
  [[nodiscard]] radio::LinkMeasurement measure(ran::CarrierId id, std::size_t row);
  void record_step(double now_s, std::size_t current_row, std::size_t delayed_row,
                   std::vector<ran::RrcEvent> events, Trace& trace);

  const ran::Deployment* dep_;
  ScenarioConfig config_;
  common::Rng rng_;
  std::unique_ptr<ue::MobilityModel> mobility_;
  std::unique_ptr<ran::CaManager> ca_;
  ran::Scheduler scheduler_;
  radio::ChannelModelParams channel_params_;    ///< shared by every link
  std::vector<radio::LinkChannel> links_;       ///< one per carrier
  std::vector<CarrierTerms> terms_;             ///< one per carrier
  std::vector<double> filtered_rsrp_;           ///< L3-filtered RSRP per carrier
  std::vector<double> site_load_noise_;         ///< slow per-site load jitter
  std::vector<double> activation_;              ///< per-carrier SCell ramp state
  std::vector<double> cc_util_state_;           ///< AR(1) per-carrier utilization
  std::vector<double> mcs_state_;               ///< outer-loop lagged MCS per carrier
  std::vector<std::uint8_t> congested_;         ///< per-carrier elephant-flow state (0/1)
  /// CSI reporting + scheduling delay: grants at t follow the channel
  /// measured ~80 ms earlier, so UE-observed RSRP/SINR/CQI LEAD the
  /// throughput they produce. The ring keeps csi_delay_steps_ + 1 rows of
  /// per-carrier received power (dBm); step k writes row k mod rows.
  /// Only the active carriers' groups are ever read, at the current and
  /// the delayed row, so the co-channel sums are filled on demand.
  std::size_t csi_delay_steps_ = 1;
  std::vector<double> rx_dbm_ring_;             ///< rows × carriers
  std::vector<double> group_mw_ring_;           ///< rows × co-channel groups (mW)
  std::vector<std::uint8_t> group_mw_valid_;    ///< rows × groups: summed since last write
  std::vector<double> site_log10_d_;            ///< this step's log10 UE–site distance
  /// Carriers sharing (band, channel index) — mutual interferers.
  std::vector<std::vector<ran::CarrierId>> cochannel_groups_;
  double util_state_ = 0.88;                    ///< AR(1) common utilization
  radio::Position ue_pos_;
};

/// Convenience: build a deployment and run a scenario in one call.
[[nodiscard]] Trace run_scenario(const ScenarioConfig& config,
                                 const ran::DeploymentParams& dep_params = {});

}  // namespace ca5g::sim

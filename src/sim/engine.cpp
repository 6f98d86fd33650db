#include "sim/engine.hpp"

#include <algorithm>
#include <map>
#include <cmath>

#include "common/contracts.hpp"
#include "obs/metrics.hpp"
#include "obs/trace_span.hpp"
#include "phy/numerology.hpp"

namespace ca5g::sim {

std::string mobility_name(Mobility m) {
  switch (m) {
    case Mobility::kStationary: return "stationary";
    case Mobility::kWalking: return "walking";
    case Mobility::kDriving: return "driving";
  }
  return "unknown";
}

SimulationEngine::SimulationEngine(const ran::Deployment& dep, ScenarioConfig config)
    : dep_(&dep), config_(std::move(config)), rng_(config_.seed) {
  CA5G_CHECK_MSG(config_.step_s > 0.0, "step must be positive");
  CA5G_CHECK_MSG(config_.duration_s >= config_.step_s, "duration shorter than a step");
  CA5G_CHECK_MSG(config_.cc_slots >= 1, "need at least one CC slot");

  init_mobility();
  init_links();

  auto policy = ran::default_policy(dep.op);
  ca_ = std::make_unique<ran::CaManager>(dep, config_.rat, ue::ue_capability(config_.modem),
                                         policy);
  filtered_rsrp_.assign(dep.carriers.size(), -160.0);
  site_load_noise_.assign(dep.sites.size(), 0.0);
  for (auto& noise : site_load_noise_) noise = rng_.normal(0.0, 0.05);
  activation_.assign(dep.carriers.size(), 1.0);
  cc_util_state_.assign(dep.carriers.size(), 0.85);
  for (auto& u : cc_util_state_) u = std::clamp(rng_.normal(0.85, 0.1), 0.4, 1.05);
  mcs_state_.assign(dep.carriers.size(), -1.0);
  congested_.assign(dep.carriers.size(), 0);
  for (auto& c : congested_) c = rng_.bernoulli(0.25);
  util_state_ = 0.88;

  init_carrier_terms();
  // CSI delay pipeline: ≈80 ms at fine steps, one step when coarser.
  csi_delay_steps_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(0.08 / config_.step_s)));
  const std::size_t rows = csi_delay_steps_ + 1;
  rx_dbm_ring_.assign(rows * dep.carriers.size(), 0.0);
  group_mw_ring_.assign(rows * cochannel_groups_.size(), 0.0);
  group_mw_valid_.assign(rows * cochannel_groups_.size(), 0);
  site_log10_d_.assign(dep.sites.size(), 0.0);
}

void SimulationEngine::init_mobility() {
  common::Rng mob_rng = rng_.fork(0x0b17);
  switch (config_.mobility) {
    case Mobility::kStationary: {
      // Hot spot near (but not on top of) a site: ideal channel condition.
      const radio::Position pos =
          config_.stationary_position.value_or(radio::Position{120.0, 40.0});
      mobility_ = std::make_unique<ue::StationaryMobility>(pos);
      break;
    }
    case Mobility::kWalking: {
      const double extent = config_.env == radio::Environment::kIndoor ? 60.0 : 250.0;
      mobility_ = std::make_unique<ue::WalkingMobility>(mob_rng, radio::Position{50, 80},
                                                        extent);
      break;
    }
    case Mobility::kDriving: {
      std::vector<radio::Position> route = config_.route;
      if (route.empty()) {
        // Default: a zig-zag sweep through the deployment area.
        // The sweep starts and ends at the grid edge so a drive traverses
        // strong-CA, sparse, and edge-coverage zones without dead air.
        route = {{-1950, -1700}, {-600, -1200}, {200, -300}, {-300, 600},
                 {700, 900},     {1500, 300},   {1950, 1700}};
      }
      double speed = 13.0;  // m/s ≈ 47 km/h urban
      double stop_rate = 2.0;
      if (config_.env == radio::Environment::kSuburbanMacro) {
        speed = 18.0;
        stop_rate = 0.8;
      } else if (config_.env == radio::Environment::kHighway) {
        speed = 28.0;  // ≈ 100 km/h
        stop_rate = 0.0;
      }
      mobility_ = std::make_unique<ue::DrivingMobility>(mob_rng, std::move(route), speed,
                                                        stop_rate);
      break;
    }
  }
  ue_pos_ = mobility_->position();
}

void SimulationEngine::init_links() {
  links_.clear();
  links_.reserve(dep_->carriers.size());
  if (config_.env == radio::Environment::kIndoor) channel_params_.shadow_sigma_db = 7.5;
  for (const auto& carrier : dep_->carriers) {
    (void)carrier;
    links_.emplace_back(rng_.fork(0xC0DE + links_.size()), channel_params_);
  }
  // Correlate shadowing of co-sited carriers: intra-band strongly
  // (rho≈0.9), inter-band moderately (rho≈0.45) — drives paper Fig. 13.
  for (const auto& site : dep_->sites) {
    for (std::size_t i = 1; i < site.carriers.size(); ++i) {
      const auto a = site.carriers[i];
      // Prefer a prior same-band carrier at this site (strong intra-band
      // correlation); otherwise anchor to the site's first carrier.
      ran::CarrierId anchor = site.carriers[0];
      bool same_band = dep_->carrier(a).band == dep_->carrier(anchor).band;
      for (std::size_t j = i; j-- > 0;) {
        if (dep_->carrier(site.carriers[j]).band == dep_->carrier(a).band) {
          anchor = site.carriers[j];
          same_band = true;
          break;
        }
      }
      links_[a].correlate_with(links_[anchor], same_band ? 0.9 : 0.45);
    }
  }
}

bool SimulationEngine::carrier_allowed(ran::CarrierId id) const {
  const auto& carrier = dep_->carrier(id);
  if (!config_.band_lock.empty() &&
      std::find(config_.band_lock.begin(), config_.band_lock.end(), carrier.band) ==
          config_.band_lock.end())
    return false;
  if (!config_.carrier_lock.empty() &&
      std::find(config_.carrier_lock.begin(), config_.carrier_lock.end(), id) ==
          config_.carrier_lock.end())
    return false;
  return true;
}

void SimulationEngine::init_carrier_terms() {
  terms_.assign(dep_->carriers.size(), CarrierTerms{});
  // Co-channel interference groups: carriers on the same band and
  // channel index at different sites interfere with each other.
  std::map<std::pair<int, int>, std::size_t> group_index;
  for (const auto& carrier : dep_->carriers) {
    const auto key = std::make_pair(static_cast<int>(carrier.band), carrier.channel_index);
    auto [it, inserted] = group_index.emplace(key, cochannel_groups_.size());
    if (inserted) cochannel_groups_.emplace_back();
    cochannel_groups_[it->second].push_back(carrier.id);
    terms_[carrier.id].group = it->second;
  }

  const double hour_load = dep_->load.load_at_hour(config_.start_hour);
  for (const auto& carrier : dep_->carriers) {
    const auto& info = phy::band_info(carrier.band);
    const double freq_mhz = info.center_freq_mhz * (1.0 + 0.01 * carrier.channel_index);
    auto& t = terms_[carrier.id];
    t.site = carrier.site;
    t.allowed = carrier_allowed(carrier.id);
    t.fr2 = radio::is_fr2(freq_mhz);
    t.tx_power_dbm = carrier.tx_power_dbm;
    t.frequency_db = radio::path_loss_frequency_db(freq_mhz);
    t.path_loss_10m_db = radio::path_loss_db(freq_mhz, 10.0, config_.env);
    t.o2i_db = radio::o2i_penetration_db(info.center_freq_mhz);
    const double load =
        std::clamp(hour_load + site_load_noise_[carrier.site], 0.0, 1.0);
    t.floor = radio::noise_floor(carrier.scs_khz, load);
    // Effective interference: neighbour activity scales with load, and
    // antenna downtilt/sectorization discriminates against most
    // interferers (≈ -6 dB on average).
    t.activity = 0.25 * (0.2 + 0.6 * load);

    // Per-carrier persistent utilization (see record_step): coherence
    // time and volatility depend on the band class.
    double tau = 0.8, sigma = 0.14;  // TDD mid band default
    if (info.range == phy::BandRange::kHigh) {
      tau = 0.3;
      sigma = 0.18;
    } else if (info.duplex == phy::Duplex::kFdd) {
      tau = info.range == phy::BandRange::kLow ? 4.0 : 2.5;
      sigma = info.range == phy::BandRange::kLow ? 0.08 : 0.10;
    }
    t.util_rho = std::exp(-config_.step_s / tau);
    t.util_innovation = std::sqrt(1.0 - t.util_rho * t.util_rho);
    t.util_sigma = sigma;
  }
}

void SimulationEngine::measure_rx(std::size_t row) {
  for (std::size_t s = 0; s < dep_->sites.size(); ++s)
    site_log10_d_[s] = radio::log10_distance(radio::distance_m(ue_pos_, dep_->sites[s].pos));

  // Received per-RE power of every carrier at the UE.
  double* rx_dbm = rx_dbm_ring_.data() + row * terms_.size();
  for (std::size_t id = 0; id < terms_.size(); ++id) {
    const auto& t = terms_[id];
    double loss = radio::path_loss_distance_db(site_log10_d_[t.site], t.fr2, config_.env) +
                  t.frequency_db + links_[id].total_db();
    if (config_.ue_indoor) loss += t.o2i_db;
    rx_dbm[id] = t.tx_power_dbm - loss;
  }
  std::fill_n(group_mw_valid_.data() + row * cochannel_groups_.size(),
              cochannel_groups_.size(), 0);
}

double SimulationEngine::group_mw(std::size_t row, std::size_t group) {
  // A carrier's interference is its group's total received power minus
  // its own.
  const std::size_t slot = row * cochannel_groups_.size() + group;
  if (group_mw_valid_[slot] == 0) {
    const double* rx_dbm = rx_dbm_ring_.data() + row * terms_.size();
    double sum = 0.0;
    for (auto id : cochannel_groups_[group]) sum += std::pow(10.0, rx_dbm[id] / 10.0);
    group_mw_ring_[slot] = sum;
    group_mw_valid_[slot] = 1;
  }
  return group_mw_ring_[slot];
}

double SimulationEngine::rsrp_dbm(ran::CarrierId id, double rx_dbm) const {
  // The link budget re-expresses the received power as a stochastic loss
  // on top of the 10 m path loss; the round trip is not bit-equal to
  // rx_dbm, and the recorded RSRP is the round-trip value.
  const auto& t = terms_[id];
  const double stochastic_loss_db = t.tx_power_dbm - rx_dbm - t.path_loss_10m_db;
  return t.tx_power_dbm - (t.path_loss_10m_db + stochastic_loss_db);
}

radio::LinkMeasurement SimulationEngine::measure(ran::CarrierId id, std::size_t row) {
  const auto& t = terms_[id];
  const double rx_dbm = rx_dbm_ring_[row * terms_.size() + id];
  const double rx_mw = std::pow(10.0, rx_dbm / 10.0);
  const double interference_mw = (group_mw(row, t.group) - rx_mw) * t.activity;
  return radio::link_quality(rsrp_dbm(id, rx_dbm), t.floor,
                             interference_mw > 0.0 ? 10.0 * std::log10(interference_mw)
                                                   : radio::kNoExplicitInterference);
}

void SimulationEngine::record_step(double now_s, std::size_t current_row,
                                   std::size_t delayed_row,
                                   std::vector<ran::RrcEvent> events, Trace& trace) {
  CA5G_METRIC_HISTOGRAM(record_step_ns, "sim.record_step_ns");
  CA5G_SCOPED_TIMER(record_step_ns);
  TraceSample sample;
  sample.time_s = now_s;
  sample.hour_of_day = std::fmod(config_.start_hour + now_s / 3600.0, 24.0);
  sample.pos = ue_pos_;
  sample.events = std::move(events);
  sample.ccs.assign(config_.cc_slots, CcSample{});

  const auto& active = ca_->active_set();
  const auto capability = ue::ue_capability(config_.modem);
  const double load = std::clamp(
      dep_->load.load_at_hour(sample.hour_of_day), 0.0, 1.0);

  // Aggregate bandwidth of the current combination (for throttling).
  int aggregate_bw = 0;
  for (auto id : active) aggregate_bw += dep_->carrier(id).bandwidth_mhz;

  // Common per-step utilization: burstiness correlated across all CCs
  // (TDD pattern alignment, transport/backhaul, flow control). This is a
  // large share of the variance the paper measures at 10 ms granularity
  // and it does NOT average out across carriers. The process is AR(1)
  // (coherence ≈ 0.7 s) plus a white component and rare deep outages.
  {
    const double rho = std::exp(-config_.step_s / 0.7);
    util_state_ = rho * util_state_ + (1.0 - rho) * 0.88 +
                  std::sqrt(1.0 - rho * rho) * rng_.normal(0.0, 0.12);
    util_state_ = std::clamp(util_state_, 0.3, 1.05);
  }
  double common_util = std::clamp(util_state_ + rng_.normal(0.0, 0.05), 0.2, 1.1);
  if (rng_.bernoulli(0.03)) common_util *= rng_.uniform(0.15, 0.5);

  // Per-carrier congestion regime: competing heavy flows arrive at and
  // leave individual cells (semi-Markov, dwell ≈ 6 s congested / 14 s
  // free). A congested carrier loses a large share of its RBs — visible
  // in that CC's #RB feature (the paper's Tables 9-10 show exactly this
  // load→#RB→throughput pathway) but confounded in the aggregate.
  for (std::size_t i = 0; i < congested_.size(); ++i) {
    const double leave_rate = congested_[i] ? 1.0 / 6.0 : 1.0 / 14.0;
    if (rng_.bernoulli(leave_rate * config_.step_s)) congested_[i] ^= 1;
  }

  // Per-carrier persistent utilization (per-CC scheduling share, HARQ
  // health, cross-traffic on that cell): AR(1) whose coherence time and
  // volatility depend on the band class — FDD low band is the stable
  // coverage layer, TDD mid band carries bursty contention, mmWave
  // churns fastest. The processes move INDEPENDENTLY per carrier and
  // with DIFFERENT dynamics, so the aggregate history confounds them;
  // only per-CC histories (Prism5G's view) separate which carrier is
  // rising or falling and how quickly it will revert.
  for (std::size_t id = 0; id < cc_util_state_.size(); ++id) {
    const auto& t = terms_[id];
    double& u = cc_util_state_[id];
    u = t.util_rho * u + (1.0 - t.util_rho) * 0.85 +
        t.util_innovation * rng_.normal(0.0, t.util_sigma);
    u = std::clamp(u, 0.25, 1.1);
  }

  const double mcs_ramp = 1.0 - std::exp(-config_.step_s / 0.3);
  double total_mbps = 0.0;
  for (std::size_t slot = 0; slot < active.size() && slot < config_.cc_slots; ++slot) {
    const auto id = active[slot];
    const auto& carrier = dep_->carrier(id);
    const auto current = measure(id, current_row);
    ran::CaContext ctx;
    ctx.active_ccs = static_cast<int>(active.size());
    ctx.aggregate_bw_mhz = aggregate_bw;
    ctx.is_pcell = (slot == 0);
    // Outer-loop link adaptation: use the lagged MCS (time constant
    // ≈ 0.3 s) and converge it toward the instantaneous target.
    if (mcs_state_[id] >= 0.0)
      ctx.mcs_override = static_cast<int>(std::lround(mcs_state_[id]));

    const double site_load = std::clamp(
        load + site_load_noise_[carrier.site] + (congested_[id] ? 0.55 : 0.0), 0.0,
        1.0);
    // Grants follow the DELAYED channel state (CSI pipeline); the trace
    // records the CURRENT measurements below, so measured link quality
    // leads throughput by the reporting delay.
    auto alloc = scheduler_.allocate(carrier, measure(id, delayed_row), ctx, capability,
                                     site_load, rng_);
    mcs_state_[id] = mcs_state_[id] < 0.0
                         ? static_cast<double>(alloc.target_mcs)
                         : mcs_state_[id] +
                               (alloc.target_mcs - mcs_state_[id]) * mcs_ramp;
    // Newly activated carriers ramp up over ≈0.4 s (CSI acquisition,
    // scheduler warm-up). The RRC event is thus a LEADING indicator of
    // the throughput change — the paper's Z2 transition behaviour.
    alloc.tput_bps *= common_util * activation_[id] * cc_util_state_[id];

    CcSample& cc = sample.ccs[slot];
    cc.active = true;
    cc.is_pcell = ctx.is_pcell;
    cc.carrier = id;
    cc.band = carrier.band;
    cc.bandwidth_mhz = carrier.bandwidth_mhz;
    cc.pci = carrier.pci;
    cc.channel_index = carrier.channel_index;
    cc.rsrp_dbm = current.rsrp_dbm;
    cc.rsrq_db = current.rsrq_db;
    cc.sinr_db = current.sinr_db;
    cc.cqi = alloc.cqi;
    cc.rb = alloc.rb;
    cc.layers = alloc.layers;
    cc.mcs = alloc.mcs;
    cc.bler = alloc.bler;
    cc.tput_mbps = alloc.tput_bps / 1e6;
    total_mbps += cc.tput_mbps;
  }

  // MAC multiplexing inefficiency grows mildly with CC count: the
  // aggregate is less than the sum of stand-alone capacities (Fig. 6).
  if (sample.active_cc_count() > 1)
    total_mbps *= 1.0 - 0.02 * static_cast<double>(sample.active_cc_count() - 1);
  sample.aggregate_tput_mbps = total_mbps;
  trace.samples.push_back(std::move(sample));
}

Trace SimulationEngine::run() {
  CA5G_METRIC_COUNTER(steps_total, "sim.steps_total");
  CA5G_METRIC_COUNTER(rrc_evaluations, "sim.rrc_evaluations_total");
  CA5G_METRIC_COUNTER(rrc_events, "sim.rrc_events_total");
  CA5G_METRIC_HISTOGRAM(step_ns, "sim.step_ns");
  CA5G_METRIC_GAUGE(steps_per_s, "sim.steps_per_s");
  obs::StopWatch run_watch;

  Trace trace;
  trace.op = dep_->op;
  trace.env = config_.env;
  trace.mobility = mobility_name(config_.mobility);
  trace.modem = config_.modem;
  trace.step_s = config_.step_s;
  trace.cc_slots = config_.cc_slots;

  const auto steps = static_cast<std::size_t>(std::llround(config_.duration_s / config_.step_s));
  const auto rrc_every =
      std::max<std::size_t>(1, static_cast<std::size_t>(
                                   std::llround(config_.rrc_interval_s / config_.step_s)));
  const std::size_t rows = csi_delay_steps_ + 1;

  for (std::size_t step = 0; step < steps; ++step) {
    CA5G_SCOPED_TIMER(step_ns);
    steps_total.inc();
    const double now_s = static_cast<double>(step) * config_.step_s;

    // Advance mobility and channel processes.
    const radio::Position before = ue_pos_;
    ue_pos_ = mobility_->step(config_.step_s);
    const double moved = radio::distance_m(before, ue_pos_);
    const auto link_step = radio::LinkChannel::step(channel_params_, moved, config_.step_s);
    for (auto& link : links_) link.advance(link_step);

    // Grants follow the row written csi_delay_steps_ ago (row 0's until
    // the ring has filled).
    const std::size_t row = step % rows;
    const std::size_t delayed_row =
        (step < csi_delay_steps_ ? 0 : step - csi_delay_steps_) % rows;
    measure_rx(row);

    // L3 filtering of RSRP for RRC decisions (reduces ping-pong).
    const double* rx_dbm = rx_dbm_ring_.data() + row * terms_.size();
    for (std::size_t id = 0; id < terms_.size(); ++id) {
      const double raw = terms_[id].allowed ? rsrp_dbm(id, rx_dbm[id]) : -160.0;
      filtered_rsrp_[id] = 0.7 * filtered_rsrp_[id] + 0.3 * raw;
    }

    std::vector<ran::RrcEvent> events;
    if (step % rrc_every == 0) {
      rrc_evaluations.inc();
      events = ca_->update(filtered_rsrp_, now_s);
    }

    // Activation ramps: newly added carriers start at 20% of their rate;
    // a PCell change briefly interrupts service on the new PCell.
    for (const auto& event : events) {
      rrc_events.inc();
      if (event.type == ran::RrcEventType::kSCellAdd)
        activation_[event.carrier] = 0.2;
      else if (event.type == ran::RrcEventType::kPCellChange)
        activation_[event.carrier] = 0.35;
    }
    const double ramp = 1.0 - std::exp(-config_.step_s / 0.4);
    for (auto& a : activation_) a += (1.0 - a) * ramp;

    record_step(now_s, row, delayed_row, std::move(events), trace);
  }
  steps_per_s.set(static_cast<double>(steps) / std::max(run_watch.elapsed_s(), 1e-9));
  return trace;
}

Trace run_scenario(const ScenarioConfig& config, const ran::DeploymentParams& dep_params) {
  ran::DeploymentParams params = dep_params;
  if (params.seed == 1) params.seed = config.seed * 977 + 13;
  const auto dep = ran::make_deployment(config.op, config.env, params);
  SimulationEngine engine(dep, config);
  return engine.run();
}

}  // namespace ca5g::sim

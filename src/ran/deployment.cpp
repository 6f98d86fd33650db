#include "ran/deployment.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/contracts.hpp"

namespace ca5g::ran {
namespace {

using phy::BandId;

/// Template for one carrier to configure at a site.
struct CarrierTemplate {
  BandId band;
  int bandwidth_mhz;
  int scs_khz;
  double tx_power_dbm;
};

/// Carrier bundle a site may host, with a deployment probability.
struct SiteProfile {
  std::vector<CarrierTemplate> carriers;
  double probability;  ///< fraction of sites hosting this bundle
};

// 4G carrier sets (most sites of every operator host rich LTE CA — the
// paper observes up to 5 LTE CCs for all three operators).
std::vector<SiteProfile> lte_profiles(OperatorId op) {
  switch (op) {
    case OperatorId::kOpX:
      return {{{{BandId::kB2, 20, 15, 28}, {BandId::kB66, 20, 15, 28},
                {BandId::kB12, 10, 15, 30}, {BandId::kB30, 10, 15, 27},
                {BandId::kB29, 5, 15, 30}},
               0.85},
              {{{BandId::kB2, 10, 15, 27}, {BandId::kB12, 10, 15, 30}}, 0.15}};
    case OperatorId::kOpY:
      return {{{{BandId::kB2, 20, 15, 28}, {BandId::kB66, 20, 15, 28},
                {BandId::kB13, 10, 15, 30}, {BandId::kB5, 10, 15, 30},
                {BandId::kB48, 20, 15, 28}},
               0.85},
              {{{BandId::kB66, 15, 15, 27}, {BandId::kB13, 10, 15, 30}}, 0.15}};
    case OperatorId::kOpZ:
      return {{{{BandId::kB2, 20, 15, 28}, {BandId::kB66, 20, 15, 28},
                {BandId::kB71, 5, 15, 30}, {BandId::kB41, 20, 15, 28},
                {BandId::kB25, 5, 15, 27}},
               0.85},
              {{{BandId::kB2, 15, 15, 27}, {BandId::kB71, 5, 15, 30}}, 0.15}};
  }
  return {};
}

// 5G carrier sets. Probabilities reflect §3.1 CA prevalence: OpZ ≈ 86%,
// OpY ≈ 44% (+25% mmWave urban), OpX ≈ 24% (+6% mmWave urban).
std::vector<SiteProfile> nr_profiles(OperatorId op, radio::Environment env) {
  const bool urban = env == radio::Environment::kUrbanMacro ||
                     env == radio::Environment::kIndoor;
  const bool suburban = env == radio::Environment::kSuburbanMacro;
  switch (op) {
    case OperatorId::kOpX: {
      std::vector<SiteProfile> profiles;
      const double ca_frac = urban ? 0.25 : (suburban ? 0.12 : 0.08);
      // 2CC C-band CA (n77+n77, 120 MHz aggregate).
      profiles.push_back({{{BandId::kN77, 100, 30, 28}, {BandId::kN77, 40, 30, 28},
                           {BandId::kN5, 10, 15, 30}},
                          ca_frac});
      if (urban) {
        // Dense-urban mmWave: 8 n260 CCs.
        SiteProfile mm;
        for (int i = 0; i < 8; ++i) mm.carriers.push_back({BandId::kN260, 100, 120, 46});
        mm.carriers.push_back({BandId::kN5, 10, 15, 30});
        mm.probability = 0.06;
        profiles.push_back(std::move(mm));
      }
      // Non-CA 5G coverage sites.
      profiles.push_back({{{BandId::kN77, 100, 30, 28}}, 0.35});
      profiles.push_back({{{BandId::kN5, 10, 15, 30}}, 1.0});  // remainder
      return profiles;
    }
    case OperatorId::kOpY: {
      std::vector<SiteProfile> profiles;
      const double ca_frac = urban ? 0.44 : (suburban ? 0.22 : 0.12);
      // 2CC C-band (n77+n77, 160 MHz aggregate).
      profiles.push_back({{{BandId::kN77, 100, 30, 28}, {BandId::kN77, 60, 30, 28},
                           {BandId::kN5, 10, 15, 30}},
                          ca_frac});
      if (urban) {
        SiteProfile mm;
        for (int i = 0; i < 8; ++i) mm.carriers.push_back({BandId::kN261, 100, 120, 46});
        mm.carriers.push_back({BandId::kN5, 10, 15, 30});
        mm.probability = 0.25;
        profiles.push_back(std::move(mm));
      }
      profiles.push_back({{{BandId::kN77, 100, 30, 28}}, 0.25});
      profiles.push_back({{{BandId::kN5, 10, 15, 30}}, 1.0});
      return profiles;
    }
    case OperatorId::kOpZ: {
      std::vector<SiteProfile> profiles;
      const double ca4_frac = urban ? 0.55 : (suburban ? 0.40 : 0.25);
      const double ca2_frac = urban ? 0.31 : (suburban ? 0.35 : 0.30);
      // 4CC FR1: n41(100) + n41(40) + n25(20) + n71(20) — 180 MHz.
      profiles.push_back({{{BandId::kN41, 100, 30, 28}, {BandId::kN41, 40, 30, 28},
                           {BandId::kN25, 20, 15, 28}, {BandId::kN71, 20, 15, 30}},
                          ca4_frac});
      // 2CC: n41 + n71 (up to 120 MHz).
      profiles.push_back({{{BandId::kN41, 100, 30, 28}, {BandId::kN71, 20, 15, 30}},
                          ca2_frac});
      profiles.push_back({{{BandId::kN71, 15, 15, 30}}, 1.0});
      return profiles;
    }
  }
  return {};
}

}  // namespace

std::string operator_name(OperatorId op) {
  switch (op) {
    case OperatorId::kOpX: return "OpX";
    case OperatorId::kOpY: return "OpY";
    case OperatorId::kOpZ: return "OpZ";
  }
  return "Op?";
}

double LoadProfile::load_at_hour(double hour) const {
  const double h = std::fmod(std::max(hour, 0.0), 24.0);
  if (h >= rush_hour_start_h && h < rush_hour_end_h) return rush_hour_load;
  // Shoulders: ramp over one hour on either side of the rush window.
  if (h >= rush_hour_start_h - 1.0 && h < rush_hour_start_h) {
    const double t = h - (rush_hour_start_h - 1.0);
    return base_load + (rush_hour_load - base_load) * t;
  }
  if (h >= rush_hour_end_h && h < rush_hour_end_h + 1.0) {
    const double t = h - rush_hour_end_h;
    return rush_hour_load + (base_load - rush_hour_load) * t;
  }
  // Night time (midnight measurements in the paper) is lighter still.
  if (h < 6.0) return base_load * 0.4;
  return base_load;
}

const Carrier& Deployment::carrier(CarrierId id) const {
  CA5G_CHECK_MSG(id < carriers.size(), "carrier id out of range: " << id);
  return carriers[id];
}

std::vector<CarrierId> Deployment::carriers_of_rat(phy::Rat rat) const {
  std::vector<CarrierId> out;
  for (const auto& c : carriers)
    if (phy::band_info(c.band).rat == rat) out.push_back(c.id);
  return out;
}

Deployment make_deployment(OperatorId op, radio::Environment env,
                           const DeploymentParams& params) {
  CA5G_CHECK_MSG(params.extent_m > 0 && params.site_spacing_m > 0, "bad deployment params");
  common::Rng rng(params.seed);

  Deployment dep;
  dep.op = op;
  dep.env = env;
  if (env == radio::Environment::kHighway) {
    dep.load.base_load = 0.15;
    dep.load.rush_hour_load = 0.45;
  } else if (env == radio::Environment::kUrbanMacro) {
    dep.load.base_load = 0.3;
    dep.load.rush_hour_load = 0.7;
  }

  // Grid of sites with positional jitter. Highways get a 1-D string of
  // sites along the route axis instead of a grid.
  std::vector<radio::Position> site_positions;
  if (env == radio::Environment::kHighway) {
    const int n = std::max(2, static_cast<int>(2.0 * params.extent_m / params.site_spacing_m));
    for (int i = 0; i < n; ++i) {
      const double x = -params.extent_m + 2.0 * params.extent_m * i / (n - 1);
      site_positions.push_back({x + rng.normal(0, 40.0), rng.normal(0, 120.0)});
    }
  } else {
    const int per_axis =
        std::max(2, static_cast<int>(2.0 * params.extent_m / params.site_spacing_m));
    for (int ix = 0; ix < per_axis; ++ix) {
      for (int iy = 0; iy < per_axis; ++iy) {
        const double x = -params.extent_m + 2.0 * params.extent_m * ix / (per_axis - 1);
        const double y = -params.extent_m + 2.0 * params.extent_m * iy / (per_axis - 1);
        site_positions.push_back({x + rng.normal(0, 50.0), y + rng.normal(0, 50.0)});
      }
    }
  }

  const auto lte = lte_profiles(op);
  const auto nr = nr_profiles(op, env);
  // Channel-index counters give same-band channels distinct labels
  // (n41-a, n41-b, …) and decorrelated frequencies.
  std::array<int, phy::kBandCount> channel_counter{};
  int next_pci = 100;

  auto add_carrier = [&](std::size_t site_idx, const CarrierTemplate& t) {
    Carrier c;
    c.id = static_cast<CarrierId>(dep.carriers.size());
    c.band = t.band;
    c.bandwidth_mhz = t.bandwidth_mhz;
    c.scs_khz = t.scs_khz;
    c.tx_power_dbm = t.tx_power_dbm;
    c.pci = next_pci++;
    c.channel_index = channel_counter[static_cast<std::size_t>(t.band)]++ % 4;
    c.site = site_idx;
    dep.sites[site_idx].carriers.push_back(c.id);
    dep.carriers.push_back(c);
  };

  auto pick_profile = [&](const std::vector<SiteProfile>& profiles) -> const SiteProfile* {
    double u = rng.uniform();
    for (const auto& p : profiles) {
      if (u < p.probability) return &p;
      u -= p.probability;
    }
    return profiles.empty() ? nullptr : &profiles.back();
  };

  for (const auto& pos : site_positions) {
    const std::size_t site_idx = dep.sites.size();
    dep.sites.push_back({pos, {}});
    // Per-site channel indexes restart so intra-band channels at one site
    // stay distinguishable (a/b) regardless of global counts.
    channel_counter.fill(0);
    if (const SiteProfile* p = pick_profile(lte)) {
      for (const auto& t : p->carriers) add_carrier(site_idx, t);
    }
    if (const SiteProfile* p = pick_profile(nr)) {
      for (const auto& t : p->carriers) add_carrier(site_idx, t);
    }
  }

  CA5G_CHECK_MSG(!dep.carriers.empty(), "deployment generated no carriers");
  return dep;
}

std::size_t best_ca_site(const Deployment& dep, phy::Rat rat,
                         std::span<const phy::BandId> band_lock) {
  std::size_t best = 0;
  std::size_t best_count = 0;
  for (std::size_t s = 0; s < dep.sites.size(); ++s) {
    std::size_t count = 0;
    for (auto id : dep.sites[s].carriers) {
      const auto band = dep.carrier(id).band;
      if (phy::band_info(band).rat != rat) continue;
      if (band_lock.empty() || std::find(band_lock.begin(), band_lock.end(), band) !=
                                   band_lock.end())
        ++count;
    }
    if (count > best_count) {
      best_count = count;
      best = s;
    }
  }
  return best;
}

}  // namespace ca5g::ran

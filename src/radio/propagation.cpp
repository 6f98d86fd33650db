#include "radio/propagation.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"

namespace ca5g::radio {

double distance_m(const Position& a, const Position& b) noexcept {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return std::sqrt(dx * dx + dy * dy);
}

double path_loss_db(double freq_mhz, double dist_m, Environment env) {
  return path_loss_distance_db(log10_distance(dist_m), is_fr2(freq_mhz), env) +
         path_loss_frequency_db(freq_mhz);
}

bool is_fr2(double freq_mhz) noexcept { return freq_mhz / 1000.0 >= 24.0; }

double log10_distance(double dist_m) noexcept {
  return std::log10(std::max(dist_m, 10.0));  // clamp inside the near field
}

double path_loss_distance_db(double log10_d, bool fr2, Environment env) noexcept {
  // FR2: UMi-street-canyon-like with heavy blockage-driven exponent.
  if (fr2) return 32.4 + 31.0 * log10_d;

  double exponent = 0.0;   // 10·n, path-loss slope per decade
  double intercept = 0.0;  // dB at 1 m (after frequency term)
  switch (env) {
    case Environment::kUrbanMacro:
      intercept = 13.54;
      exponent = 39.08;  // NLOS UMa
      break;
    case Environment::kSuburbanMacro:
      intercept = 19.2;
      exponent = 34.0;
      break;
    case Environment::kHighway:
      intercept = 21.0;
      exponent = 31.0;  // near-LOS rural macro
      break;
    case Environment::kIndoor:
      // Indoor UE served by an outdoor macro: urban curve; the wall loss
      // is added separately by o2i_penetration_db().
      intercept = 13.54;
      exponent = 39.08;
      break;
  }
  return intercept + exponent * log10_d;
}

double path_loss_frequency_db(double freq_mhz) {
  CA5G_CHECK_MSG(freq_mhz > 0.0, "frequency must be positive");
  return 20.0 * std::log10(freq_mhz / 1000.0);
}

double o2i_penetration_db(double freq_mhz) {
  if (is_fr2(freq_mhz)) return 60.0;  // mmWave: effectively blocked by walls
  const double fc_ghz = freq_mhz / 1000.0;
  // Low-loss O2I model: grows with frequency, ≈12 dB at 600 MHz and
  // ≈23 dB at 3.7 GHz — low-band keeps indoor coverage (paper Fig. 28).
  return 10.0 + 3.5 * fc_ghz;
}

double noise_power_dbm(double bandwidth_hz, double noise_figure_db) {
  CA5G_CHECK_MSG(bandwidth_hz > 0.0, "bandwidth must be positive");
  return -174.0 + 10.0 * std::log10(bandwidth_hz) + noise_figure_db;
}

}  // namespace ca5g::radio

// Radio propagation models (simplified 3GPP TR 38.901): distance- and
// frequency-dependent path loss per environment, outdoor-to-indoor
// penetration (frequency dependent — the reason the paper's OpZ uses
// FDD low-band n71 as indoor PCell, Fig. 28), and thermal noise.
#pragma once

namespace ca5g::radio {

/// Deployment environment for path-loss selection.
enum class Environment { kUrbanMacro, kSuburbanMacro, kHighway, kIndoor };

/// 2D position in metres. Routes and cell sites share this plane.
struct Position {
  double x = 0.0;
  double y = 0.0;
};

[[nodiscard]] double distance_m(const Position& a, const Position& b) noexcept;

/// Path loss in dB for a link of `dist_m` metres at `freq_mhz`.
/// Uses UMa-style log-distance curves with environment-specific exponents;
/// mmWave frequencies incur their steeper FR2 curve. Equals
/// path_loss_distance_db(log10_distance(d), is_fr2(f), env) +
/// path_loss_frequency_db(f) bit for bit, so a caller with many carriers
/// per site can evaluate the two terms separately.
[[nodiscard]] double path_loss_db(double freq_mhz, double dist_m, Environment env);

/// True when `freq_mhz` is in FR2 (mmWave, ≥ 24 GHz).
[[nodiscard]] bool is_fr2(double freq_mhz) noexcept;

/// log10 of the distance, clamped to 10 m inside the near field.
[[nodiscard]] double log10_distance(double dist_m) noexcept;

/// Distance term of path_loss_db: the curve's intercept plus its slope
/// times `log10_d` (from log10_distance()).
[[nodiscard]] double path_loss_distance_db(double log10_d, bool fr2, Environment env) noexcept;

/// Frequency term of path_loss_db: 20·log10(fc in GHz).
[[nodiscard]] double path_loss_frequency_db(double freq_mhz);

/// Outdoor-to-indoor penetration loss in dB. Low-band (<1 GHz) penetrates
/// walls far better than mid-band; mmWave is effectively blocked.
[[nodiscard]] double o2i_penetration_db(double freq_mhz);

/// Thermal noise power over `bandwidth_hz` including a UE noise figure.
[[nodiscard]] double noise_power_dbm(double bandwidth_hz, double noise_figure_db = 7.0);

}  // namespace ca5g::radio

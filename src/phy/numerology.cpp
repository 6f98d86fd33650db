#include "phy/numerology.hpp"

#include <utility>

#include "common/contracts.hpp"

namespace ca5g::phy {

int slots_per_subframe(int scs_khz) {
  switch (scs_khz) {
    case 15: return 1;
    case 30: return 2;
    case 60: return 4;
    case 120: return 8;
    default: CA5G_CHECK_MSG(false, "unsupported SCS: " << scs_khz << " kHz");
  }
  return 0;  // unreachable
}

double slot_duration_s(int scs_khz) { return 1e-3 / slots_per_subframe(scs_khz); }

int max_resource_blocks(Rat rat, int bandwidth_mhz, int scs_khz) {
  CA5G_CHECK_MSG(bandwidth_mhz > 0, "bandwidth must be positive");
  if (rat == Rat::kLte) {
    CA5G_CHECK_MSG(scs_khz == 15, "LTE uses fixed 15 kHz SCS");
    CA5G_CHECK_MSG(bandwidth_mhz <= 20, "LTE channel bandwidth capped at 20 MHz");
    // 1.4 MHz → 6 RB is the only deviation from the 5 RB/MHz rule; the
    // bands in this study all use ≥ 5 MHz channels.
    return bandwidth_mhz * 5;
  }
  // NR FR1/FR2 transmission-bandwidth configuration N_RB.
  struct Entry { int bw; int scs; int rb; };
  static constexpr Entry kTable[] = {
      // FR1, 15 kHz SCS (TS 38.101-1 Table 5.3.2-1)
      {5, 15, 25},   {10, 15, 52},  {15, 15, 79},  {20, 15, 106},
      {25, 15, 133}, {30, 15, 160}, {40, 15, 216}, {50, 15, 270},
      // FR1, 30 kHz SCS
      {5, 30, 11},   {10, 30, 24},  {15, 30, 38},  {20, 30, 51},
      {25, 30, 65},  {30, 30, 78},  {40, 30, 106}, {50, 30, 133},
      {60, 30, 162}, {70, 30, 189}, {80, 30, 217}, {90, 30, 245},
      {100, 30, 273},
      // FR1, 60 kHz SCS
      {20, 60, 24},  {40, 60, 51},  {60, 60, 79},  {80, 60, 107},
      {100, 60, 135},
      // FR2, 120 kHz SCS (TS 38.101-2 Table 5.3.2-1)
      {50, 120, 32}, {100, 120, 66}, {200, 120, 132}, {400, 120, 264},
  };
  for (const auto& e : kTable)
    if (e.bw == bandwidth_mhz && e.scs == scs_khz) return e.rb;
  CA5G_CHECK_MSG(false, "no NR RB entry for " << bandwidth_mhz << " MHz @ " << scs_khz
                                              << " kHz SCS");
  return 0;  // unreachable
}

}  // namespace ca5g::phy

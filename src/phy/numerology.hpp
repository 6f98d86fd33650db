// 5G NR numerology (TS 38.211) and resource-block capacity tables
// (TS 38.101-1/-2). Numerology µ fixes the subcarrier spacing, slot
// duration, and — together with the channel bandwidth — the number of
// resource blocks a carrier can configure.
#pragma once

#include "phy/band.hpp"

namespace ca5g::phy {

inline constexpr int kSubcarriersPerRb = 12;
inline constexpr int kSymbolsPerSlot = 14;

/// Number of slots per 1 ms subframe for a subcarrier spacing:
/// 15 kHz → 1, 30 kHz → 2, 60 kHz → 4, 120 kHz → 8.
[[nodiscard]] int slots_per_subframe(int scs_khz);

/// Slot duration in seconds (1 ms / slots_per_subframe).
[[nodiscard]] double slot_duration_s(int scs_khz);

/// Maximum number of resource blocks for a (bandwidth, SCS) pair.
/// NR values follow TS 38.101-1 Table 5.3.2-1 (FR1) and TS 38.101-2
/// Table 5.3.2-1 (FR2); LTE uses the classic 5 RB/MHz rule (20 MHz→100).
[[nodiscard]] int max_resource_blocks(Rat rat, int bandwidth_mhz, int scs_khz);

}  // namespace ca5g::phy

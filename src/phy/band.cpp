#include "phy/band.hpp"

#include <array>

#include "common/contracts.hpp"

namespace ca5g::phy {
namespace {

// Channel bandwidth sets (MHz) observed per band in paper Table 6.
constexpr std::array<int, 4> kBw5_20{5, 10, 15, 20};
constexpr std::array<int, 3> kBw10_20{10, 15, 20};
constexpr std::array<int, 1> kBw10{10};
constexpr std::array<int, 2> kBw5_10{5, 10};
constexpr std::array<int, 1> kBw5{5};
constexpr std::array<int, 1> kBw20{20};
constexpr std::array<int, 2> kBw10_20only{10, 20};
constexpr std::array<int, 4> kBwN41{20, 40, 60, 100};
constexpr std::array<int, 2> kBwN71{15, 20};
constexpr std::array<int, 3> kBwN77{40, 60, 100};
constexpr std::array<int, 1> kBw100{100};

constexpr std::array<int, 1> kScsLte{15};
constexpr std::array<int, 2> kScsFr1{15, 30};
constexpr std::array<int, 1> kScsFr2{120};

const std::array<BandInfo, kBandCount> kBands{{
    // -- 4G LTE (paper Table 6) -------------------------------------------
    {BandId::kB2, "b2", Rat::kLte, Duplex::kFdd, 1900.0, BandRange::kMid, kBw5_20, kScsLte},
    {BandId::kB4, "b4", Rat::kLte, Duplex::kFdd, 1700.0, BandRange::kMid, kBw10_20, kScsLte},
    {BandId::kB5, "b5", Rat::kLte, Duplex::kFdd, 850.0, BandRange::kLow, kBw10, kScsLte},
    {BandId::kB12, "b12", Rat::kLte, Duplex::kFdd, 700.0, BandRange::kLow, kBw5_10, kScsLte},
    {BandId::kB13, "b13", Rat::kLte, Duplex::kFdd, 700.0, BandRange::kLow, kBw10, kScsLte},
    {BandId::kB14, "b14", Rat::kLte, Duplex::kFdd, 700.0, BandRange::kLow, kBw10, kScsLte},
    {BandId::kB25, "b25", Rat::kLte, Duplex::kFdd, 1900.0, BandRange::kMid, kBw5, kScsLte},
    {BandId::kB29, "b29", Rat::kLte, Duplex::kFdd, 700.0, BandRange::kLow, kBw5, kScsLte},
    {BandId::kB30, "b30", Rat::kLte, Duplex::kFdd, 2300.0, BandRange::kMid, kBw5_10, kScsLte},
    {BandId::kB41, "b41", Rat::kLte, Duplex::kTdd, 2500.0, BandRange::kMid, kBw20, kScsLte},
    {BandId::kB46, "b46", Rat::kLte, Duplex::kTdd, 5200.0, BandRange::kMid, kBw20, kScsLte},
    {BandId::kB48, "b48", Rat::kLte, Duplex::kTdd, 3600.0, BandRange::kMid, kBw10_20only, kScsLte},
    {BandId::kB66, "b66", Rat::kLte, Duplex::kFdd, 2100.0, BandRange::kMid, kBw5_20, kScsLte},
    {BandId::kB71, "b71", Rat::kLte, Duplex::kFdd, 600.0, BandRange::kLow, kBw5, kScsLte},
    // -- 5G NR (paper Table 6) --------------------------------------------
    {BandId::kN5, "n5", Rat::kNr, Duplex::kFdd, 850.0, BandRange::kLow, kBw10, kScsFr1},
    {BandId::kN25, "n25", Rat::kNr, Duplex::kFdd, 1900.0, BandRange::kMid, kBw20, kScsFr1},
    {BandId::kN41, "n41", Rat::kNr, Duplex::kTdd, 2500.0, BandRange::kMid, kBwN41, kScsFr1},
    {BandId::kN66, "n66", Rat::kNr, Duplex::kFdd, 2100.0, BandRange::kMid, kBw5_10, kScsFr1},
    {BandId::kN71, "n71", Rat::kNr, Duplex::kFdd, 600.0, BandRange::kLow, kBwN71, kScsFr1},
    {BandId::kN77, "n77", Rat::kNr, Duplex::kTdd, 3700.0, BandRange::kMid, kBwN77, kScsFr1},
    {BandId::kN260, "n260", Rat::kNr, Duplex::kTdd, 39000.0, BandRange::kHigh, kBw100, kScsFr2},
    {BandId::kN261, "n261", Rat::kNr, Duplex::kTdd, 28000.0, BandRange::kHigh, kBw100, kScsFr2},
}};

}  // namespace

const BandInfo& band_info(BandId id) {
  const auto idx = static_cast<std::size_t>(id);
  CA5G_CHECK_MSG(idx < kBands.size(), "unknown band id: " << idx);
  return kBands[idx];
}

std::span<const BandInfo> all_bands() { return kBands; }

double downlink_duty(Duplex duplex) noexcept {
  // TDD split modelled on the common DDDSU slot pattern: 3 full DL slots,
  // one mostly-DL special slot, one UL slot → ≈ 0.74 of symbols for DL.
  return duplex == Duplex::kFdd ? 1.0 : 0.74;
}

}  // namespace ca5g::phy

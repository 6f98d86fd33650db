// 3GPP band catalogue for the 4G/5G channels observed in the paper
// (Table 2 and Table 6): 4G bands are prefixed "b", 5G NR bands "n".
// Each entry records duplex mode, carrier frequency, band range class,
// and the channel bandwidths / subcarrier spacings the band supports.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>

namespace ca5g::phy {

/// Radio access technology of a band.
enum class Rat : std::uint8_t { kLte, kNr };

/// Duplexing scheme. TDD shares one channel between DL and UL in time;
/// FDD dedicates a paired channel to each direction.
enum class Duplex : std::uint8_t { kFdd, kTdd };

/// Coarse spectrum class: low (<1 GHz), mid (1–7 GHz), high (mmWave).
enum class BandRange : std::uint8_t { kLow, kMid, kHigh };

/// All bands modelled in this reproduction (from paper Table 6).
enum class BandId : std::uint8_t {
  // 4G LTE bands.
  kB2, kB4, kB5, kB12, kB13, kB14, kB25, kB29, kB30, kB41, kB46, kB48, kB66, kB71,
  // 5G NR bands.
  kN5, kN25, kN41, kN66, kN71, kN77, kN260, kN261,
};

inline constexpr std::size_t kBandCount = 22;

/// Static description of one band.
struct BandInfo {
  BandId id;
  std::string_view name;            ///< e.g. "n41"
  Rat rat;
  Duplex duplex;
  double center_freq_mhz;           ///< representative carrier frequency
  BandRange range;
  std::span<const int> bandwidths_mhz;  ///< channel bandwidths supported
  std::span<const int> scs_khz;         ///< subcarrier spacings supported
};

/// Catalogue lookup. Data is immutable and static; references stay valid.
[[nodiscard]] const BandInfo& band_info(BandId id);

/// All catalogued bands, in enum order.
[[nodiscard]] std::span<const BandInfo> all_bands();

/// True for 5G NR bands.
[[nodiscard]] inline bool is_nr(BandId id) { return band_info(id).rat == Rat::kNr; }

/// True for FR2 (mmWave) bands.
[[nodiscard]] inline bool is_mmwave(BandId id) {
  return band_info(id).range == BandRange::kHigh;
}

/// Fraction of slots carrying downlink data. FDD uses a dedicated DL
/// channel (1.0); TDD patterns like DDDSU give roughly 0.74 DL share.
[[nodiscard]] double downlink_duty(Duplex duplex) noexcept;

}  // namespace ca5g::phy

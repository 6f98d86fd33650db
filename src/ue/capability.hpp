// UE capability modelling (paper Table 5 and Fig. 29): the modem
// generation bounds how many component carriers can be aggregated and
// whether mmWave / SA CA are usable at all.
#pragma once

#include <cstdint>
#include <string_view>

namespace ca5g::ue {

/// Qualcomm Snapdragon modem generations used in the paper's phones.
enum class ModemModel : std::uint8_t { kX50, kX55, kX60, kX65, kX70 };

inline constexpr std::size_t kModemCount = 5;

/// CA-relevant capabilities of one modem generation.
struct UeCapability {
  ModemModel modem;
  std::string_view modem_name;   ///< "X55"
  std::string_view phone_model;  ///< representative handset
  int max_nr_fr1_ccs;            ///< max NR CCs in low/mid band (SA CA)
  int max_nr_fr2_ccs;            ///< max NR CCs in mmWave
  int max_lte_ccs;               ///< max LTE CCs
  int max_mimo_layers;           ///< DL spatial layers supported
  bool supports_sa_ca;           ///< standalone-5G carrier aggregation
};

/// Capability lookup for a modem generation.
[[nodiscard]] const UeCapability& ue_capability(ModemModel modem);

}  // namespace ca5g::ue

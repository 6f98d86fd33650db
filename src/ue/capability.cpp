#include "ue/capability.hpp"

#include <array>

#include "common/contracts.hpp"

namespace ca5g::ue {
namespace {

// Paper Table 5 (phones/modems) + Fig. 29 (S10: no SA CA; S21: 2CC;
// S22: 3CC). X70-class devices reach 4CC FR1 / 8CC FR2 as observed in
// the paper's Jan-2024 data.
constexpr std::array<UeCapability, kModemCount> kCapabilities{{
    {ModemModel::kX50, "X50", "Galaxy S10", 1, 4, 5, 4, false},
    {ModemModel::kX55, "X55", "Galaxy S20 Ultra", 2, 6, 5, 4, false},
    {ModemModel::kX60, "X60", "Galaxy S21 Ultra", 2, 8, 5, 4, true},
    {ModemModel::kX65, "X65", "Galaxy S22", 3, 8, 5, 4, true},
    {ModemModel::kX70, "X70", "Galaxy S23", 4, 8, 5, 4, true},
}};

}  // namespace

const UeCapability& ue_capability(ModemModel modem) {
  const auto idx = static_cast<std::size_t>(modem);
  CA5G_CHECK_MSG(idx < kCapabilities.size(), "unknown modem model");
  return kCapabilities[idx];
}

}  // namespace ca5g::ue

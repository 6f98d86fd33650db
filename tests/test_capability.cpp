// Unit tests for the UE capability table (paper Table 5, Fig. 29).
#include <gtest/gtest.h>

#include "ue/capability.hpp"

namespace {

using namespace ca5g::ue;

TEST(Capability, Fig29Anchors) {
  // S10 (X50) does not support SA-5G CA; S21 (X60) does 2CC; S22 (X65) 3CC.
  EXPECT_FALSE(ue_capability(ModemModel::kX50).supports_sa_ca);
  EXPECT_EQ(ue_capability(ModemModel::kX60).max_nr_fr1_ccs, 2);
  EXPECT_EQ(ue_capability(ModemModel::kX65).max_nr_fr1_ccs, 3);
  EXPECT_EQ(ue_capability(ModemModel::kX70).max_nr_fr1_ccs, 4);
}

TEST(Capability, MmwaveCcsReach8) {
  EXPECT_EQ(ue_capability(ModemModel::kX70).max_nr_fr2_ccs, 8);
  EXPECT_EQ(ue_capability(ModemModel::kX60).max_nr_fr2_ccs, 8);
}

TEST(Capability, LteCaSupportedEverywhere) {
  for (auto modem : {ModemModel::kX50, ModemModel::kX55, ModemModel::kX60,
                     ModemModel::kX65, ModemModel::kX70})
    EXPECT_EQ(ue_capability(modem).max_lte_ccs, 5);
}

// Property: capabilities are monotone across modem generations.
class CapabilityMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(CapabilityMonotonicity, NewerModemsNeverRegress) {
  const auto older = static_cast<ModemModel>(GetParam());
  const auto newer = static_cast<ModemModel>(GetParam() + 1);
  EXPECT_GE(ue_capability(newer).max_nr_fr1_ccs, ue_capability(older).max_nr_fr1_ccs);
  EXPECT_GE(ue_capability(newer).max_nr_fr2_ccs, ue_capability(older).max_nr_fr2_ccs);
  EXPECT_GE(ue_capability(newer).supports_sa_ca, ue_capability(older).supports_sa_ca);
}

INSTANTIATE_TEST_SUITE_P(Generations, CapabilityMonotonicity, ::testing::Range(0, 4));

}  // namespace

// Unit tests for NR numerology and RB capacity tables.
#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "phy/numerology.hpp"

namespace {

using namespace ca5g::phy;

TEST(Numerology, SlotsPerSubframe) {
  EXPECT_EQ(slots_per_subframe(15), 1);
  EXPECT_EQ(slots_per_subframe(30), 2);
  EXPECT_EQ(slots_per_subframe(60), 4);
  EXPECT_EQ(slots_per_subframe(120), 8);
  EXPECT_THROW((void)slots_per_subframe(45), ca5g::common::CheckError);
}

TEST(Numerology, SlotDuration) {
  EXPECT_DOUBLE_EQ(slot_duration_s(15), 1e-3);
  EXPECT_DOUBLE_EQ(slot_duration_s(30), 0.5e-3);
  EXPECT_DOUBLE_EQ(slot_duration_s(120), 0.125e-3);
}

TEST(Numerology, LteResourceBlocks) {
  EXPECT_EQ(max_resource_blocks(Rat::kLte, 20, 15), 100);
  EXPECT_EQ(max_resource_blocks(Rat::kLte, 5, 15), 25);
  EXPECT_THROW((void)max_resource_blocks(Rat::kLte, 40, 15), ca5g::common::CheckError);
  EXPECT_THROW((void)max_resource_blocks(Rat::kLte, 20, 30), ca5g::common::CheckError);
}

TEST(Numerology, NrFr1TableValues) {
  // TS 38.101-1 Table 5.3.2-1 spot checks.
  EXPECT_EQ(max_resource_blocks(Rat::kNr, 100, 30), 273);
  EXPECT_EQ(max_resource_blocks(Rat::kNr, 40, 30), 106);
  EXPECT_EQ(max_resource_blocks(Rat::kNr, 20, 15), 106);
  EXPECT_EQ(max_resource_blocks(Rat::kNr, 20, 30), 51);
}

TEST(Numerology, NrFr2TableValues) {
  EXPECT_EQ(max_resource_blocks(Rat::kNr, 100, 120), 66);
  EXPECT_EQ(max_resource_blocks(Rat::kNr, 400, 120), 264);
}

TEST(Numerology, UnknownCombinationThrows) {
  EXPECT_THROW((void)max_resource_blocks(Rat::kNr, 37, 30), ca5g::common::CheckError);
}

// Property: more bandwidth at the same SCS never means fewer RBs.
class RbMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(RbMonotonicity, RbGrowsWithBandwidth) {
  const int scs = GetParam();
  const std::vector<int> bws = scs == 15
                                   ? std::vector<int>{5, 10, 15, 20, 40, 50}
                                   : std::vector<int>{5, 10, 20, 40, 60, 80, 100};
  int prev = 0;
  for (int bw : bws) {
    const int rb = max_resource_blocks(Rat::kNr, bw, scs);
    EXPECT_GT(rb, prev);
    prev = rb;
  }
}

INSTANTIATE_TEST_SUITE_P(Scs, RbMonotonicity, ::testing::Values(15, 30));

}  // namespace

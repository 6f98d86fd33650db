// Unit + property tests for TS 38.214 TBS determination (paper Eq. 1 /
// Fig. 9).
#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "phy/band.hpp"
#include "phy/mcs.hpp"
#include "phy/tbs.hpp"

namespace {

using namespace ca5g::phy;

TbsParams base_params() {
  TbsParams p;
  p.prb_count = 10;
  p.symbols = 14;
  p.dmrs_re_per_prb = 12;
  p.mcs_index = 10;
  p.mimo_layers = 2;
  return p;
}

TEST(Tbs, ResourceElementsCapAt156) {
  TbsParams p = base_params();
  p.dmrs_re_per_prb = 0;  // 12*14 = 168 raw, must cap at 156
  EXPECT_EQ(resource_elements_per_prb(p), 156);
  p.dmrs_re_per_prb = 12;  // 168-12 = 156 exactly
  EXPECT_EQ(resource_elements_per_prb(p), 156);
  p.dmrs_re_per_prb = 24;
  EXPECT_EQ(resource_elements_per_prb(p), 144);
}

TEST(Tbs, ZeroAllocationYieldsZero) {
  TbsParams p = base_params();
  p.prb_count = 0;
  EXPECT_EQ(transport_block_size(p), 0);
}

TEST(Tbs, SmallTbsQuantizesToTableEntry) {
  TbsParams p = base_params();
  p.prb_count = 1;
  p.mcs_index = 0;  // QPSK, low rate → tiny N_info
  p.mimo_layers = 1;
  const auto tbs = transport_block_size(p);
  EXPECT_GE(tbs, 24);
  EXPECT_LE(tbs, 3824);
  EXPECT_EQ(tbs % 8, 0);
}

TEST(Tbs, LargeTbsIsByteAlignedMinus24) {
  TbsParams p = base_params();
  p.prb_count = 273;  // 100 MHz @ 30 kHz
  p.mcs_index = 27;
  p.mimo_layers = 4;
  const auto tbs = transport_block_size(p);
  EXPECT_GT(tbs, 3824);
  // Large TBS formula yields 8·C·ceil(...) − 24.
  EXPECT_EQ((tbs + 24) % 8, 0);
  // Sanity: quantization stays near N_info.
  EXPECT_NEAR(static_cast<double>(tbs), n_info(p), 0.03 * n_info(p));
}

TEST(Tbs, InvalidParamsThrow) {
  TbsParams p = base_params();
  p.symbols = 0;
  EXPECT_THROW((void)transport_block_size(p), ca5g::common::CheckError);
  p = base_params();
  p.mimo_layers = 9;
  EXPECT_THROW((void)transport_block_size(p), ca5g::common::CheckError);
  p = base_params();
  p.prb_count = -1;
  EXPECT_THROW((void)transport_block_size(p), ca5g::common::CheckError);
}

TEST(Tbs, ThroughputScalesWithNumerologyAndDuplex) {
  TbsParams p = base_params();
  const double fdd15 = slot_throughput_bps(p, 15, Duplex::kFdd);
  const double fdd30 = slot_throughput_bps(p, 30, Duplex::kFdd);
  const double tdd30 = slot_throughput_bps(p, 30, Duplex::kTdd);
  EXPECT_NEAR(fdd30, 2.0 * fdd15, 1e-6);  // twice the slots per second
  EXPECT_LT(tdd30, fdd30);                 // TDD pays the duty cycle
  EXPECT_NEAR(tdd30 / fdd30, downlink_duty(Duplex::kTdd), 1e-9);
}

TEST(Tbs, Fig9Shape_TbsGrowsWithSymbolsAndMcs) {
  // Fig. 9 of the paper: TBS grows with both symbol allocation and MCS.
  TbsParams p = base_params();
  p.prb_count = 100;
  std::int64_t prev = 0;
  for (int symbols = 2; symbols <= 14; symbols += 2) {
    p.symbols = symbols;
    const auto tbs = transport_block_size(p);
    EXPECT_GE(tbs, prev);
    prev = tbs;
  }
}

// Property: TBS is monotone in each of MCS, PRBs, layers.
class TbsMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(TbsMonotonicity, MonotoneInMcs) {
  TbsParams p = base_params();
  p.prb_count = 20 + GetParam() * 25;
  std::int64_t prev = -1;
  for (int mcs = 0; mcs <= kMaxMcsIndex; ++mcs) {
    p.mcs_index = mcs;
    const auto tbs = transport_block_size(p);
    EXPECT_GE(tbs, prev);
    prev = tbs;
  }
}

TEST_P(TbsMonotonicity, MonotoneInPrbs) {
  TbsParams p = base_params();
  p.mcs_index = 5 + GetParam() * 2;
  std::int64_t prev = -1;
  for (int prb = 1; prb <= 273; prb += 17) {
    p.prb_count = prb;
    const auto tbs = transport_block_size(p);
    EXPECT_GE(tbs, prev);
    prev = tbs;
  }
}

TEST_P(TbsMonotonicity, MonotoneInLayers) {
  TbsParams p = base_params();
  p.prb_count = 50 + GetParam() * 20;
  std::int64_t prev = -1;
  for (int layers = 1; layers <= 8; ++layers) {
    p.mimo_layers = layers;
    const auto tbs = transport_block_size(p);
    EXPECT_GT(tbs, prev);
    prev = tbs;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TbsMonotonicity, ::testing::Range(0, 6));

}  // namespace

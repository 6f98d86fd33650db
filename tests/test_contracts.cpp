// Unit tests for the contract-checking layer (common/contracts.hpp):
// message formatting, operand printing, debug-only behaviour, and that
// violated PHY/RAN domain preconditions surface as CheckError, not UB.
#include <gtest/gtest.h>

#include <string>

#include "common/contracts.hpp"
#include "phy/mcs.hpp"
#include "phy/tbs.hpp"
#include "sim/trace.hpp"

namespace {

using namespace ca5g;
using common::CheckError;

std::string message_of(void (*fn)()) {
  try {
    fn();
  } catch (const CheckError& e) {
    return e.what();
  }
  return "";
}

TEST(Contracts, CheckPassesOnTrue) {
  EXPECT_NO_THROW(CA5G_CHECK(1 + 1 == 2));
  EXPECT_NO_THROW(CA5G_CHECK_MSG(true, "never shown"));
}

TEST(Contracts, CheckThrowsWithExpressionAndLocation) {
  const std::string msg = message_of(+[] { CA5G_CHECK(2 < 1); });
  EXPECT_NE(msg.find("CA5G_CHECK failed"), std::string::npos);
  EXPECT_NE(msg.find("2 < 1"), std::string::npos);
  EXPECT_NE(msg.find("test_contracts.cpp"), std::string::npos);
}

TEST(Contracts, CheckMsgStreamsPayload) {
  const std::string msg = message_of(+[] {
    const int cqi = 31;
    CA5G_CHECK_MSG(cqi <= 15, "CQI " << cqi << " exceeds table");
  });
  EXPECT_NE(msg.find("CQI 31 exceeds table"), std::string::npos);
}

TEST(Contracts, ComparisonMacrosPrintBothOperands) {
  const std::string msg = message_of(+[] {
    const int mcs = 31;
    const int limit = 27;
    CA5G_CHECK_LE_MSG(mcs, limit, "MCS " << mcs << " past the table");
  });
  EXPECT_NE(msg.find("CA5G_CHECK_LE failed"), std::string::npos);
  EXPECT_NE(msg.find("mcs <= limit"), std::string::npos);
  EXPECT_NE(msg.find("[31 vs 27]"), std::string::npos);
  EXPECT_NE(msg.find("MCS 31 past the table"), std::string::npos);
}

TEST(Contracts, ComparisonMacrosPassAndFailPerOperator) {
  EXPECT_NO_THROW(CA5G_CHECK_EQ(4, 4));
  EXPECT_THROW(CA5G_CHECK_EQ(4, 5), CheckError);
  EXPECT_NO_THROW(CA5G_CHECK_GE(2, 2));
  EXPECT_THROW(CA5G_CHECK_GE(1, 2), CheckError);
  EXPECT_NO_THROW(CA5G_CHECK_GT(3, 2));
  EXPECT_THROW(CA5G_CHECK_GT(2, 2), CheckError);
  EXPECT_NO_THROW(CA5G_CHECK_LE_MSG(2, 2, ""));
  EXPECT_THROW(CA5G_CHECK_LE_MSG(3, 2, ""), CheckError);
}

TEST(Contracts, OperandsEvaluatedExactlyOnce) {
  int calls = 0;
  auto next = [&calls] { return ++calls; };
  CA5G_CHECK_GE(next(), 1);
  EXPECT_EQ(calls, 1);
}

TEST(Contracts, InRangeIsClosedInterval) {
  EXPECT_NO_THROW(CA5G_CHECK_IN_RANGE(0, 0, 15));
  EXPECT_NO_THROW(CA5G_CHECK_IN_RANGE(15, 0, 15));
  EXPECT_THROW(CA5G_CHECK_IN_RANGE(16, 0, 15), CheckError);
  EXPECT_THROW(CA5G_CHECK_IN_RANGE(-1, 0, 15), CheckError);
  const std::string msg = message_of(+[] {
    const int cqi = 99;
    CA5G_CHECK_IN_RANGE(cqi, 0, 15);
  });
  EXPECT_NE(msg.find("99"), std::string::npos);
  EXPECT_NE(msg.find("[0, 15]"), std::string::npos);
}

TEST(Contracts, DcheckMatchesBuildMode) {
  // In debug (or sanitizer) builds CA5G_DCHECK throws like CA5G_CHECK; in
  // NDEBUG builds it compiles to a type-checked no-op.
#if CA5G_ENABLE_DCHECKS
  EXPECT_THROW(CA5G_DCHECK(false), CheckError);
  EXPECT_THROW(CA5G_DCHECK_EQ(1, 2), CheckError);
  EXPECT_THROW(CA5G_DCHECK_IN_RANGE(20, 0, 15), CheckError);
#else
  EXPECT_NO_THROW(CA5G_DCHECK(false));
  EXPECT_NO_THROW(CA5G_DCHECK_EQ(1, 2));
  EXPECT_NO_THROW(CA5G_DCHECK_IN_RANGE(20, 0, 15));
#endif
  EXPECT_NO_THROW(CA5G_DCHECK(true));
}

TEST(Contracts, DcheckNeverEvaluatesWhenDisabled) {
#if !CA5G_ENABLE_DCHECKS
  int calls = 0;
  auto next = [&calls] { return ++calls; };
  CA5G_DCHECK(next() > 0);
  CA5G_DCHECK_GE(next(), 0);
  EXPECT_EQ(calls, 0);
#else
  GTEST_SKIP() << "DCHECKs are enabled in this build";
#endif
}

// --- Domain preconditions surface as CheckError, not UB --------------------

TEST(Contracts, PhyTableLookupsThrowOnBadIndex) {
  EXPECT_THROW((void)phy::mcs_entry(-1), CheckError);
  EXPECT_THROW((void)phy::mcs_entry(phy::kMaxMcsIndex + 1), CheckError);
  EXPECT_THROW((void)phy::cqi_entry(-1), CheckError);
  EXPECT_THROW((void)phy::cqi_entry(phy::kMaxCqiIndex + 1), CheckError);
  // The failure message carries the offending operand for diagnosis.
  try {
    (void)phy::mcs_entry(31);
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("31"), std::string::npos);
  }
}

TEST(Contracts, TbsRejectsOutOfRangeMcs) {
  phy::TbsParams p;
  p.prb_count = 10;
  p.mcs_index = phy::kMaxMcsIndex + 1;
  EXPECT_THROW((void)phy::transport_block_size(p), CheckError);
}

TEST(Contracts, TraceValidationRejectsCorruptRecords) {
  sim::CcSample cc;
  EXPECT_NO_THROW(sim::validate(cc));
  cc.cqi = 16;
  EXPECT_THROW(sim::validate(cc), CheckError);
  cc.cqi = 5;
  cc.mcs = 31;
  EXPECT_THROW(sim::validate(cc), CheckError);
  cc.mcs = 20;
  cc.bler = 1.5;
  EXPECT_THROW(sim::validate(cc), CheckError);
  cc.bler = 0.1;
  cc.rb = -3;
  EXPECT_THROW(sim::validate(cc), CheckError);
  cc.rb = 100;
  EXPECT_NO_THROW(sim::validate(cc));

  sim::TraceSample s;
  s.ccs.assign(2, sim::CcSample{});
  EXPECT_NO_THROW(sim::validate(s, 2));
  EXPECT_THROW(sim::validate(s, 4), CheckError);  // slot count drift
  s.ccs[0].active = s.ccs[0].is_pcell = true;
  s.ccs[0].bandwidth_mhz = 20;
  s.ccs[0].layers = 1;
  s.ccs[1] = s.ccs[0];  // two PCells: impossible
  EXPECT_THROW(sim::validate(s, 2), CheckError);
}

}  // namespace

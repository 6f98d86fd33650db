// Unit tests for trace containers, resampling, and CSV round-tripping.
#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "sim/engine.hpp"
#include "sim/trace_io.hpp"

namespace {

using namespace ca5g;

sim::Trace make_trace() {
  sim::ScenarioConfig config;
  config.op = ran::OperatorId::kOpZ;
  config.mobility = sim::Mobility::kDriving;
  config.duration_s = 10.0;
  config.step_s = 0.01;
  config.seed = 77;
  return sim::run_scenario(config);
}

TEST(Trace, SeriesAccessors) {
  const auto trace = make_trace();
  EXPECT_EQ(trace.aggregate_series().size(), trace.samples.size());
  EXPECT_EQ(trace.cc_series(0).size(), trace.samples.size());
  EXPECT_EQ(trace.cc_count_series().size(), trace.samples.size());
  EXPECT_THROW(trace.cc_series(99), common::CheckError);
}

TEST(Trace, ResampleAverages) {
  const auto trace = make_trace();
  const auto coarse = trace.resampled(0.1);
  EXPECT_EQ(coarse.samples.size(), trace.samples.size() / 10);
  EXPECT_DOUBLE_EQ(coarse.step_s, 0.1);

  // First coarse sample equals the mean of the first 10 fine samples.
  double expected = 0.0;
  for (std::size_t i = 0; i < 10; ++i) expected += trace.samples[i].aggregate_tput_mbps;
  expected /= 10.0;
  EXPECT_NEAR(coarse.samples.front().aggregate_tput_mbps, expected, 1e-9);
}

TEST(Trace, ResamplePreservesEvents) {
  const auto trace = make_trace();
  std::size_t fine_events = 0;
  for (const auto& s : trace.samples) fine_events += s.events.size();
  const auto coarse = trace.resampled(0.1);
  std::size_t coarse_events = 0;
  for (const auto& s : coarse.samples) coarse_events += s.events.size();
  // Events are unioned into windows; none may be lost (trailing partial
  // window excepted).
  EXPECT_GE(coarse_events + 2, fine_events);
}

TEST(Trace, ResampleMajorityActiveRule) {
  const auto trace = make_trace();
  const auto coarse = trace.resampled(0.05);
  for (const auto& s : coarse.samples)
    for (const auto& cc : s.ccs)
      if (!cc.active) {
        EXPECT_LE(cc.cqi, 15);  // inactive slots stay valid
      }
}

TEST(Trace, ResampleRejectsRefinement) {
  const auto trace = make_trace();
  EXPECT_THROW(trace.resampled(0.001), common::CheckError);
}

TEST(TraceIo, CsvRoundTripPreservesData) {
  const auto trace = make_trace();
  const auto doc = sim::trace_to_csv(trace);
  EXPECT_EQ(doc.rows.size(), trace.samples.size());
  const auto restored = sim::trace_from_csv(doc);
  ASSERT_EQ(restored.samples.size(), trace.samples.size());
  EXPECT_EQ(restored.op, trace.op);
  EXPECT_EQ(restored.mobility, trace.mobility);
  EXPECT_EQ(restored.cc_slots, trace.cc_slots);
  for (std::size_t i = 0; i < trace.samples.size(); i += 31) {
    const auto& a = trace.samples[i];
    const auto& b = restored.samples[i];
    EXPECT_NEAR(a.aggregate_tput_mbps, b.aggregate_tput_mbps, 1e-6);
    EXPECT_EQ(a.active_cc_count(), b.active_cc_count());
    for (std::size_t c = 0; c < a.ccs.size(); ++c) {
      EXPECT_EQ(a.ccs[c].band, b.ccs[c].band);
      EXPECT_NEAR(a.ccs[c].rsrp_dbm, b.ccs[c].rsrp_dbm, 1e-6);
      EXPECT_EQ(a.ccs[c].layers, b.ccs[c].layers);
    }
  }
}

TEST(TraceIo, EmptyTraceRejected) {
  common::CsvDocument doc;
  doc.header = {"time_s"};
  EXPECT_THROW(sim::trace_from_csv(doc), common::CheckError);
}

TEST(TraceIo, MalformedRowsSkippedNotFatal) {
  const auto trace = make_trace();
  auto doc = sim::trace_to_csv(trace);
  doc.rows[3][0] = "not-a-number";   // corrupt time_s of one row
  doc.rows[7].resize(2);             // truncate another mid-row
  const auto restored = sim::trace_from_csv(doc);
  EXPECT_EQ(restored.samples.size(), trace.samples.size() - 2);
}

TEST(TraceIo, AllRowsMalformedReportsFirstLine) {
  const auto trace = make_trace();
  auto doc = sim::trace_to_csv(trace);
  for (auto& row : doc.rows) row[0] = "garbage";
  try {
    static_cast<void>(sim::trace_from_csv(doc));
    FAIL() << "expected CheckError";
  } catch (const common::CheckError& e) {
    // Header is file line 1, so the first data row is line 2.
    EXPECT_NE(std::string(e.what()).find("first at line 2"), std::string::npos)
        << e.what();
  }
}

TEST(TraceIo, MalformedMetadataRowReported) {
  const auto trace = make_trace();
  auto doc = sim::trace_to_csv(trace);
  doc.rows[0][doc.column("cc_slots")] = "many";
  try {
    static_cast<void>(sim::trace_from_csv(doc));
    FAIL() << "expected CheckError";
  } catch (const common::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("metadata row is malformed at line 2"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace

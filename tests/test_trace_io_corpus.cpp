// Malformed-input corpus for the trace CSV loader. Each case takes a
// known-good trace file, corrupts it the way real logs break (truncated
// row, NaN field, out-of-range enum code, UTF-8 BOM header), and asserts
// the loader's contract: broken rows are skipped row-by-row (never a
// whole-file abort), trace_io.rows_rejected_total counts them, and the
// TraceLoadReport preserves the first offending 1-based file line.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "obs/metrics.hpp"
#include "sim/trace_io.hpp"
#include "test_helpers.hpp"

namespace {

using namespace ca5g;

/// The corpus is built by corrupting this many-row baseline: big enough
/// that one bad row leaves a loadable trace, small enough to stay fast.
constexpr std::size_t kRows = 20;

class TraceIoCorpusTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto trace = test::synthetic_trace(kRows);
    baseline_ = common::to_csv(sim::trace_to_csv(trace));
    lines_.clear();
    std::istringstream in(baseline_);
    for (std::string line; std::getline(in, line);) lines_.push_back(line);
    ASSERT_EQ(lines_.size(), kRows + 1);  // header + data rows
  }

  /// Replace one comma-separated field of a 0-based data row.
  void set_field(std::size_t row, std::size_t field, const std::string& value) {
    std::vector<std::string> fields;
    std::istringstream in(lines_[row + 1]);
    for (std::string f; std::getline(in, f, ',');) fields.push_back(f);
    ASSERT_LT(field, fields.size());
    fields[field] = value;
    std::string joined;
    for (std::size_t i = 0; i < fields.size(); ++i)
      joined += (i != 0 ? "," : "") + fields[i];
    lines_[row + 1] = joined;
  }

  [[nodiscard]] std::string corpus_path(const std::string& name) const {
    return testing::TempDir() + "corpus_" + name + ".csv";
  }

  /// Write the (possibly corrupted) lines to a corpus file.
  std::string write_corpus(const std::string& name, const std::string& prefix = "") {
    const auto path = corpus_path(name);
    std::ofstream out(path, std::ios::binary);
    out << prefix;
    for (const auto& line : lines_) out << line << "\n";
    return path;
  }

  /// 0-based CSV field index of a named column (matches trace_to_csv).
  [[nodiscard]] static std::size_t column(const std::string& name) {
    const auto doc = sim::trace_to_csv(test::synthetic_trace(1));
    return doc.column(name);
  }

  std::string baseline_;
  std::vector<std::string> lines_;
};

TEST_F(TraceIoCorpusTest, TruncatedRowIsSkippedAndCounted) {
  // Cut data row 5 off mid-record (a partially flushed log).
  lines_[6] = lines_[6].substr(0, lines_[6].find(',', 40));
  const auto path = write_corpus("truncated");

  auto& rejected =
      obs::MetricsRegistry::global().counter("trace_io.rows_rejected_total");
  const auto before = rejected.value();

  sim::TraceLoadReport report;
  const auto trace = sim::load_trace(path, &report);
  EXPECT_EQ(trace.samples.size(), kRows - 1);
  EXPECT_EQ(report.rows_read, kRows);
  EXPECT_EQ(report.rows_rejected, 1u);
  EXPECT_EQ(report.first_rejected_line, 7u);  // header is line 1, row 5 is line 7
  EXPECT_NE(report.first_error.find("line 7"), std::string::npos) << report.first_error;
  EXPECT_EQ(rejected.value() - before, 1u);
}

TEST_F(TraceIoCorpusTest, NanFieldFailsTheRowRangeChecks) {
  set_field(3, column("cc0_rsrp"), "nan");
  const auto path = write_corpus("nan_field");

  auto& rejected =
      obs::MetricsRegistry::global().counter("trace_io.rows_rejected_total");
  const auto before = rejected.value();

  sim::TraceLoadReport report;
  const auto trace = sim::load_trace(path, &report);
  EXPECT_EQ(trace.samples.size(), kRows - 1);
  EXPECT_EQ(report.rows_rejected, 1u);
  EXPECT_EQ(report.first_rejected_line, 5u);
  EXPECT_EQ(rejected.value() - before, 1u);
}

TEST_F(TraceIoCorpusTest, BadBandEnumCodeIsRejected) {
  set_field(0, column("cc0_band"), "999");
  const auto path = write_corpus("bad_enum");

  sim::TraceLoadReport report;
  const auto trace = sim::load_trace(path, &report);
  EXPECT_EQ(trace.samples.size(), kRows - 1);
  EXPECT_EQ(report.rows_rejected, 1u);
  EXPECT_EQ(report.first_rejected_line, 2u);
  EXPECT_NE(report.first_error.find("line 2"), std::string::npos) << report.first_error;
}

TEST_F(TraceIoCorpusTest, UnparsableNumberIsRejectedNotFatal) {
  set_field(9, column("agg_tput_mbps"), "not-a-number");
  const auto path = write_corpus("bad_number");

  sim::TraceLoadReport report;
  const auto trace = sim::load_trace(path, &report);
  EXPECT_EQ(trace.samples.size(), kRows - 1);
  EXPECT_EQ(report.first_rejected_line, 11u);
}

TEST_F(TraceIoCorpusTest, Utf8BomHeaderIsStripped) {
  // Excel-exported CSVs lead with a BOM; the header must still resolve.
  const auto path = write_corpus("bom", "\xEF\xBB\xBF");

  sim::TraceLoadReport report;
  const auto trace = sim::load_trace(path, &report);
  EXPECT_EQ(trace.samples.size(), kRows);
  EXPECT_EQ(report.rows_rejected, 0u);
  EXPECT_EQ(report.first_rejected_line, 0u);
  EXPECT_TRUE(report.first_error.empty());
}

TEST_F(TraceIoCorpusTest, MultipleBadRowsReportTheFirstOffender) {
  set_field(2, column("cc0_rsrp"), "nan");
  set_field(8, column("cc1_sinr"), "nan");
  const auto path = write_corpus("two_bad");

  auto& rejected =
      obs::MetricsRegistry::global().counter("trace_io.rows_rejected_total");
  const auto before = rejected.value();

  sim::TraceLoadReport report;
  const auto trace = sim::load_trace(path, &report);
  EXPECT_EQ(trace.samples.size(), kRows - 2);
  EXPECT_EQ(report.rows_rejected, 2u);
  EXPECT_EQ(report.first_rejected_line, 4u);  // row 2 → line 4 wins over row 8
  EXPECT_EQ(rejected.value() - before, 2u);
}

TEST_F(TraceIoCorpusTest, AllRowsBrokenAbortsWithFirstErrorContext) {
  for (std::size_t r = 0; r < kRows; ++r) set_field(r, column("cc0_rsrp"), "nan");
  const auto path = write_corpus("all_bad");

  sim::TraceLoadReport report;
  try {
    (void)sim::load_trace(path, &report);
    FAIL() << "expected CheckError for a fully corrupt file";
  } catch (const common::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
  EXPECT_EQ(report.rows_rejected, kRows);
}

}  // namespace

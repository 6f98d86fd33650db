// Unit tests for CSV parsing/serialization.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "common/contracts.hpp"
#include "common/csv.hpp"

namespace {

using namespace ca5g::common;

TEST(Csv, ParseSimpleDocument) {
  const auto doc = parse_csv("a,b,c\n1,2,3\n4,5,6\n");
  ASSERT_EQ(doc.header.size(), 3u);
  EXPECT_EQ(doc.header[0], "a");
  ASSERT_EQ(doc.rows.size(), 2u);
  EXPECT_EQ(doc.rows[1][2], "6");
}

TEST(Csv, ParseHandlesCrlfAndBlankLines) {
  const auto doc = parse_csv("x,y\r\n\r\n1,2\r\n");
  ASSERT_EQ(doc.rows.size(), 1u);
  EXPECT_EQ(doc.rows[0][0], "1");
}

TEST(Csv, ParseRejectsRaggedRows) {
  EXPECT_THROW(parse_csv("a,b\n1,2,3\n"), CheckError);
}

TEST(Csv, RoundTrip) {
  CsvDocument doc;
  doc.header = {"col1", "col2"};
  doc.rows = {{"1.5", "x"}, {"-2", "y"}};
  const auto text = to_csv(doc);
  const auto parsed = parse_csv(text);
  EXPECT_EQ(parsed.header, doc.header);
  EXPECT_EQ(parsed.rows, doc.rows);
}

TEST(Csv, ColumnLookup) {
  CsvDocument doc;
  doc.header = {"alpha", "beta"};
  EXPECT_EQ(doc.column("beta"), 1u);
  EXPECT_THROW((void)doc.column("gamma"), CheckError);
}

TEST(Csv, FileRoundTrip) {
  CsvDocument doc;
  doc.header = {"v"};
  doc.rows = {{"42"}};
  const auto path = std::filesystem::temp_directory_path() / "ca5g_test_csv.csv";
  save_csv(doc, path.string());
  const auto loaded = load_csv(path.string());
  EXPECT_EQ(loaded.rows[0][0], "42");
  std::filesystem::remove(path);
}

TEST(Csv, LoadMissingFileThrows) {
  EXPECT_THROW(load_csv("/nonexistent/definitely/missing.csv"), CheckError);
}

}  // namespace

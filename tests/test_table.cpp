// Unit tests for text-table formatting.
#include <gtest/gtest.h>

#include "common/contracts.hpp"
#include "common/table.hpp"

namespace {

using ca5g::common::TextTable;

TEST(TextTable, RendersHeaderAndRows) {
  TextTable table("Demo");
  table.set_header({"name", "value"});
  table.add_row({"alpha", "1"});
  table.add_row({"beta", "22"});
  const auto text = table.to_string();
  EXPECT_NE(text.find("== Demo =="), std::string::npos);
  EXPECT_NE(text.find("alpha"), std::string::npos);
  EXPECT_NE(text.find("22"), std::string::npos);
}

TEST(TextTable, RejectsMismatchedRow) {
  TextTable table("T");
  table.set_header({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), ca5g::common::CheckError);
}

TEST(TextTable, RejectsEmptyHeader) {
  TextTable table("T");
  EXPECT_THROW(table.set_header({}), ca5g::common::CheckError);
}

TEST(TextTable, NumFormatsPrecision) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

TEST(TextTable, ColumnsAreAligned) {
  TextTable table("T");
  table.set_header({"a", "b"});
  table.add_row({"xxxxxxxx", "1"});
  const auto text = table.to_string();
  // The 'b' header must be padded past the widest cell of column a.
  const auto header_line = text.substr(text.find('\n') + 1);
  EXPECT_GE(header_line.find('b'), 8u);
}

}  // namespace

// Plain-text table formatting for benchmark harnesses: every bench binary
// prints the rows/series of the paper table or figure it reproduces.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace ca5g::common {

/// Column-aligned text table with a title, optionally markdown-style.
class TextTable {
 public:
  explicit TextTable(std::string title) : title_(std::move(title)) {}

  /// Set the header row (defines the column count).
  void set_header(std::vector<std::string> header);

  /// Append a data row; must match the header column count.
  void add_row(std::vector<std::string> row);

  /// Render with padded columns and a rule under the header.
  [[nodiscard]] std::string to_string() const;

  /// Convenience: format a double with fixed precision.
  [[nodiscard]] static std::string num(double v, int precision = 3);

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

std::ostream& operator<<(std::ostream& os, const TextTable& table);

}  // namespace ca5g::common

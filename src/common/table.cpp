#include "common/table.hpp"

#include <algorithm>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "common/contracts.hpp"

namespace ca5g::common {

void TextTable::set_header(std::vector<std::string> header) {
  CA5G_CHECK_MSG(!header.empty(), "table header must not be empty");
  header_ = std::move(header);
}

void TextTable::add_row(std::vector<std::string> row) {
  CA5G_CHECK_MSG(row.size() == header_.size(),
                 "row has " << row.size() << " cells, header has " << header_.size());
  rows_.push_back(std::move(row));
}

std::string TextTable::to_string() const {
  std::vector<std::size_t> widths(header_.size(), 0);
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c) widths[c] = std::max(widths[c], row[c].size());

  std::ostringstream os;
  os << "== " << title_ << " ==\n";
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << std::left << std::setw(static_cast<int>(widths[c]) + 2) << row[c];
    }
    os << '\n';
  };
  emit_row(header_);
  std::size_t rule_len = 0;
  for (std::size_t w : widths) rule_len += w + 2;
  os << std::string(rule_len, '-') << '\n';
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

std::string TextTable::num(double v, int precision) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(precision) << v;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const TextTable& table) {
  return os << table.to_string();
}

}  // namespace ca5g::common

#include "common/csv.hpp"

#include <fstream>
#include <sstream>

#include "common/contracts.hpp"

namespace ca5g::common {
namespace {

std::vector<std::string> split_line(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  std::istringstream is(line);
  while (std::getline(is, cell, ',')) cells.push_back(cell);
  if (!line.empty() && line.back() == ',') cells.emplace_back();
  return cells;
}

}  // namespace

std::size_t CsvDocument::column(const std::string& name) const {
  for (std::size_t i = 0; i < header.size(); ++i)
    if (header[i] == name) return i;
  CA5G_CHECK_MSG(false, "CSV column not found: " << name);
  return 0;  // unreachable
}

CsvDocument parse_csv(const std::string& text, bool allow_ragged) {
  CsvDocument doc;
  std::istringstream is(text);
  std::string line;
  bool first = true;
  while (std::getline(is, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    // Editors and spreadsheet exports prepend a UTF-8 BOM; it is not part
    // of the first header name.
    if (first && line.rfind("\xEF\xBB\xBF", 0) == 0) line.erase(0, 3);
    if (line.empty()) continue;
    auto cells = split_line(line);
    if (first) {
      doc.header = std::move(cells);
      first = false;
    } else {
      if (!allow_ragged)
        CA5G_CHECK_MSG(cells.size() == doc.header.size(),
                       "CSV row width " << cells.size() << " != header width "
                                        << doc.header.size());
      doc.rows.push_back(std::move(cells));
    }
  }
  return doc;
}

std::string to_csv(const CsvDocument& doc) {
  std::ostringstream os;
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i > 0) os << ',';
      os << cells[i];
    }
    os << '\n';
  };
  emit(doc.header);
  for (const auto& row : doc.rows) emit(row);
  return os.str();
}

CsvDocument load_csv(const std::string& path, bool allow_ragged) {
  std::ifstream in(path);
  CA5G_CHECK_MSG(in.good(), "cannot open CSV file: " << path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_csv(buffer.str(), allow_ragged);
}

void save_csv(const CsvDocument& doc, const std::string& path) {
  std::ofstream out(path);
  CA5G_CHECK_MSG(out.good(), "cannot write CSV file: " << path);
  out << to_csv(doc);
  CA5G_CHECK_MSG(out.good(), "write failed for CSV file: " << path);
}

}  // namespace ca5g::common

#include "obs/run_report.hpp"

#include <fstream>
#include <sstream>

#include "common/contracts.hpp"

namespace ca5g::obs {
namespace {

/// Re-indent an already-rendered JSON value so it nests cleanly when
/// embedded at `depth` spaces inside the summary object.
std::string indent_block(const std::string& json, int depth) {
  std::string pad(static_cast<std::size_t>(depth), ' ');
  std::string out;
  out.reserve(json.size() + 64);
  for (std::size_t i = 0; i < json.size(); ++i) {
    out += json[i];
    if (json[i] == '\n' && i + 1 < json.size()) out += pad;
  }
  return out;
}

}  // namespace

RunReport::RunReport(std::string run_name) : run_name_(std::move(run_name)) {}

void RunReport::meta(std::string_view key, std::string_view value) {
  const std::lock_guard<std::mutex> lock(mu_);
  meta_strings_.emplace_back(std::string(key), std::string(value));
}

void RunReport::meta(std::string_view key, double value) {
  const std::lock_guard<std::mutex> lock(mu_);
  meta_numbers_.emplace_back(std::string(key), value);
}

void RunReport::kpi(std::string_view key, double value) {
  const std::lock_guard<std::mutex> lock(mu_);
  kpis_.emplace_back(std::string(key), value);
}

void RunReport::event(std::string_view kind, std::string_view detail) {
  const double t = watch_.elapsed_s();
  const std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(RunEvent{events_.size(), t, std::string(kind), std::string(detail)});
}

std::string RunReport::summary_json(const MetricsSnapshot* metrics, int indent) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::string pad(static_cast<std::size_t>(indent), ' ');
  const std::string pad2 = pad + pad;
  std::ostringstream os;
  os << "{\n";
  os << pad << "\"run\": \"" << json_escape(run_name_) << "\",\n";
  os << pad << "\"wall_s\": " << json_number(watch_.elapsed_s()) << ",\n";

  os << pad << "\"meta\": {";
  bool first = true;
  for (const auto& kv : meta_strings_) {
    os << (first ? "\n" : ",\n") << pad2 << '"' << json_escape(kv.first) << "\": \""
       << json_escape(kv.second) << '"';
    first = false;
  }
  for (const auto& kv : meta_numbers_) {
    os << (first ? "\n" : ",\n") << pad2 << '"' << json_escape(kv.first)
       << "\": " << json_number(kv.second);
    first = false;
  }
  os << (first ? "" : "\n" + pad) << "},\n";

  os << pad << "\"kpis\": {";
  first = true;
  for (const auto& kv : kpis_) {
    os << (first ? "\n" : ",\n") << pad2 << '"' << json_escape(kv.first)
       << "\": " << json_number(kv.second);
    first = false;
  }
  os << (first ? "" : "\n" + pad) << "},\n";

  os << pad << "\"events_count\": " << events_.size();
  if (metrics != nullptr) {
    os << ",\n" << pad << "\"metrics\": " << indent_block(to_json(*metrics, indent), indent);
  }
  os << "\n}\n";
  return os.str();
}

std::string RunReport::events_jsonl() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  for (const auto& e : events_) {
    os << "{\"seq\": " << e.seq << ", \"t_s\": " << json_number(e.t_s) << ", \"kind\": \""
       << json_escape(e.kind) << "\", \"detail\": \"" << json_escape(e.detail) << "\"}\n";
  }
  return os.str();
}

void RunReport::write_summary(const std::string& path, const MetricsSnapshot* metrics) const {
  std::ofstream out(path);
  CA5G_CHECK_MSG(out.good(), "cannot open run-report summary path: " + path);
  out << summary_json(metrics);
  CA5G_CHECK_MSG(out.good(), "failed writing run-report summary: " + path);
}

void RunReport::write_events(const std::string& path) const {
  std::ofstream out(path);
  CA5G_CHECK_MSG(out.good(), "cannot open run-report events path: " + path);
  out << events_jsonl();
  CA5G_CHECK_MSG(out.good(), "failed writing run-report events: " + path);
}

std::string RunReport::events_path_for(std::string_view summary_path) {
  return std::string(summary_path) + ".events.jsonl";
}

}  // namespace ca5g::obs

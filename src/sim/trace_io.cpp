#include "sim/trace_io.hpp"

#include <charconv>
#include <stdexcept>
#include <string_view>

#include "common/contracts.hpp"
#include "obs/metrics.hpp"

namespace ca5g::sim {
namespace {

/// The canonical CSV of `trace`, header row first, cell by cell: the one
/// definition trace_to_csv and trace_hash both read, so the saved bytes
/// and the hashed bytes cannot drift apart. Numbers are formatted into a
/// stack buffer and handed to `sink.cell` as a string_view, so a sink
/// that only reads the bytes allocates nothing per cell.
template <typename Sink>
void write_cells(const Trace& trace, Sink& sink) {
  char buf[32];
  const auto emit = [&](std::to_chars_result r) {
    CA5G_DCHECK_MSG(r.ec == std::errc{}, "trace CSV cell overflowed its buffer");
    sink.cell(std::string_view(buf, static_cast<std::size_t>(r.ptr - buf)));
  };
  // printf "%.10g": the bytes an ostream at precision 10 writes.
  const auto number = [&](double v) {
    emit(std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 10));
  };
  const auto integer = [&](auto v) { emit(std::to_chars(buf, buf + sizeof buf, v)); };
  const auto flag = [&](bool b) { sink.cell(b ? "1" : "0"); };

  for (const char* name : {"time_s", "hour", "op", "env", "mobility", "modem", "step_s",
                           "cc_slots", "pos_x", "pos_y", "event", "agg_tput_mbps"})
    sink.cell(name);
  for (std::size_t slot = 0; slot < trace.cc_slots; ++slot) {
    const std::string p = "cc" + std::to_string(slot) + "_";
    for (const char* field : {"active", "pcell", "band", "chan", "bw", "pci", "rsrp",
                              "rsrq", "sinr", "cqi", "bler", "rb", "layers", "mcs",
                              "tput"})
      sink.cell(p + field);
  }
  sink.end_row();

  const CcSample empty{};
  for (const auto& s : trace.samples) {
    number(s.time_s);
    number(s.hour_of_day);
    integer(static_cast<int>(trace.op));
    integer(static_cast<int>(trace.env));
    sink.cell(trace.mobility);
    integer(static_cast<int>(trace.modem));
    number(trace.step_s);
    integer(trace.cc_slots);
    number(s.pos.x);
    number(s.pos.y);
    flag(!s.events.empty());
    number(s.aggregate_tput_mbps);
    for (std::size_t slot = 0; slot < trace.cc_slots; ++slot) {
      const CcSample& cc = slot < s.ccs.size() ? s.ccs[slot] : empty;
      flag(cc.active);
      flag(cc.is_pcell);
      integer(static_cast<int>(cc.band));
      integer(cc.channel_index);
      integer(cc.bandwidth_mhz);
      integer(cc.pci);
      number(cc.rsrp_dbm);
      number(cc.rsrq_db);
      number(cc.sinr_db);
      integer(cc.cqi);
      number(cc.bler);
      integer(cc.rb);
      integer(cc.layers);
      integer(cc.mcs);
      number(cc.tput_mbps);
    }
    sink.end_row();
  }
}

/// Collects the cells into a CsvDocument (first row is the header).
struct DocumentSink {
  common::CsvDocument doc;
  std::vector<std::string> row;

  void cell(std::string_view s) { row.emplace_back(s); }
  void end_row() {
    if (doc.header.empty())
      doc.header = std::move(row);
    else
      doc.rows.push_back(std::move(row));
    row = {};
  }
};

/// FNV-1a 64 over the bytes common::to_csv would write: cells joined by
/// ',' and every row ended by '\n'.
struct HashSink {
  std::uint64_t h = 0xCBF29CE484222325ULL;  // FNV-1a 64 offset basis
  bool row_start = true;

  void byte(unsigned char c) {
    h ^= c;
    h *= 0x100000001B3ULL;  // FNV-1a 64 prime
  }
  void cell(std::string_view s) {
    if (!row_start) byte(',');
    row_start = false;
    for (const char c : s) byte(static_cast<unsigned char>(c));
  }
  void end_row() {
    byte('\n');
    row_start = true;
  }
};

}  // namespace

common::CsvDocument trace_to_csv(const Trace& trace) {
  CA5G_METRIC_COUNTER(rows_written, "trace_io.rows_written_total");
  rows_written.inc(trace.samples.size());
  DocumentSink sink;
  sink.doc.rows.reserve(trace.samples.size());
  write_cells(trace, sink);
  return std::move(sink.doc);
}

Trace trace_from_csv(const common::CsvDocument& doc, TraceLoadReport* report) {
  CA5G_METRIC_COUNTER(rows_read, "trace_io.rows_read_total");
  CA5G_METRIC_COUNTER(rows_rejected, "trace_io.rows_rejected_total");

  Trace trace;
  CA5G_CHECK_MSG(!doc.rows.empty(), "trace CSV has no data rows");
  rows_read.inc(doc.rows.size());

  const auto& first = doc.rows.front();
  try {
    if (first.size() < doc.header.size()) throw std::out_of_range("short trace CSV row");
    trace.op = static_cast<ran::OperatorId>(std::stoi(first[doc.column("op")]));
    trace.env = static_cast<radio::Environment>(std::stoi(first[doc.column("env")]));
    trace.mobility = first[doc.column("mobility")];
    trace.modem = static_cast<ue::ModemModel>(std::stoi(first[doc.column("modem")]));
    trace.step_s = std::stod(first[doc.column("step_s")]);
    trace.cc_slots = static_cast<std::size_t>(std::stoul(first[doc.column("cc_slots")]));
  } catch (const std::exception& e) {
    rows_rejected.inc();
    CA5G_CHECK_MSG(false, "trace CSV metadata row is malformed at line 2: " << e.what());
  }

  const auto time_col = doc.column("time_s");
  const auto hour_col = doc.column("hour");
  const auto x_col = doc.column("pos_x");
  const auto y_col = doc.column("pos_y");
  const auto event_col = doc.column("event");
  const auto agg_col = doc.column("agg_tput_mbps");

  // Rows that fail to parse are counted and skipped rather than silently
  // aborting the whole load; the first offender's 1-based file line
  // (header is line 1) is reported if nothing survives.
  std::size_t rejected = 0;
  std::size_t first_rejected_line = 0;
  const auto parse_sample = [&](const std::vector<std::string>& row) {
    if (row.size() < doc.header.size()) throw std::out_of_range("short trace CSV row");
    TraceSample s;
    s.time_s = std::stod(row[time_col]);
    s.hour_of_day = std::stod(row[hour_col]);
    s.pos = {std::stod(row[x_col]), std::stod(row[y_col])};
    if (std::stoi(row[event_col]) != 0)
      s.events.push_back({s.time_s, ran::RrcEventType::kSCellAdd, 0});  // flag only
    s.aggregate_tput_mbps = std::stod(row[agg_col]);
    s.ccs.assign(trace.cc_slots, CcSample{});
    for (std::size_t slot = 0; slot < trace.cc_slots; ++slot) {
      const std::string p = "cc" + std::to_string(slot) + "_";
      CcSample& cc = s.ccs[slot];
      cc.active = row[doc.column(p + "active")] == "1";
      cc.is_pcell = row[doc.column(p + "pcell")] == "1";
      cc.band = static_cast<phy::BandId>(std::stoi(row[doc.column(p + "band")]));
      cc.channel_index = std::stoi(row[doc.column(p + "chan")]);
      cc.bandwidth_mhz = std::stoi(row[doc.column(p + "bw")]);
      cc.pci = std::stoi(row[doc.column(p + "pci")]);
      cc.rsrp_dbm = std::stod(row[doc.column(p + "rsrp")]);
      cc.rsrq_db = std::stod(row[doc.column(p + "rsrq")]);
      cc.sinr_db = std::stod(row[doc.column(p + "sinr")]);
      cc.cqi = std::stoi(row[doc.column(p + "cqi")]);
      cc.bler = std::stod(row[doc.column(p + "bler")]);
      cc.rb = std::stoi(row[doc.column(p + "rb")]);
      cc.layers = std::stoi(row[doc.column(p + "layers")]);
      cc.mcs = std::stoi(row[doc.column(p + "mcs")]);
      cc.tput_mbps = std::stod(row[doc.column(p + "tput")]);
    }
    // Parsing is where corruption enters (truncated files, NaN fields,
    // bad enum codes, hand-edited CSVs): reject anything outside the
    // Table 12 field ranges row by row, so one broken row costs one
    // sample, not the whole load.
    validate(s, trace.cc_slots);
    return s;
  };
  std::string first_error;
  for (std::size_t r = 0; r < doc.rows.size(); ++r) {
    try {
      trace.samples.push_back(parse_sample(doc.rows[r]));
    } catch (const std::exception& e) {
      ++rejected;
      rows_rejected.inc();
      if (first_rejected_line == 0) {
        first_rejected_line = r + 2;
        first_error = "line " + std::to_string(first_rejected_line) + ": " + e.what();
      }
    }
  }
  if (report != nullptr) {
    report->rows_read = doc.rows.size();
    report->rows_rejected = rejected;
    report->first_rejected_line = first_rejected_line;
    report->first_error = first_error;
  }
  CA5G_CHECK_MSG(!trace.samples.empty(),
                 "trace CSV has no parseable data rows: " << rejected
                     << " malformed row(s), first at " << first_error);
  // Per-row validation covered the field ranges; this pass re-checks the
  // cross-row invariants (time non-decreasing, metadata sanity).
  validate(trace);
  return trace;
}

void save_trace(const Trace& trace, const std::string& path) {
  validate(trace);
  common::save_csv(trace_to_csv(trace), path);
}

Trace load_trace(const std::string& path, TraceLoadReport* report) {
  // Ragged rows are admitted at the CSV layer so the row-level skip
  // accounting above (not a whole-file abort) handles truncated files.
  return trace_from_csv(common::load_csv(path, /*allow_ragged=*/true), report);
}

std::uint64_t trace_hash(const Trace& trace) {
  HashSink sink;
  write_cells(trace, sink);
  return sink.h;
}

}  // namespace ca5g::sim

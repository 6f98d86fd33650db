// CSV serialization of traces in the paper's Table 12 field layout:
// per-CC blocks of (band, rsrp, rsrq, sinr, cqi, bler, rb, layers, mcs,
// tput, active, pcell, event) plus timestamp and aggregate throughput.
// Round-trips through parse so datasets can be archived and re-loaded.
//
// Loading is defensive: malformed rows (truncated, non-numeric, NaN, or
// out of the Table 12 field ranges) are skipped and counted in
// `trace_io.rows_rejected_total`, with the first offender's file line and
// error preserved in the optional TraceLoadReport.
#pragma once

#include <cstdint>
#include <string>

#include "common/csv.hpp"
#include "sim/trace.hpp"

namespace ca5g::sim {

/// Row-level accounting of one trace load (see trace_from_csv).
struct TraceLoadReport {
  std::size_t rows_read = 0;           ///< data rows seen
  std::size_t rows_rejected = 0;       ///< malformed rows skipped
  std::size_t first_rejected_line = 0; ///< 1-based file line (header = 1); 0 = none
  std::string first_error;             ///< what() of the first rejected row
};

/// Serialize a trace to an in-memory CSV document.
[[nodiscard]] common::CsvDocument trace_to_csv(const Trace& trace);

/// Parse a trace back from CSV (metadata columns restore op/env/etc.).
/// Malformed rows are skipped (counted in `report` when given); a load
/// where no row survives throws common::CheckError naming the first
/// offending line.
[[nodiscard]] Trace trace_from_csv(const common::CsvDocument& doc,
                                   TraceLoadReport* report = nullptr);

/// File convenience wrappers.
void save_trace(const Trace& trace, const std::string& path);
[[nodiscard]] Trace load_trace(const std::string& path,
                               TraceLoadReport* report = nullptr);

/// FNV-1a 64-bit hash of `common::to_csv(trace_to_csv(trace))`: a
/// byte-stable fingerprint used by the determinism harness to prove a
/// fixed-seed scenario reproduces bit-identically across runs and thread
/// counts (tests/test_determinism.cpp, docs/TESTING.md). The bytes are
/// streamed from the same cell writer trace_to_csv uses (doubles as
/// printf "%.10g"), with no document or string built per cell;
/// TraceHash.EqualsHashOfCsvBytes pins the equality.
[[nodiscard]] std::uint64_t trace_hash(const Trace& trace);

}  // namespace ca5g::sim

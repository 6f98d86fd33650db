// prism5g_lint — domain-invariant lint over the compiled 3GPP tables and
// the trace schema.
//
// Everything downstream of the PHY model (Figures 1–26, the predictors,
// the QoE studies) silently trusts these tables; a transposed MCS row or a
// mistyped band frequency skews every benchmark figure without failing a
// unit test. This binary statically validates:
//
//   * the TS 38.214 MCS/CQI tables (contiguity, modulation order steps,
//     code-rate bounds, spectral-efficiency monotonicity),
//   * the SINR→CQI→MCS link-adaptation chain (monotone, never outruns the
//     channel),
//   * the TS 38.214 §5.1.3.2 TBS quantizer against independently computed
//     reference vectors and the small-TBS table shape,
//   * the 3GPP band catalogue (duplex/frequency/range sanity for every
//     band, exact expectations for the paper's NR bands),
//   * numerology/RB-capacity spot values from TS 38.101,
//   * the Table 12 trace schema (CSV header completeness, round-trip,
//     field-range validation),
//   * the observability metric names registered by the code paths the lint
//     itself exercises (the `layer.noun_unit` convention from
//     docs/OBSERVABILITY.md — wrong names would silently fragment
//     dashboards and per-run reports).
//
// It is registered as a ctest (label: lint). `--self-test` additionally
// proves the detectors fire by running the same checks over deliberately
// corrupted copies of the MCS/TBS/CQI/band tables and over malformed
// metric names — guarding against the lint itself rotting into a rubber
// stamp.
#include <cmath>
#include <cstring>
#include <iostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "nn/infer.hpp"
#include "obs/metrics.hpp"
#include "phy/band.hpp"
#include "phy/mcs.hpp"
#include "phy/numerology.hpp"
#include "phy/tbs.hpp"
#include "serve/server.hpp"
#include "sim/trace.hpp"
#include "sim/trace_io.hpp"

namespace {

using namespace ca5g;

/// Collects lint failures; checks are free functions over table spans so the
/// self-test can rerun them against corrupted copies.
class Linter {
 public:
  explicit Linter(bool verbose) : verbose_(verbose) {}

  void expect(bool ok, const std::string& what) {
    ++checks_;
    if (!ok) {
      failures_.push_back(what);
      if (verbose_) std::cerr << "  FAIL: " << what << '\n';
    }
  }

  [[nodiscard]] int checks() const noexcept { return checks_; }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  bool verbose_;
  int checks_ = 0;
  std::vector<std::string> failures_;
};

std::string describe(const char* what, int index, const char* detail) {
  std::ostringstream os;
  os << what << '[' << index << "]: " << detail;
  return os.str();
}

// --- TS 38.214 Table 5.1.3.1-2 (MCS) ---------------------------------------

void lint_mcs_table(Linter& lint, std::span<const phy::McsEntry> table) {
  lint.expect(table.size() == static_cast<std::size_t>(phy::kMaxMcsIndex) + 1,
              "MCS table must have kMaxMcsIndex+1 rows");
  for (int i = 0; i < static_cast<int>(table.size()); ++i) {
    const auto& row = table[static_cast<std::size_t>(i)];
    lint.expect(row.index == i, describe("mcs", i, "index column must equal position"));
    lint.expect(row.modulation_order == 2 || row.modulation_order == 4 ||
                    row.modulation_order == 6 || row.modulation_order == 8,
                describe("mcs", i, "Qm must be one of 2/4/6/8"));
    lint.expect(row.code_rate > 0.0 && row.code_rate <= 948.0 / 1024.0,
                describe("mcs", i, "code rate must lie in (0, 948/1024]"));
    if (i > 0) {
      const auto& prev = table[static_cast<std::size_t>(i - 1)];
      lint.expect(row.modulation_order >= prev.modulation_order,
                  describe("mcs", i, "modulation order must be non-decreasing"));
      lint.expect(row.efficiency() > prev.efficiency(),
                  describe("mcs", i, "spectral efficiency must be strictly increasing"));
    }
  }
}

// --- TS 38.214 Table 5.2.2.1-3 (CQI) ---------------------------------------

void lint_cqi_table(Linter& lint, std::span<const phy::CqiEntry> table) {
  lint.expect(table.size() == static_cast<std::size_t>(phy::kMaxCqiIndex) + 1,
              "CQI table must have kMaxCqiIndex+1 rows");
  if (table.empty()) return;
  lint.expect(table[0].index == 0 && table[0].efficiency == 0.0,
              "CQI 0 must be the out-of-range sentinel");
  for (int i = 1; i < static_cast<int>(table.size()); ++i) {
    const auto& row = table[static_cast<std::size_t>(i)];
    lint.expect(row.index == i, describe("cqi", i, "index column must equal position"));
    lint.expect(std::abs(row.efficiency - row.modulation_order * row.code_rate) < 5e-4,
                describe("cqi", i, "efficiency column must equal Qm x R"));
    if (i > 1) {
      const auto& prev = table[static_cast<std::size_t>(i - 1)];
      lint.expect(row.efficiency > prev.efficiency,
                  describe("cqi", i, "efficiency must be strictly increasing"));
      lint.expect(row.min_sinr_db > prev.min_sinr_db,
                  describe("cqi", i, "SINR threshold must be strictly increasing"));
    }
  }
}

// --- Link-adaptation chain --------------------------------------------------

void lint_link_adaptation(Linter& lint) {
  // CQI reporting is monotone in SINR and spans the full index range.
  int prev_cqi = 0;
  for (double sinr = -20.0; sinr <= 40.0; sinr += 0.25) {
    const int cqi = phy::cqi_from_sinr(sinr);
    lint.expect(cqi >= prev_cqi, "cqi_from_sinr must be monotone in SINR");
    lint.expect(cqi >= 0 && cqi <= phy::kMaxCqiIndex, "cqi_from_sinr out of range");
    prev_cqi = cqi;
  }
  lint.expect(phy::cqi_from_sinr(-30.0) == 0, "deep fade must report CQI 0");
  lint.expect(phy::cqi_from_sinr(40.0) == phy::kMaxCqiIndex,
              "ideal channel must report CQI 15");

  // Link adaptation never outruns what the reported CQI promises. MCS 0 is
  // the floor: CQI 1's efficiency (0.1523) sits below the lowest MCS rate
  // (0.2344), and the link then runs MCS 0 at elevated BLER.
  int prev_mcs = 0;
  for (int cqi = 1; cqi <= phy::kMaxCqiIndex; ++cqi) {
    const int mcs = phy::mcs_from_cqi(cqi);
    lint.expect(mcs >= prev_mcs, "mcs_from_cqi must be non-decreasing in CQI");
    lint.expect(mcs == 0 || phy::mcs_entry(mcs).efficiency() <=
                                phy::cqi_entry(cqi).efficiency + 1e-9,
                "selected MCS efficiency must not exceed the CQI's");
    prev_mcs = mcs;
  }

  // BLER model: ~10% at the operating point (where the CQI backs the MCS;
  // the CQI-1 floor case legitimately runs hotter), falling with margin.
  for (int cqi = 1; cqi <= phy::kMaxCqiIndex; ++cqi) {
    const int mcs = phy::mcs_from_cqi(cqi);
    const double at = phy::bler_estimate(phy::cqi_entry(cqi).min_sinr_db, mcs);
    const double above = phy::bler_estimate(phy::cqi_entry(cqi).min_sinr_db + 10.0, mcs);
    const bool backed =
        phy::mcs_entry(mcs).efficiency() <= phy::cqi_entry(cqi).efficiency + 1e-9;
    lint.expect(!backed || at <= 0.35,
                "BLER at the CQI operating point must be near the 10% target");
    lint.expect(above < at || at == 0.0, "BLER must fall as SINR margin grows");
  }
}

// --- TS 38.214 §5.1.3.2 TBS quantizer --------------------------------------

/// One independently computed TBS reference vector (worked by hand from the
/// spec's step 3/4 procedure, not copied from the implementation).
struct TbsVector {
  int prb;
  int symbols;
  int dmrs;
  int mcs;
  int layers;
  std::int64_t expected_bits;
};

constexpr TbsVector kTbsVectors[] = {
    // 1 PRB, MCS0, 1 layer: N_re=156, N_info=36.56 → N'=32 → table → 32.
    {1, 14, 12, 0, 1, 32},
    // 5 PRB, 12 symbols, MCS4: N_re=132·5, N_info=776.02 → N'=776 → 808.
    {5, 12, 12, 4, 1, 808},
    // 10 PRB, MCS10, 2 layers: N_info=8019.38 → N'=7936 → C=1 → 7936.
    {10, 14, 12, 10, 2, 7936},
    // Full 100 MHz @ 273 PRB, MCS27, 4 layers: N_info=1261669.5 →
    // N'=1277952 → C=152 → 1277992.
    {273, 14, 12, 27, 4, 1277992},
    // Zero allocation carries zero bits.
    {0, 14, 12, 10, 1, 0},
};

void lint_tbs(Linter& lint, std::span<const int> small_table) {
  // Shape of the small-TBS quantization table.
  lint.expect(small_table.size() == 93, "small-TBS table must have 93 entries");
  if (!small_table.empty()) {
    lint.expect(small_table.front() == 24, "small-TBS table must start at 24");
    lint.expect(small_table.back() == 3824, "small-TBS table must end at 3824");
  }
  for (int i = 0; i < static_cast<int>(small_table.size()); ++i) {
    const int tbs = small_table[static_cast<std::size_t>(i)];
    lint.expect(tbs % 8 == 0, describe("small_tbs", i, "entries must be byte-aligned"));
    if (i > 0)
      lint.expect(tbs > small_table[static_cast<std::size_t>(i - 1)],
                  describe("small_tbs", i, "entries must be strictly increasing"));
  }

  // Cross-check the full quantizer against the worked reference vectors.
  for (int i = 0; i < static_cast<int>(std::size(kTbsVectors)); ++i) {
    const auto& v = kTbsVectors[static_cast<std::size_t>(i)];
    phy::TbsParams p;
    p.prb_count = v.prb;
    p.symbols = v.symbols;
    p.dmrs_re_per_prb = v.dmrs;
    p.mcs_index = v.mcs;
    p.mimo_layers = v.layers;
    const auto got = phy::transport_block_size(p);
    std::ostringstream os;
    os << "TBS vector " << i << " (prb=" << v.prb << " mcs=" << v.mcs << " v=" << v.layers
       << "): expected " << v.expected_bits << ", got " << got;
    lint.expect(got == v.expected_bits, os.str());
  }
}

// --- 3GPP band catalogue ----------------------------------------------------

/// Exact expectations for the paper's NR bands (Table 6 / §3.1).
struct BandFact {
  const char* name;
  phy::Duplex duplex;
  phy::BandRange range;
  double min_freq_mhz;
  double max_freq_mhz;
};

constexpr BandFact kNrBandFacts[] = {
    {"n5", phy::Duplex::kFdd, phy::BandRange::kLow, 800.0, 900.0},
    {"n25", phy::Duplex::kFdd, phy::BandRange::kMid, 1850.0, 1995.0},
    {"n41", phy::Duplex::kTdd, phy::BandRange::kMid, 2496.0, 2690.0},
    {"n71", phy::Duplex::kFdd, phy::BandRange::kLow, 580.0, 700.0},
    {"n77", phy::Duplex::kTdd, phy::BandRange::kMid, 3300.0, 4200.0},
    {"n260", phy::Duplex::kTdd, phy::BandRange::kHigh, 37000.0, 40000.0},
    {"n261", phy::Duplex::kTdd, phy::BandRange::kHigh, 27500.0, 28350.0},
};

void lint_band_catalogue(Linter& lint, std::span<const phy::BandInfo> bands) {
  lint.expect(bands.size() == phy::kBandCount, "band catalogue size mismatch");
  for (int i = 0; i < static_cast<int>(bands.size()); ++i) {
    const auto& b = bands[static_cast<std::size_t>(i)];
    const bool nr = b.rat == phy::Rat::kNr;
    lint.expect(!b.name.empty() && b.name.front() == (nr ? 'n' : 'b'),
                describe("band", i, "name prefix must match the RAT"));
    lint.expect(b.center_freq_mhz > 0.0, describe("band", i, "frequency must be positive"));
    lint.expect(!b.bandwidths_mhz.empty(), describe("band", i, "no channel bandwidths"));
    lint.expect(!b.scs_khz.empty(), describe("band", i, "no subcarrier spacings"));
    for (std::size_t k = 1; k < b.bandwidths_mhz.size(); ++k)
      lint.expect(b.bandwidths_mhz[k] > b.bandwidths_mhz[k - 1],
                  describe("band", i, "bandwidth list must be ascending"));
    for (int bw : b.bandwidths_mhz)
      lint.expect(bw >= 5 && bw <= 400, describe("band", i, "bandwidth outside 5..400 MHz"));

    // Range class must agree with the carrier frequency (FR1/FR2 split per
    // TS 38.104: low < 1 GHz ≤ mid < 7.125 GHz ≤ FR2 gap < 24.25 GHz ≤ high).
    if (b.range == phy::BandRange::kLow)
      lint.expect(b.center_freq_mhz < 1000.0, describe("band", i, "low band above 1 GHz"));
    else if (b.range == phy::BandRange::kMid)
      lint.expect(b.center_freq_mhz >= 1000.0 && b.center_freq_mhz < 7125.0,
                  describe("band", i, "mid band outside 1–7.125 GHz"));
    else
      lint.expect(b.center_freq_mhz >= 24250.0,
                  describe("band", i, "mmWave band below FR2"));

    // Subcarrier spacing must match the RAT/range: LTE is 15 kHz only;
    // NR FR1 uses 15/30, FR2 uses 120.
    for (int scs : b.scs_khz) {
      if (!nr)
        lint.expect(scs == 15, describe("band", i, "LTE SCS must be 15 kHz"));
      else if (b.range == phy::BandRange::kHigh)
        lint.expect(scs == 120, describe("band", i, "FR2 SCS must be 120 kHz"));
      else
        lint.expect(scs == 15 || scs == 30,
                    describe("band", i, "NR FR1 SCS must be 15 or 30 kHz"));
    }

    // Names are unique and round-trip through the lookup.
    for (int j = 0; j < i; ++j)
      lint.expect(bands[static_cast<std::size_t>(j)].name != b.name,
                  describe("band", i, "duplicate band name"));
  }

  // Exact facts for the NR bands the paper's operators deploy.
  for (const auto& fact : kNrBandFacts) {
    const phy::BandInfo* found = nullptr;
    for (const auto& b : bands)
      if (b.name == fact.name) found = &b;
    std::ostringstream os;
    os << "NR band " << fact.name;
    if (found == nullptr) {
      lint.expect(false, os.str() + " missing from the catalogue");
      continue;
    }
    lint.expect(found->duplex == fact.duplex, os.str() + ": wrong duplex mode");
    lint.expect(found->range == fact.range, os.str() + ": wrong band range class");
    lint.expect(found->center_freq_mhz >= fact.min_freq_mhz &&
                    found->center_freq_mhz <= fact.max_freq_mhz,
                os.str() + ": carrier frequency outside the 3GPP band");
    lint.expect(found->rat == phy::Rat::kNr, os.str() + ": must be an NR band");
  }

  lint.expect(phy::downlink_duty(phy::Duplex::kFdd) == 1.0,
              "FDD dedicates the full DL channel");
  const double tdd = phy::downlink_duty(phy::Duplex::kTdd);
  lint.expect(tdd > 0.5 && tdd < 1.0, "TDD DL duty must lie in (0.5, 1)");
}

// --- TS 38.101 numerology / RB capacity -------------------------------------

void lint_numerology(Linter& lint) {
  lint.expect(phy::slots_per_subframe(15) == 1, "15 kHz SCS has 1 slot/subframe");
  lint.expect(phy::slots_per_subframe(30) == 2, "30 kHz SCS has 2 slots/subframe");
  lint.expect(phy::slots_per_subframe(120) == 8, "120 kHz SCS has 8 slots/subframe");
  lint.expect(std::abs(phy::slot_duration_s(30) - 0.0005) < 1e-12,
              "30 kHz slot lasts 0.5 ms");
  // Spot values from TS 38.101-1/-2 Table 5.3.2-1 and the LTE 5 RB/MHz rule.
  lint.expect(phy::max_resource_blocks(phy::Rat::kNr, 100, 30) == 273,
              "NR 100 MHz @ 30 kHz must give 273 RB");
  lint.expect(phy::max_resource_blocks(phy::Rat::kNr, 20, 15) == 106,
              "NR 20 MHz @ 15 kHz must give 106 RB");
  lint.expect(phy::max_resource_blocks(phy::Rat::kNr, 100, 120) == 66,
              "NR FR2 100 MHz @ 120 kHz must give 66 RB");
  lint.expect(phy::max_resource_blocks(phy::Rat::kLte, 20, 15) == 100,
              "LTE 20 MHz must give 100 RB");
}

// --- Table 12 trace schema ---------------------------------------------------

/// Per-CC fields the paper's Table 12 feature schema requires in the CSV.
constexpr const char* kCcFields[] = {"active", "pcell", "band", "chan",   "bw",
                                     "pci",    "rsrp",  "rsrq", "sinr",   "cqi",
                                     "bler",   "rb",    "layers", "mcs",  "tput"};
constexpr const char* kMetaFields[] = {"time_s", "hour",   "op",       "env",
                                       "mobility", "modem", "step_s",  "cc_slots",
                                       "pos_x",  "pos_y",  "event",    "agg_tput_mbps"};

sim::Trace tiny_trace() {
  sim::Trace trace;
  trace.cc_slots = 2;
  trace.step_s = 0.01;
  for (int i = 0; i < 3; ++i) {
    sim::TraceSample s;
    s.time_s = 0.01 * i;
    s.hour_of_day = 12.0;
    s.aggregate_tput_mbps = 120.0 + i;
    s.ccs.assign(2, sim::CcSample{});
    s.ccs[0].active = true;
    s.ccs[0].is_pcell = true;
    s.ccs[0].band = phy::BandId::kN41;
    s.ccs[0].bandwidth_mhz = 100;
    s.ccs[0].rsrp_dbm = -85.0;
    s.ccs[0].sinr_db = 18.0;
    s.ccs[0].cqi = 12;
    s.ccs[0].mcs = 22;
    s.ccs[0].rb = 240;
    s.ccs[0].layers = 4;
    s.ccs[0].bler = 0.08;
    s.ccs[0].tput_mbps = 110.0 + i;
    trace.samples.push_back(std::move(s));
  }
  return trace;
}

void lint_trace_schema(Linter& lint) {
  const auto trace = tiny_trace();
  const auto doc = sim::trace_to_csv(trace);

  auto has_column = [&doc](const std::string& name) {
    for (const auto& h : doc.header)
      if (h == name) return true;
    return false;
  };

  for (const char* field : kMetaFields)
    lint.expect(has_column(field), std::string("trace CSV missing metadata column ") + field);
  for (std::size_t slot = 0; slot < trace.cc_slots; ++slot)
    for (const char* field : kCcFields)
      lint.expect(has_column("cc" + std::to_string(slot) + "_" + field),
                  "trace CSV missing per-CC column cc" + std::to_string(slot) + "_" + field);
  lint.expect(doc.header.size() ==
                  std::size(kMetaFields) + trace.cc_slots * std::size(kCcFields),
              "trace CSV has unexpected extra columns");
  lint.expect(doc.rows.size() == trace.samples.size(),
              "trace CSV must emit one row per sample");

  // Round-trip: parse back (which runs the Table 12 range validation) and
  // compare the load-bearing fields.
  try {
    const auto restored = sim::trace_from_csv(doc);
    lint.expect(restored.samples.size() == trace.samples.size(),
                "trace CSV round-trip lost samples");
    lint.expect(restored.cc_slots == trace.cc_slots, "trace CSV round-trip lost CC slots");
    const auto& a = trace.samples.front().ccs.front();
    const auto& b = restored.samples.front().ccs.front();
    lint.expect(a.band == b.band && a.cqi == b.cqi && a.mcs == b.mcs && a.rb == b.rb &&
                    a.layers == b.layers,
                "trace CSV round-trip corrupted per-CC fields");
  } catch (const std::exception& e) {
    lint.expect(false, std::string("trace CSV round-trip threw: ") + e.what());
  }

  // Field-range validation rejects a corrupted record.
  auto bad = trace;
  bad.samples[1].ccs[0].cqi = 99;
  bool threw = false;
  try {
    sim::validate(bad);
  } catch (const common::CheckError&) {
    threw = true;
  }
  lint.expect(threw, "Table 12 validation must reject CQI 99");
}

// --- Observability metric naming convention ----------------------------------

void lint_metric_names(Linter& lint, const std::vector<std::string>& names) {
  for (const auto& name : names)
    lint.expect(obs::is_valid_metric_name(name),
                "metric name violates the layer.noun_unit convention: " + name);
  // The earlier passes exercised instrumented code (cqi_from_sinr,
  // mcs_from_cqi, transport_block_size, the trace CSV round trip), so an
  // empty registry means the instrumentation macros stopped registering.
  lint.expect(!names.empty(),
              "instrumented code paths registered no metrics — the "
              "CA5G_METRIC_* macros are not reaching the registry");
}

/// The serving layer declares its full metric surface up front
/// (serve::kServeMetricNames — the contract docs/SERVING.md documents).
/// Lint validates the declared list rather than a live registry: these
/// names must be well-formed even in builds that never start a server.
void lint_serve_metric_names(Linter& lint) {
  std::vector<std::string> names;
  for (const auto name : serve::kServeMetricNames) names.emplace_back(name);
  lint.expect(!names.empty(), "serve layer declares no metrics");
  for (const auto& name : names)
    lint.expect(name.rfind("serve.", 0) == 0,
                "serve metric not under the serve. layer prefix: " + name);
  lint_metric_names(lint, names);
}

/// The inference fast path likewise declares its metric surface up front
/// (nn::infer::kInferMetricNames, recorded by DeepPredictor::run_plan).
/// Same rationale as the serve list: validate the declared contract, not
/// a registry that only fills once a model has served predictions.
void lint_infer_metric_names(Linter& lint) {
  std::vector<std::string> names;
  for (const auto name : nn::infer::kInferMetricNames) names.emplace_back(name);
  lint.expect(!names.empty(), "inference fast path declares no metrics");
  for (const auto& name : names)
    lint.expect(name.rfind("infer.", 0) == 0,
                "infer metric not under the infer. layer prefix: " + name);
  lint_metric_names(lint, names);
}

// --- Self-test: the detectors must fire on corrupted tables ------------------

/// Runs `check` against a corrupted table copy and reports whether it
/// produced at least one failure.
template <typename Fn>
bool detects(Fn&& check) {
  Linter sub(/*verbose=*/false);
  check(sub);
  return !sub.failures().empty();
}

void self_test(Linter& lint) {
  // Corrupted MCS table: swap two rows' code rates → efficiency dips.
  {
    std::vector<phy::McsEntry> mcs;
    for (int i = 0; i <= phy::kMaxMcsIndex; ++i) mcs.push_back(phy::mcs_entry(i));
    std::swap(mcs[14].code_rate, mcs[15].code_rate);
    lint.expect(detects([&](Linter& sub) { lint_mcs_table(sub, mcs); }),
                "self-test: corrupted MCS row (swapped code rates) must be detected");
  }
  // Corrupted MCS table: impossible code rate.
  {
    std::vector<phy::McsEntry> mcs;
    for (int i = 0; i <= phy::kMaxMcsIndex; ++i) mcs.push_back(phy::mcs_entry(i));
    mcs[27].code_rate = 1.02;
    lint.expect(detects([&](Linter& sub) { lint_mcs_table(sub, mcs); }),
                "self-test: MCS code rate above 948/1024 must be detected");
  }
  // Corrupted CQI table: swapped SINR thresholds.
  {
    std::vector<phy::CqiEntry> cqi;
    for (int i = 0; i <= phy::kMaxCqiIndex; ++i) cqi.push_back(phy::cqi_entry(i));
    std::swap(cqi[7].min_sinr_db, cqi[8].min_sinr_db);
    lint.expect(detects([&](Linter& sub) { lint_cqi_table(sub, cqi); }),
                "self-test: corrupted CQI thresholds must be detected");
  }
  // Corrupted small-TBS table: a non-byte-aligned entry.
  {
    std::vector<int> table(phy::small_tbs_table().begin(), phy::small_tbs_table().end());
    table[40] += 4;
    lint.expect(detects([&](Linter& sub) { lint_tbs(sub, table); }),
                "self-test: corrupted small-TBS entry must be detected");
  }
  // Corrupted band catalogue: n41 flipped to FDD at an FR2 frequency.
  {
    std::vector<phy::BandInfo> bands(phy::all_bands().begin(), phy::all_bands().end());
    for (auto& b : bands)
      if (b.name == "n41") {
        b.duplex = phy::Duplex::kFdd;
        b.center_freq_mhz = 26000.0;
      }
    lint.expect(detects([&](Linter& sub) { lint_band_catalogue(sub, bands); }),
                "self-test: corrupted n41 duplex/frequency must be detected");
  }
  // Malformed metric names: each offender must trip the naming rule.
  for (const char* bad : {"NoLayer_total", "sim.steps", "sim..steps_total",
                          "Sim.steps_total", "sim.steps_furlongs",
                          // serve-flavoured offenders: bad unit suffix,
                          // missing layer, camel-case noun.
                          "serve.shed_requests", "shed_total",
                          "serve.queueDepth_count",
                          // infer-flavoured offenders: camel-case noun,
                          // non-canonical unit, missing layer prefix.
                          "infer.planRuns_total", "infer.arena_megabytes",
                          "plan_runs_total"}) {
    lint.expect(
        detects([&](Linter& sub) { lint_metric_names(sub, {std::string(bad)}); }),
        std::string("self-test: malformed metric name must be detected: ") + bad);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool run_self_test = false;
  bool verbose = true;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--self-test") == 0) {
      run_self_test = true;
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      verbose = false;
    } else {
      std::cerr << "usage: prism5g_lint [--self-test] [--quiet]\n";
      return 2;
    }
  }

  Linter lint(verbose);

  std::vector<phy::McsEntry> mcs;
  for (int i = 0; i <= phy::kMaxMcsIndex; ++i) mcs.push_back(phy::mcs_entry(i));
  std::vector<phy::CqiEntry> cqi;
  for (int i = 0; i <= phy::kMaxCqiIndex; ++i) cqi.push_back(phy::cqi_entry(i));

  lint_mcs_table(lint, mcs);
  lint_cqi_table(lint, cqi);
  lint_link_adaptation(lint);
  lint_tbs(lint, phy::small_tbs_table());
  lint_band_catalogue(lint, phy::all_bands());
  lint_numerology(lint);
  lint_trace_schema(lint);
  // Runs last: the passes above exercised instrumented code, so the global
  // registry now holds every metric name those paths register.
  lint_metric_names(lint, obs::MetricsRegistry::global().names());
  lint_serve_metric_names(lint);
  lint_infer_metric_names(lint);
  if (run_self_test) self_test(lint);

  if (lint.failures().empty()) {
    std::cout << "prism5g_lint: " << lint.checks() << " checks passed"
              << (run_self_test ? " (incl. corruption self-test)" : "") << '\n';
    return 0;
  }
  std::cerr << "prism5g_lint: " << lint.failures().size() << " of " << lint.checks()
            << " checks FAILED\n";
  for (const auto& f : lint.failures()) std::cerr << "  " << f << '\n';
  return 1;
}

// Golden-trace and thread-count determinism tests. The repo's claim is
// that every offline-pipeline stage is a pure function of (inputs, seed)
// — the same scenario produces byte-identical traces run-to-run, and the
// parallel sweep/featurization/evaluation paths produce bit-identical
// results at any --threads value.
//
// If kGoldenUrbanDriveHash mismatches after an *intentional* change to
// the simulation or the trace CSV schema, follow the update procedure in
// docs/TESTING.md (the failure message prints the new hash).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "common/rng.hpp"
#include "core/prism5g.hpp"
#include "eval/pipeline.hpp"
#include "predictors/deep.hpp"
#include "sim/engine.hpp"
#include "sim/sweep.hpp"
#include "sim/trace_io.hpp"
#include "test_helpers.hpp"
#include "traces/dataset.hpp"

namespace {

using namespace ca5g;

// FNV-1a 64 over the canonical CSV serialization of the canned
// urban-drive scenario (tests/test_helpers.hpp, seed 2024, 5 s @ 10 ms).
constexpr std::uint64_t kGoldenUrbanDriveHash = 0x5352c5f6b6118cccULL;

TEST(GoldenTrace, UrbanDriveHashMatchesGolden) {
  const auto trace = sim::run_scenario(test::urban_drive_scenario());
  const auto hash = sim::trace_hash(trace);
  EXPECT_EQ(hash, kGoldenUrbanDriveHash)
      << "urban-drive trace bytes changed. If intentional, update "
         "kGoldenUrbanDriveHash to 0x" << std::hex << hash
      << " per the procedure in docs/TESTING.md.";
}

TEST(GoldenTrace, HashIsStableAcrossRuns) {
  const auto a = sim::run_scenario(test::urban_drive_scenario());
  const auto b = sim::run_scenario(test::urban_drive_scenario());
  EXPECT_EQ(sim::trace_hash(a), sim::trace_hash(b));
  EXPECT_EQ(a.samples.size(), b.samples.size());
}

TEST(GoldenTrace, HashIsSensitiveToSeed) {
  const auto a = sim::run_scenario(test::urban_drive_scenario(2024));
  const auto b = sim::run_scenario(test::urban_drive_scenario(2025));
  EXPECT_NE(sim::trace_hash(a), sim::trace_hash(b));
}

struct Fnv1a {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  void byte(unsigned char c) {
    h ^= c;
    h *= 0x100000001B3ULL;
  }
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(v >> (8 * i)));
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(float v) { add(std::uint64_t{std::bit_cast<std::uint32_t>(v)}); }
};

// FNV-1a 64 over the IEEE-754 bits of every double and the value of
// every integer field of every sample, CC slot and RRC event of the
// scenario matrix below. trace_hash() formats doubles at 10 significant
// digits, so it cannot see a last-bit change; this digest can. A
// refactor of the engine must keep it unchanged.
constexpr std::uint64_t kGoldenScenarioMatrixHash = 0xd376f55f60010e47ULL;

std::vector<sim::ScenarioConfig> golden_scenario_matrix() {
  std::vector<sim::ScenarioConfig> matrix;
  auto add = [&](ran::OperatorId op, radio::Environment env, sim::Mobility mobility,
                 double duration_s, double step_s) -> sim::ScenarioConfig& {
    sim::ScenarioConfig config;
    config.op = op;
    config.env = env;
    config.mobility = mobility;
    config.duration_s = duration_s;
    config.step_s = step_s;
    config.seed = 31 + matrix.size();
    matrix.push_back(config);
    return matrix.back();
  };
  using radio::Environment;
  using ran::OperatorId;
  add(OperatorId::kOpZ, Environment::kUrbanMacro, sim::Mobility::kDriving, 4.0, 0.01);
  add(OperatorId::kOpZ, Environment::kSuburbanMacro, sim::Mobility::kWalking, 3.0, 0.01);
  // Coarse steps: the CSI delay rounds to one step, a two-row history.
  add(OperatorId::kOpX, Environment::kHighway, sim::Mobility::kDriving, 10.0, 0.1);
  add(OperatorId::kOpZ, Environment::kIndoor, sim::Mobility::kWalking, 3.0, 0.01)
      .ue_indoor = true;
  // OpY's urban deployment carries FR2 (mmWave) carriers; seed 2 walks
  // the UE into their coverage.
  auto& fr2 =
      add(OperatorId::kOpY, Environment::kUrbanMacro, sim::Mobility::kWalking, 2.0, 0.01);
  fr2.cc_slots = 8;
  fr2.seed = 2;
  add(OperatorId::kOpX, Environment::kUrbanMacro, sim::Mobility::kStationary, 1.0, 0.01)
      .rat = phy::Rat::kLte;
  auto& locked =
      add(OperatorId::kOpZ, Environment::kUrbanMacro, sim::Mobility::kDriving, 3.0, 0.01);
  locked.band_lock = {phy::BandId::kN41};
  locked.start_hour = 17.5;  // the load shoulder
  return matrix;
}

void add_bit_exact(const sim::Trace& trace, Fnv1a& fnv) {
  fnv.add(static_cast<std::uint64_t>(trace.samples.size()));
  for (const auto& s : trace.samples) {
    fnv.add(s.time_s);
    fnv.add(s.hour_of_day);
    fnv.add(s.pos.x);
    fnv.add(s.pos.y);
    fnv.add(static_cast<std::uint64_t>(s.events.size()));
    for (const auto& e : s.events) {
      fnv.add(e.time_s);
      fnv.add(static_cast<std::uint64_t>(e.type));
      fnv.add(static_cast<std::uint64_t>(e.carrier));
    }
    fnv.add(static_cast<std::uint64_t>(s.ccs.size()));
    for (const auto& cc : s.ccs) {
      fnv.add(static_cast<std::uint64_t>(cc.active));
      fnv.add(static_cast<std::uint64_t>(cc.is_pcell));
      fnv.add(static_cast<std::uint64_t>(cc.carrier));
      fnv.add(static_cast<std::uint64_t>(cc.band));
      fnv.add(static_cast<std::uint64_t>(cc.bandwidth_mhz));
      fnv.add(static_cast<std::uint64_t>(cc.pci));
      fnv.add(static_cast<std::uint64_t>(cc.channel_index));
      fnv.add(cc.rsrp_dbm);
      fnv.add(cc.rsrq_db);
      fnv.add(cc.sinr_db);
      fnv.add(static_cast<std::uint64_t>(cc.cqi));
      fnv.add(static_cast<std::uint64_t>(cc.rb));
      fnv.add(static_cast<std::uint64_t>(cc.layers));
      fnv.add(static_cast<std::uint64_t>(cc.mcs));
      fnv.add(cc.bler);
      fnv.add(cc.tput_mbps);
    }
    fnv.add(s.aggregate_tput_mbps);
  }
}

TEST(GoldenTrace, BitExactScenarioMatrix) {
  Fnv1a fnv;
  std::size_t fr2_samples = 0;
  std::size_t events = 0;
  for (const auto& config : golden_scenario_matrix()) {
    const auto trace = sim::run_scenario(config);
    ASSERT_FALSE(trace.samples.empty());
    for (const auto& s : trace.samples) {
      events += s.events.size();
      for (const auto& cc : s.ccs) fr2_samples += cc.active && phy::is_mmwave(cc.band);
    }
    add_bit_exact(trace, fnv);
  }
  EXPECT_GT(fr2_samples, 0u) << "the matrix no longer exercises FR2 carriers";
  EXPECT_GT(events, 0u) << "the matrix no longer records RRC events";
  EXPECT_EQ(fnv.h, kGoldenScenarioMatrixHash)
      << "simulated values changed in some bit. If intentional, update "
         "kGoldenScenarioMatrixHash to 0x" << std::hex << fnv.h
      << " per the procedure in docs/TESTING.md.";
}

/// A double as the trace CSV prints it: an ostream at precision 10.
std::string ostream_cell(double v) {
  std::ostringstream os;
  os.precision(10);
  os << v;
  return os.str();
}

// trace_hash() streams its bytes without building the document. It must
// equal FNV-1a over the bytes a saved trace holds, and those bytes must
// print every double as an ostream at precision 10 does, the format the
// golden hashes were taken with. The last trace pads CC slots and holds
// a negative zero and values that print in exponent form.
TEST(TraceHash, EqualsHashOfCsvBytes) {
  std::vector<sim::Trace> traces;
  for (const auto& config : golden_scenario_matrix())
    traces.push_back(sim::run_scenario(config));
  auto edge = test::synthetic_trace(3);
  edge.samples[0].ccs.resize(2);  // fewer CCs than cc_slots
  edge.samples[1].pos = {-0.0, 1e-7};
  edge.samples[2].aggregate_tput_mbps = 1.5e12;
  traces.push_back(edge);

  for (std::size_t i = 0; i < traces.size(); ++i) {
    const auto& trace = traces[i];
    const auto doc = sim::trace_to_csv(trace);
    Fnv1a bytes;
    for (const char c : common::to_csv(doc)) bytes.byte(static_cast<unsigned char>(c));
    EXPECT_EQ(sim::trace_hash(trace), bytes.h) << "trace " << i;

    ASSERT_EQ(doc.rows.size(), trace.samples.size());
    for (std::size_t r = 0; r < doc.rows.size(); ++r) {
      const auto& row = doc.rows[r];
      const auto& s = trace.samples[r];
      EXPECT_EQ(row[doc.column("time_s")], ostream_cell(s.time_s));
      EXPECT_EQ(row[doc.column("hour")], ostream_cell(s.hour_of_day));
      EXPECT_EQ(row[doc.column("step_s")], ostream_cell(trace.step_s));
      EXPECT_EQ(row[doc.column("pos_x")], ostream_cell(s.pos.x));
      EXPECT_EQ(row[doc.column("pos_y")], ostream_cell(s.pos.y));
      EXPECT_EQ(row[doc.column("agg_tput_mbps")], ostream_cell(s.aggregate_tput_mbps));
      for (std::size_t slot = 0; slot < trace.cc_slots; ++slot) {
        const auto p = "cc" + std::to_string(slot) + "_";
        const sim::CcSample cc = slot < s.ccs.size() ? s.ccs[slot] : sim::CcSample{};
        EXPECT_EQ(row[doc.column(p + "rsrp")], ostream_cell(cc.rsrp_dbm));
        EXPECT_EQ(row[doc.column(p + "rsrq")], ostream_cell(cc.rsrq_db));
        EXPECT_EQ(row[doc.column(p + "sinr")], ostream_cell(cc.sinr_db));
        EXPECT_EQ(row[doc.column(p + "bler")], ostream_cell(cc.bler));
        EXPECT_EQ(row[doc.column(p + "tput")], ostream_cell(cc.tput_mbps));
      }
    }
  }

  const auto doc = sim::trace_to_csv(edge);
  EXPECT_EQ(doc.rows[1][doc.column("pos_x")], "-0");
  EXPECT_EQ(doc.rows[1][doc.column("pos_y")], "1e-07");
  EXPECT_EQ(doc.rows[2][doc.column("agg_tput_mbps")], "1.5e+12");
  EXPECT_EQ(doc.rows[0][doc.column("cc3_active")], "0");
}

TEST(RngSubstream, PureFunctionOfSeedAndId) {
  const common::Rng root(99);
  auto a = root.substream(7);
  auto b = root.substream(7);
  auto c = root.substream(8);
  EXPECT_EQ(a.next_u64(), b.next_u64());
  EXPECT_NE(a.next_u64(), c.next_u64());

  // Deriving substreams must not advance the parent: a fresh root yields
  // the same substreams in any derivation order.
  const common::Rng root2(99);
  (void)root2.substream(1000);
  EXPECT_EQ(root.substream(7).next_u64(), root2.substream(7).next_u64());
}

sim::SweepSpec small_sweep() {
  sim::SweepSpec spec;
  spec.ops = {ran::OperatorId::kOpZ, ran::OperatorId::kOpX};
  spec.mobilities = {sim::Mobility::kDriving};
  spec.ues_per_cell = 3;
  spec.duration_s = 2.0;
  spec.seed = 2024;
  return spec;
}

TEST(Sweep, EnumerationIsDeterministicWithDistinctSeeds) {
  const auto a = sim::enumerate_units(small_sweep());
  const auto b = sim::enumerate_units(small_sweep());
  ASSERT_EQ(a.size(), 6u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].index, i);
    for (std::size_t j = i + 1; j < a.size(); ++j) EXPECT_NE(a[i].seed, a[j].seed);
  }
}

TEST(Sweep, FleetHashIndependentOfThreadCount) {
  auto spec = small_sweep();
  spec.threads = 1;
  const auto serial = sim::run_sweep(spec);
  spec.threads = 4;
  const auto four = sim::run_sweep(spec);
  spec.threads = 8;
  const auto eight = sim::run_sweep(spec);

  EXPECT_EQ(serial.fleet_hash, four.fleet_hash);
  EXPECT_EQ(serial.fleet_hash, eight.fleet_hash);
  ASSERT_EQ(serial.units.size(), four.units.size());
  for (std::size_t i = 0; i < serial.units.size(); ++i) {
    EXPECT_EQ(serial.units[i].trace_hash, four.units[i].trace_hash) << i;
    EXPECT_EQ(serial.units[i].trace_hash, eight.units[i].trace_hash) << i;
    EXPECT_EQ(serial.units[i].samples, four.units[i].samples) << i;
  }
}

TEST(Sweep, KeptTracesMatchTheirHashes) {
  auto spec = small_sweep();
  spec.ues_per_cell = 1;
  spec.keep_traces = true;
  spec.threads = 2;
  const auto result = sim::run_sweep(spec);
  ASSERT_EQ(result.traces.size(), result.units.size());
  for (std::size_t i = 0; i < result.units.size(); ++i)
    EXPECT_EQ(sim::trace_hash(result.traces[i]), result.units[i].trace_hash) << i;
}

void expect_windows_equal(const traces::Dataset& a, const traces::Dataset& b) {
  ASSERT_EQ(a.windows().size(), b.windows().size());
  EXPECT_DOUBLE_EQ(a.tput_scale_mbps(), b.tput_scale_mbps());
  for (std::size_t i = 0; i < a.windows().size(); ++i) {
    const auto& wa = a.windows()[i];
    const auto& wb = b.windows()[i];
    EXPECT_EQ(wa.trace_id, wb.trace_id) << i;
    EXPECT_EQ(wa.cc_slots, wb.cc_slots) << i;
    EXPECT_EQ(wa.steps, wb.steps) << i;
    EXPECT_EQ(wa.target, wb.target) << i;
    EXPECT_EQ(wa.cc_target, wb.cc_target) << i;
  }
}

// FNV-1a 64 over every window value of golden_window_dataset() in the
// canonical order below. It pins featurization and the window layout
// together: a storage change that keeps every value must keep the hash.
// Its value was taken on the double layout with each history value
// rounded to float at hashing time, so it also shows that every stored
// float is the double feature rounded once.
constexpr std::uint64_t kGoldenWindowFloatHash = 0xfb9130f5cc3e021aULL;

traces::Dataset golden_window_dataset() {
  std::vector<sim::Trace> list = {test::synthetic_trace(150, 0.0),
                                  test::synthetic_trace(150, 17.0),
                                  test::synthetic_trace(150, 45.0)};
  // Samples reporting fewer CCs than cc_slots are padded with inactive slots.
  for (auto& s : list[2].samples) s.ccs.resize(2);
  traces::DatasetSpec spec;
  spec.stride = 1;
  return traces::Dataset::from_traces(list, spec);
}

// Canonical order: per history step t, per CC c the 13 features then
// mask[c]; then the globals and the aggregate; then the targets, the
// per-CC targets (h-major) and the trace id. History values are folded
// as float bits, targets as double bits.
std::uint64_t window_hash(const traces::Dataset& ds) {
  Fnv1a fnv;
  for (const auto& w : ds.windows()) {
    for (std::size_t t = 0; t < w.history(); ++t) {
      for (std::size_t c = 0; c < ds.cc_slots(); ++c) {
        for (float v : w.cc(t, c)) fnv.add(v);
        fnv.add(w.mask(t, c));
      }
      for (std::size_t g = 0; g < traces::kGlobalFeatureDim; ++g) fnv.add(w.global(t, g));
      fnv.add(w.agg(t));
    }
    for (double v : w.target) fnv.add(v);
    for (std::size_t h = 0; h < w.target.size(); ++h)
      for (std::size_t c = 0; c < ds.cc_slots(); ++c) fnv.add(w.cc_target_at(h, c));
    fnv.add(static_cast<std::uint64_t>(w.trace_id));
  }
  return fnv.h;
}

TEST(GoldenWindow, FloatValueHashMatchesGolden) {
  const auto ds = golden_window_dataset();
  ASSERT_EQ(ds.windows().size(), 3u * (150u - 20u + 1u));
  const auto hash = window_hash(ds);
  EXPECT_EQ(hash, kGoldenWindowFloatHash)
      << "window values changed. If intentional, update kGoldenWindowFloatHash to 0x"
      << std::hex << hash << " per the procedure in docs/TESTING.md.";
}

// FNV-1a 64 over the IEEE-754 bits of every trainable parameter after a
// seeded fit, then every predicted horizon value, for each deep model
// of golden_models() in order. Nothing else pins trained weights: a
// kernel refactor of src/nn must keep this digest unchanged.
constexpr std::uint64_t kGoldenTrainedModelHash = 0x835d6350e3bc6136ULL;

std::vector<std::unique_ptr<predictors::DeepPredictor>> golden_models() {
  predictors::TrainConfig train;
  train.epochs = 3;
  // 4·12 = 48 gate columns and a 12-wide hidden state: the matmuls hit
  // both full column tiles and column tails.
  train.hidden = 12;
  train.layers = 2;
  train.batch_size = 8;
  train.patience = 2;
  predictors::TrainConfig single = train;
  single.layers = 1;

  std::vector<std::unique_ptr<predictors::DeepPredictor>> models;
  models.push_back(std::make_unique<predictors::LstmPredictor>(train));
  models.push_back(std::make_unique<predictors::TcnPredictor>(train));
  models.push_back(std::make_unique<predictors::Lumos5gPredictor>(single));
  models.push_back(std::make_unique<core::Prism5G>(single));
  models.push_back(std::make_unique<core::Prism5G>(single, core::Prism5G::Variant::kNoState));
  models.push_back(std::make_unique<core::Prism5G>(single, core::Prism5G::Variant::kNoFusion));
  return models;
}

/// Fold a trained model's weights into `fnv`: per trainable tensor, in
/// trainable_parameters() order, its rows·cols and then every value's
/// float32 bits.
void add_parameters(predictors::DeepPredictor& model, Fnv1a& fnv) {
  for (const auto& p : model.trainable_parameters()) {
    fnv.add(static_cast<std::uint64_t>(p.rows() * p.cols()));
    for (const float v : p.values())
      fnv.add(static_cast<std::uint64_t>(std::bit_cast<std::uint32_t>(v)));
  }
}

TEST(GoldenModel, TrainedWeightsBitExact) {
  const auto ds = test::synthetic_dataset(2, 400);
  common::Rng rng(41);
  const auto split = ds.random_split(0.5, 0.2, rng);

  Fnv1a fnv;
  for (auto& model : golden_models()) {
    model->fit(ds, split.train, split.val);
    add_parameters(*model, fnv);
    for (const auto& horizon : model->predict_many(split.test))
      for (double v : horizon) fnv.add(v);
  }
  EXPECT_EQ(fnv.h, kGoldenTrainedModelHash)
      << "trained weights or predictions changed. If intentional, update "
         "kGoldenTrainedModelHash to 0x"
      << std::hex << fnv.h << " per the procedure in docs/TESTING.md.";
}

TEST(Dataset, ParallelFeaturizationMatchesSerial) {
  std::vector<sim::Trace> list = {test::synthetic_trace(200, 0.0),
                                  test::synthetic_trace(200, 31.0)};
  traces::DatasetSpec spec;
  spec.stride = 2;
  const auto serial = traces::Dataset::from_traces(list, spec, /*threads=*/1);
  const auto pooled = traces::Dataset::from_traces(list, spec, /*threads=*/4);
  expect_windows_equal(serial, pooled);
}

TEST(EvalPipeline, ParallelTraceGenerationMatchesSerial) {
  auto gen = test::tiny_generation();
  const eval::SubDatasetId id{ran::OperatorId::kOpY, sim::Mobility::kDriving};

  gen.threads = 1;
  const auto serial = eval::generate_traces(id, eval::TimeScale::kShort, gen);
  gen.threads = 4;
  const auto pooled = eval::generate_traces(id, eval::TimeScale::kShort, gen);

  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(sim::trace_hash(serial[i]), sim::trace_hash(pooled[i])) << i;
}

}  // namespace

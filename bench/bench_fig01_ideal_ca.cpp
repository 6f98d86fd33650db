// Fig. 1 / Fig. 23: achievable 4G and 5G throughput under the ideal
// channel condition (stationary, line-of-sight), showing how each added
// component carrier boosts the aggregate, for all three operators.
#include "bench_util.hpp"

#include "ue/capability.hpp"

namespace {

using namespace ca5g;

/// Average per-slot and aggregate throughput over a stationary run,
/// parked in line-of-sight of the operator's richest CA site.
/// `fr1_only` locks out mmWave to show the FR1 C-band CA row.
void report_operator(ran::OperatorId op, phy::Rat rat, common::TextTable& table,
                     bool fr1_only = false) {
  sim::ScenarioConfig config;
  config.op = op;
  config.rat = rat;
  config.mobility = sim::Mobility::kStationary;
  config.duration_s = bench::fast_mode() ? 10.0 : 40.0;
  config.cc_slots = rat == phy::Rat::kLte ? 5 : 8;
  config.seed = 1200 + static_cast<std::uint64_t>(op) * 17 +
                (rat == phy::Rat::kNr ? 1 : 0);
  ran::DeploymentParams dep_params;
  dep_params.seed = config.seed * 977 + 13;
  const auto dep = ran::make_deployment(op, config.env, dep_params);

  if (fr1_only) {
    for (const auto& band : phy::all_bands())
      if (band.rat == phy::Rat::kNr && band.range != phy::BandRange::kHigh)
        config.band_lock.push_back(band.id);
  }
  // Park next to the site with the most usable carriers of this RAT.
  const auto& hot_site = dep.sites[ran::best_ca_site(dep, rat, config.band_lock)];
  config.stationary_position =
      radio::Position{hot_site.pos.x + 60.0, hot_site.pos.y + 25.0};
  sim::SimulationEngine engine(dep, config);
  const auto trace = engine.run();

  std::string label = rat == phy::Rat::kNr ? "5G" : "4G";
  if (fr1_only) label += "-FR1";
  std::vector<std::string> row{ran::operator_name(op), label};
  double total = 0.0;
  std::size_t max_ccs = 0;
  for (std::size_t slot = 0; slot < config.cc_slots; ++slot) {
    const double cc_mean = common::mean(trace.cc_series(slot));
    if (cc_mean > 0.5) max_ccs = slot + 1;
    total += cc_mean;
  }
  for (std::size_t slot = 0; slot < 8; ++slot) {
    if (slot < config.cc_slots) {
      const double cc_mean = common::mean(trace.cc_series(slot));
      row.push_back(cc_mean > 0.5 ? common::TextTable::num(cc_mean, 0) : "-");
    } else {
      row.push_back("-");
    }
  }
  const auto agg = trace.aggregate_series();
  row.push_back(std::to_string(max_ccs));
  row.push_back(common::TextTable::num(common::mean(agg), 0));
  row.push_back(common::TextTable::num(common::percentile(agg, 99.5), 0));
  table.add_row(std::move(row));
}

}  // namespace

int main() {
  bench::banner("Fig. 1 / Fig. 23",
                "CA boosts 4G and 5G throughput under ideal channel conditions "
                "(per-CC mean contributions, Mbps)");

  common::TextTable table("Ideal-condition throughput by operator (Mbps)");
  table.set_header({"Oper.", "RAT", "CC1", "CC2", "CC3", "CC4", "CC5", "CC6", "CC7",
                    "CC8", "#CC", "AggMean", "AggPeak"});
  for (auto op : {ran::OperatorId::kOpX, ran::OperatorId::kOpY, ran::OperatorId::kOpZ}) {
    report_operator(op, phy::Rat::kLte, table);
    if (op != ran::OperatorId::kOpZ)
      report_operator(op, phy::Rat::kNr, table, /*fr1_only=*/true);
    report_operator(op, phy::Rat::kNr, table);
  }
  std::cout << table << "\n";

  std::cout << "Paper anchors: OpZ 5G 4CC FR1 peak ≈ 1.7 Gbps; OpX/OpY C-band CA\n"
            << "averages 1.3/1.6 Gbps; 4G CA reaches ≈ 100-300 Mbps.\n";
  return 0;
}

// Reproduces Fig. 6: the shifts/latency/energy/area trade-off of the best
// configuration (DMA-SR) as the DBC count grows from 2 to 16. The paper
// plots normalized improvements; we print absolute suite totals plus the
// 2-DBC-normalized improvement factors. Shapes to check (paper SIV-C):
//   * area rises steadily with DBC count (ports dominate footprint);
//   * shift and latency improvements saturate at higher DBC counts;
//   * 2-DBC loses on energy (shift energy dominates) and 16-DBC consumes
//     more than the 4/8-DBC sweet spot (leakage dominates).
#include "destiny/device_model.h"
#include "harness/scenarios/scenarios.h"
#include "util/stats.h"

namespace rtmp::benchtool::scenarios {

namespace {

void Run(ScenarioContext& ctx) {
  using namespace rtmp;

  ctx.Print("== Fig. 6: DMA-SR across 2/4/8/16 DBCs ==\n\n");
  ctx.PrintEffortNote();

  sim::ExperimentOptions options;
  options.strategies = {"dma-sr"};
  ctx.Configure(options);  // effort, threads, progress
  const auto suite = offsetstone::GenerateSuite();
  const auto results = RunMatrix(suite, options);
  ctx.AddCells(results);
  const sim::ResultTable table(results);
  const auto names = SuiteNames();
  const std::string& strategy = options.strategies[0];

  double shifts[4] = {};
  double runtime[4] = {};
  double energy[4] = {};
  double area[4] = {};
  for (std::size_t i = 0; i < options.dbc_counts.size(); ++i) {
    const unsigned dbcs = options.dbc_counts[i];
    for (const auto& name : names) {
      const auto& m = table.At(name, dbcs, strategy);
      shifts[i] += static_cast<double>(m.shifts);
      runtime[i] += m.runtime_ns;
      energy[i] += m.total_energy_pj();
    }
    area[i] = destiny::PaperTableOne(dbcs).area_mm2;
  }

  util::TextTable out;
  out.SetHeader({"metric", "2 DBCs", "4 DBCs", "8 DBCs", "16 DBCs"});
  out.SetAlignments({util::Align::kLeft, util::Align::kRight,
                     util::Align::kRight, util::Align::kRight,
                     util::Align::kRight});
  auto add_metric = [&out](const char* label, const double* values,
                           int digits) {
    std::vector<std::string> cells{label};
    for (int i = 0; i < 4; ++i) {
      cells.push_back(util::FormatFixed(values[i], digits));
    }
    out.AddRow(std::move(cells));
  };
  const double shifts_k[] = {shifts[0] / 1e3, shifts[1] / 1e3,
                             shifts[2] / 1e3, shifts[3] / 1e3};
  const double runtime_us[] = {runtime[0] / 1e3, runtime[1] / 1e3,
                               runtime[2] / 1e3, runtime[3] / 1e3};
  const double energy_nj[] = {energy[0] / 1e3, energy[1] / 1e3,
                              energy[2] / 1e3, energy[3] / 1e3};
  add_metric("total shifts (k)", shifts_k, 1);
  add_metric("runtime (us)", runtime_us, 1);
  add_metric("energy (nJ)", energy_nj, 1);
  add_metric("area (mm^2)", area, 4);
  out.AddRule();
  // Fig. 6 style: improvement relative to the 2-DBC configuration
  // (x-axis of the figure; >1 means better than 2 DBCs, area is a cost).
  const double shift_norm[] = {1.0, shifts[0] / shifts[1],
                               shifts[0] / shifts[2], shifts[0] / shifts[3]};
  const double lat_norm[] = {1.0, runtime[0] / runtime[1],
                             runtime[0] / runtime[2], runtime[0] / runtime[3]};
  const double energy_norm[] = {1.0, energy[0] / energy[1],
                                energy[0] / energy[2], energy[0] / energy[3]};
  const double area_norm[] = {1.0, area[1] / area[0], area[2] / area[0],
                              area[3] / area[0]};
  add_metric("shift improvement (vs 2 DBCs)", shift_norm, 2);
  add_metric("latency improvement (vs 2 DBCs)", lat_norm, 2);
  add_metric("energy improvement (vs 2 DBCs)", energy_norm, 2);
  add_metric("area overhead (vs 2 DBCs)", area_norm, 2);
  ctx.PrintTable(out);

  for (std::size_t i = 0; i < options.dbc_counts.size(); ++i) {
    const std::string dbc_tag = std::to_string(options.dbc_counts[i]) + "dbc";
    ctx.Scalar("fig6/total_shifts/" + dbc_tag, shifts[i]);
    ctx.Scalar("fig6/shift_improvement_vs_2dbc/" + dbc_tag, shift_norm[i],
               "x");
    ctx.Scalar("fig6/latency_improvement_vs_2dbc/" + dbc_tag, lat_norm[i],
               "x");
    ctx.Scalar("fig6/energy_improvement_vs_2dbc/" + dbc_tag, energy_norm[i],
               "x");
    ctx.Scalar("fig6/area_overhead_vs_2dbc/" + dbc_tag, area_norm[i], "x");
  }

  ctx.Print("\n-- shape checks --\n");
  const bool area_rises = area[0] < area[1] && area[1] < area[2] &&
                          area[2] < area[3];
  // Saturation in the paper's sense: each doubling of the DBC count buys a
  // smaller RELATIVE shift improvement than the previous one.
  const bool improvement_saturates =
      shift_norm[1] / shift_norm[0] > shift_norm[3] / shift_norm[2];
  const bool two_dbc_not_competitive =
      energy[0] > energy[1] && energy[0] > energy[2];
  const bool sixteen_worse_than_mid =
      energy[3] > energy[1] || energy[3] > energy[2];
  ctx.Check("area rises with DBC count", area_rises);
  ctx.Check("shift improvement saturates", improvement_saturates);
  ctx.Check("2-DBC RTM is not competitive on energy", two_dbc_not_competitive);
  ctx.Check("16-DBC consumes more energy than a 4- or 8-DBC RTM",
            sixteen_worse_than_mid);
}

}  // namespace

void RegisterFig6DbcTradeoff(ScenarioRegistry& registry) {
  registry.Register({"fig6_dbc_tradeoff",
                     "Fig. 6: DMA-SR trade-offs across 2/4/8/16 DBCs",
                     /*uses_search=*/false, Run});
}

}  // namespace rtmp::benchtool::scenarios

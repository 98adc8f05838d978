// Reproduces the headline numbers (abstract / SVI): averaged over all
// benchmarks and all DBC configurations, the generalized placement improves
//   * shifts  by 4.3x,
//   * latency by 46 %,
//   * energy  by 55 %
// over the state of the art (AFD-OFU). "Our approach" here is the best
// performing configuration, DMA-SR, matching the paper's summary.
#include "harness/scenarios/scenarios.h"
#include "util/stats.h"

namespace rtmp::benchtool::scenarios {

namespace {

void Run(ScenarioContext& ctx) {
  using namespace rtmp;

  ctx.Print("== Headline: average improvement over the state of the art "
            "==\n\n");
  ctx.PrintEffortNote();

  sim::ExperimentOptions options;
  options.strategies = {"afd-ofu", "dma-sr"};
  ctx.Configure(options);  // effort, threads, progress
  const auto suite = offsetstone::GenerateSuite();
  const auto results = RunMatrix(suite, options);
  ctx.AddCells(results);
  const sim::ResultTable table(results);
  const auto names = SuiteNames();
  const auto& baseline = options.strategies[0];
  const auto& ours = options.strategies[1];

  // Shift improvement: geomean over benchmarks, then averaged over DBC
  // configurations (matching the paper's "average ... across all
  // benchmarks and all configurations").
  std::vector<double> shift_factors;
  std::vector<double> latency_reductions;
  std::vector<double> energy_reductions;
  for (const unsigned dbcs : options.dbc_counts) {
    shift_factors.push_back(
        GeoMeanImprovement(table, names, dbcs, ours, baseline));
    std::vector<double> lat;
    std::vector<double> en;
    for (const auto& name : names) {
      const auto& base = table.At(name, dbcs, baseline);
      const auto& dma = table.At(name, dbcs, ours);
      if (base.runtime_ns > 0.0) {
        lat.push_back(100.0 * (1.0 - dma.runtime_ns / base.runtime_ns));
      }
      if (base.total_energy_pj() > 0.0) {
        en.push_back(100.0 *
                     (1.0 - dma.total_energy_pj() / base.total_energy_pj()));
      }
    }
    latency_reductions.push_back(util::Mean(lat));
    energy_reductions.push_back(util::Mean(en));
  }

  const double shift_x = util::Mean(shift_factors);
  const double latency_pct = util::Mean(latency_reductions);
  const double energy_pct = util::Mean(energy_reductions);
  ctx.Scalar("headline/shift_improvement", shift_x, "x");
  ctx.Scalar("headline/latency_reduction", latency_pct, "%");
  ctx.Scalar("headline/energy_reduction", energy_pct, "%");
  for (std::size_t i = 0; i < options.dbc_counts.size(); ++i) {
    const std::string dbc_tag = std::to_string(options.dbc_counts[i]) + "dbc";
    ctx.Scalar("headline/shift_improvement/" + dbc_tag, shift_factors[i],
               "x");
    ctx.Scalar("headline/latency_reduction/" + dbc_tag,
               latency_reductions[i], "%");
    ctx.Scalar("headline/energy_reduction/" + dbc_tag, energy_reductions[i],
               "%");
  }

  util::TextTable out;
  out.SetHeader({"metric", "paper", "measured", "per-DBC detail (2/4/8/16)"});
  out.SetAlignments({util::Align::kLeft, util::Align::kRight,
                     util::Align::kRight, util::Align::kLeft});
  auto detail = [](const std::vector<double>& values, int digits,
                   const char* suffix) {
    std::string s;
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i) s += " / ";
      s += util::FormatFixed(values[i], digits);
    }
    return s + suffix;
  };
  out.AddRow({"shifts", "4.3x", util::FormatFixed(shift_x, 2) + "x",
              detail(shift_factors, 2, "x")});
  out.AddRow({"latency", "46 %", util::FormatFixed(latency_pct, 1) + " %",
              detail(latency_reductions, 1, " %")});
  out.AddRow({"energy", "55 %", util::FormatFixed(energy_pct, 1) + " %",
              detail(energy_reductions, 1, " %")});
  ctx.PrintTable(out);

  ctx.Print("\nNote: absolute factors depend on the synthesized traces "
            "(offsetstone/suite.h);\nthe reproduction target is the shape — "
            "multi-x shift reduction, double-digit\npercentage latency and "
            "energy gains, largest at low DBC counts.\n");
}

}  // namespace

void RegisterHeadlineSummary(ScenarioRegistry& registry) {
  registry.Register({"headline_summary",
                     "Headline: average improvement over the state of the art",
                     /*uses_search=*/false, Run});
}

}  // namespace rtmp::benchtool::scenarios

// Reproduces the Section IV-C in-text latency results: RTM access latency
// improvement over AFD-OFU (runtime reduction, %), averaged over the suite:
//   DMA-OFU:  50.3 / 50.5 / 33.1 / 10.4 %   for 2/4/8/16 DBCs
//   DMA-Chen: 68.1 / 60.1 / 36.5 / 13.4 %
//   DMA-SR:   70.1 / 62.0 / 37.7 / 14.6 %
// The gain stems from the shift reduction; the shape to check is that the
// ordering (SR >= Chen >= OFU) holds and the gain shrinks with DBC count.
#include "harness/scenarios/scenarios.h"
#include "util/stats.h"

namespace rtmp::benchtool::scenarios {

namespace {

void Run(ScenarioContext& ctx) {
  using namespace rtmp;

  ctx.Print("== SIV-C: access latency improvement over AFD-OFU ==\n\n");
  ctx.PrintEffortNote();

  sim::ExperimentOptions options;
  // Latency only needs the heuristics; skip GA/RW for speed.
  options.strategies = {"afd-ofu", "dma-ofu", "dma-chen", "dma-sr"};
  ctx.Configure(options);  // effort, threads, progress
  const auto suite = offsetstone::GenerateSuite();
  const auto results = RunMatrix(suite, options);
  ctx.AddCells(results);
  const sim::ResultTable table(results);
  const auto names = SuiteNames();

  const std::string& baseline = options.strategies[0];
  const struct {
    const char* label;
    std::string strategy;
    double paper[4];
  } rows[] = {
      {"DMA-OFU", options.strategies[1], {50.3, 50.5, 33.1, 10.4}},
      {"DMA-Chen", options.strategies[2], {68.1, 60.1, 36.5, 13.4}},
      {"DMA-SR", options.strategies[3], {70.1, 62.0, 37.7, 14.6}},
  };

  util::TextTable out;
  out.SetHeader({"latency gain [%] (paper / measured)", "2 DBCs", "4 DBCs",
                 "8 DBCs", "16 DBCs"});
  out.SetAlignments({util::Align::kLeft, util::Align::kRight,
                     util::Align::kRight, util::Align::kRight,
                     util::Align::kRight});
  double measured[3][4] = {};
  for (std::size_t r = 0; r < std::size(rows); ++r) {
    std::vector<std::string> cells{rows[r].label};
    for (std::size_t i = 0; i < options.dbc_counts.size(); ++i) {
      const unsigned dbcs = options.dbc_counts[i];
      // Mean over benchmarks of the per-benchmark runtime reduction.
      std::vector<double> reductions;
      for (const auto& name : names) {
        const double base = table.At(name, dbcs, baseline).runtime_ns;
        const double ours = table.At(name, dbcs, rows[r].strategy).runtime_ns;
        if (base > 0.0) reductions.push_back(100.0 * (1.0 - ours / base));
      }
      measured[r][i] = util::Mean(reductions);
      ctx.Scalar("sec4c/latency_gain_pct/" + std::string(rows[r].label) +
                     "/" + std::to_string(dbcs) + "dbc",
                 measured[r][i], "%");
      cells.push_back(PaperVsMeasured(rows[r].paper[i], measured[r][i], 1));
    }
    out.AddRow(std::move(cells));
  }
  ctx.PrintTable(out);

  ctx.Print("\n-- shape checks --\n");
  bool ordering = true;
  bool shrinking = true;
  for (std::size_t i = 0; i < 4; ++i) {
    ordering = ordering && measured[2][i] >= measured[1][i] - 1.0 &&
               measured[1][i] >= measured[0][i] - 1.0;
  }
  shrinking = measured[0][0] > measured[0][3] &&
              measured[2][0] > measured[2][3];
  ctx.Check("DMA-SR >= DMA-Chen >= DMA-OFU (within 1%)", ordering);
  ctx.Check("gain shrinks from 2 to 16 DBCs", shrinking);
}

}  // namespace

void RegisterSec4cLatency(ScenarioRegistry& registry) {
  registry.Register({"sec4c_latency",
                     "SIV-C: access latency improvement over AFD-OFU",
                     /*uses_search=*/false, Run});
}

}  // namespace rtmp::benchtool::scenarios

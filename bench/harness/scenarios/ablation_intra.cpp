// The interplay of inter- and intra-DBC placement (paper contribution 3):
// the full cross product of inter policies (AFD, DMA, DMA2) and intra
// policies (OFU, Chen, SR, GE) over the suite, per DBC count. The paper's
// claim to check: the DMA distribution "provides a promising base for the
// Chen and ShiftsReduce heuristics" — i.e. intra optimization helps BOTH
// inter policies, DMA dominates for every intra choice, and the intra gain
// shrinks as DBCs increase (sparser DBCs leave less to reorder).
#include "core/intra_heuristics.h"
#include "harness/scenarios/scenarios.h"
#include "util/stats.h"

namespace rtmp::benchtool::scenarios {

namespace {

void Run(ScenarioContext& ctx) {
  using namespace rtmp;

  ctx.Print("== Interplay: inter policy x intra policy (geomean shifts "
            "normalized to afd-ofu) ==\n\n");
  ctx.PrintEffortNote();

  sim::ExperimentOptions options;
  options.strategies.clear();
  const char* families[] = {"afd", "dma", "dma2"};
  const core::IntraHeuristic intras[] = {
      core::IntraHeuristic::kOfu, core::IntraHeuristic::kChen,
      core::IntraHeuristic::kShiftsReduce, core::IntraHeuristic::kGreedyEdge};
  for (const char* family : families) {
    for (const auto intra : intras) {
      options.strategies.push_back(std::string(family) + "-" +
                                   std::string(core::ToString(intra)));
    }
  }
  ctx.Configure(options);  // effort, threads, progress
  const auto suite = offsetstone::GenerateSuite();
  const auto results = RunMatrix(suite, options);
  ctx.AddCells(results);
  const sim::ResultTable table(results);
  const auto names = SuiteNames();

  double dma_sr_gain[4] = {};
  double afd_sr_gain[4] = {};
  for (std::size_t i = 0; i < options.dbc_counts.size(); ++i) {
    const unsigned dbcs = options.dbc_counts[i];
    ctx.Print("-- %u DBCs --\n", dbcs);
    util::TextTable out;
    out.SetHeader({"inter \\ intra", "ofu", "chen", "sr", "ge"});
    out.SetAlignments({util::Align::kLeft, util::Align::kRight,
                       util::Align::kRight, util::Align::kRight,
                       util::Align::kRight});
    for (std::size_t f = 0; f < std::size(families); ++f) {
      std::vector<std::string> row{families[f]};
      for (std::size_t j = 0; j < std::size(intras); ++j) {
        const std::string& strategy =
            options.strategies[f * std::size(intras) + j];
        const double g =
            util::GeoMean(table.NormalizedShifts(names, dbcs, strategy,
                                                 "afd-ofu"));
        row.push_back(util::FormatFixed(g, 2));
        ctx.Scalar("ablation_intra/norm_shifts/" + strategy + "/" +
                       std::to_string(dbcs) + "dbc",
                   g);
        if (strategy == "dma-sr") dma_sr_gain[i] = g;
        if (strategy == "afd-sr") afd_sr_gain[i] = g;
      }
      out.AddRow(std::move(row));
    }
    ctx.PrintTable(out);
    ctx.Print("\n");
  }

  ctx.Print("-- shape checks --\n");
  bool dma_dominates = true;
  for (std::size_t i = 0; i < 4; ++i) {
    dma_dominates = dma_dominates && dma_sr_gain[i] <= afd_sr_gain[i] + 0.02;
  }
  ctx.Check("DMA base never loses to AFD base under SR", dma_dominates);
  ctx.Print("(smaller is better; every column is normalized to afd-ofu "
            "= 1.00)\n");
}

}  // namespace

void RegisterAblationIntra(ScenarioRegistry& registry) {
  registry.Register({"ablation_intra",
                     "Interplay of inter and intra policies over the suite",
                     /*uses_search=*/false, Run});
}

}  // namespace rtmp::benchtool::scenarios

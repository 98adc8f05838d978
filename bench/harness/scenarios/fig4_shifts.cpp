// Reproduces Fig. 4: shift cost of every placement solution on the
// OffsetStone-lite suite, normalized to the genetic algorithm, for
// 2/4/8/16-DBC RTMs — plus the in-text geometric-mean improvements:
//   DMA-OFU over AFD-OFU:   2.4x / 2.9x / 2.8x / 1.7x   (2/4/8/16 DBCs)
//   DMA-Chen over DMA-OFU:  1.8x / 1.6x / 1.3x / 1.4x
//   DMA-SR  over DMA-OFU:   2.0x / 1.8x / 1.5x / 1.6x
// Absolute factors depend on the (synthesized) traces; the shape to check
// is: every DMA variant beats AFD-OFU, DMA-SR <= DMA-Chen <= DMA-OFU, the
// advantage shrinks as DBCs increase, and GA lower-bounds everything.
#include "harness/scenarios/scenarios.h"
#include "util/stats.h"

namespace rtmp::benchtool::scenarios {

namespace {

void Run(ScenarioContext& ctx) {
  using namespace rtmp;

  ctx.Print("== Fig. 4: shifts normalized to GA, OffsetStone-lite suite "
            "==\n\n");
  ctx.PrintEffortNote();

  sim::ExperimentOptions options;
  ctx.Configure(options);  // effort, threads, progress
  const auto suite = offsetstone::GenerateSuite();
  const auto results = RunMatrix(suite, options);
  ctx.AddCells(results);
  const sim::ResultTable table(results);
  const auto names = SuiteNames();

  const std::string columns[] = {"afd-ofu", "dma-ofu", "dma-chen", "dma-sr",
                                 "rw"};

  for (const unsigned dbcs : options.dbc_counts) {
    ctx.Print("-- %u DBCs (cost normalized to GA; GA = 1.00) --\n", dbcs);
    util::TextTable bench_table;
    bench_table.SetHeader({"benchmark", "afd-ofu", "dma-ofu", "dma-chen",
                           "dma-sr", "rw"});
    bench_table.SetAlignments(
        {util::Align::kLeft, util::Align::kRight, util::Align::kRight,
         util::Align::kRight, util::Align::kRight, util::Align::kRight});
    for (const auto& name : names) {
      std::vector<std::string> row{name};
      for (const auto& column : columns) {
        const auto normalized =
            table.NormalizedShifts({name}, dbcs, column, "ga");
        row.push_back(util::FormatFixed(normalized.front(), 2));
      }
      bench_table.AddRow(std::move(row));
    }
    bench_table.AddRule();
    std::vector<std::string> geo{"geomean"};
    for (const auto& column : columns) {
      const auto normalized = table.NormalizedShifts(names, dbcs, column, "ga");
      const double geomean = util::GeoMean(normalized);
      geo.push_back(util::FormatFixed(geomean, 2));
      ctx.Scalar("fig4/geomean_vs_ga/" + column + "/" + std::to_string(dbcs) +
                     "dbc",
                 geomean);
    }
    bench_table.AddRow(std::move(geo));
    ctx.PrintTable(bench_table);
    ctx.Print("\n");
  }

  // The in-text geomean improvements, paper vs measured.
  ctx.Print("-- geometric-mean shift improvements (paper / measured) --\n");
  const double paper_dma_over_afd[] = {2.4, 2.9, 2.8, 1.7};
  const double paper_chen_over_dma[] = {1.8, 1.6, 1.3, 1.4};
  const double paper_sr_over_dma[] = {2.0, 1.8, 1.5, 1.6};
  util::TextTable summary;
  summary.SetHeader({"improvement", "2 DBCs", "4 DBCs", "8 DBCs", "16 DBCs"});
  summary.SetAlignments({util::Align::kLeft, util::Align::kRight,
                         util::Align::kRight, util::Align::kRight,
                         util::Align::kRight});
  std::vector<std::string> row1{"DMA-OFU over AFD-OFU"};
  std::vector<std::string> row2{"DMA-Chen over DMA-OFU"};
  std::vector<std::string> row3{"DMA-SR over DMA-OFU"};
  for (std::size_t i = 0; i < options.dbc_counts.size(); ++i) {
    const unsigned dbcs = options.dbc_counts[i];
    const std::string dbc_tag = std::to_string(dbcs) + "dbc";
    const double dma_over_afd =
        GeoMeanImprovement(table, names, dbcs, "dma-ofu", "afd-ofu");
    const double chen_over_dma =
        GeoMeanImprovement(table, names, dbcs, "dma-chen", "dma-ofu");
    const double sr_over_dma =
        GeoMeanImprovement(table, names, dbcs, "dma-sr", "dma-ofu");
    ctx.Scalar("fig4/dma_ofu_over_afd_ofu/" + dbc_tag, dma_over_afd, "x");
    ctx.Scalar("fig4/dma_chen_over_dma_ofu/" + dbc_tag, chen_over_dma, "x");
    ctx.Scalar("fig4/dma_sr_over_dma_ofu/" + dbc_tag, sr_over_dma, "x");
    row1.push_back(PaperVsMeasured(paper_dma_over_afd[i], dma_over_afd));
    row2.push_back(PaperVsMeasured(paper_chen_over_dma[i], chen_over_dma));
    row3.push_back(PaperVsMeasured(paper_sr_over_dma[i], sr_over_dma));
  }
  summary.AddRow(std::move(row1));
  summary.AddRow(std::move(row2));
  summary.AddRow(std::move(row3));
  ctx.PrintTable(summary);

  // Shape checks the figure's discussion calls out.
  ctx.Print("\n-- shape checks --\n");
  bool dma_beats_afd = true;
  for (const unsigned dbcs : options.dbc_counts) {
    dma_beats_afd = dma_beats_afd &&
                    GeoMeanImprovement(table, names, dbcs, "dma-ofu",
                                       "afd-ofu") >= 1.0;
  }
  const double gain_2 =
      GeoMeanImprovement(table, names, 2, "dma-ofu", "afd-ofu");
  const double gain_16 =
      GeoMeanImprovement(table, names, 16, "dma-ofu", "afd-ofu");
  ctx.Check("DMA-OFU >= AFD-OFU on geomean for every DBC count",
            dma_beats_afd);
  ctx.Print("improvement shrinks with more DBCs (2-DBC %.2fx vs 16-DBC "
            "%.2fx): %s (paper: 2.4x -> 1.7x)\n",
            gain_2, gain_16, gain_2 > gain_16 ? "yes" : "NO");
  ctx.RecordCheck("improvement shrinks with more DBCs", gain_2 > gain_16);
}

}  // namespace

void RegisterFig4Shifts(ScenarioRegistry& registry) {
  registry.Register({"fig4_shifts",
                     "Fig. 4: shifts of every solution, normalized to GA",
                     /*uses_search=*/true, Run});
}

}  // namespace rtmp::benchtool::scenarios

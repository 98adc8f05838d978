// Reproduces Fig. 5: total energy (leakage + read/write + shift) of
// AFD-OFU, DMA-OFU and DMA-SR, normalized to AFD-OFU, per DBC count; with
// the in-text total reductions:
//   DMA-OFU: 61 / 62 / 44 / 13 %  (2/4/8/16 DBCs)
//   DMA-SR:  77 / 70 / 50 / 21 %
// Shapes to check: the shift-energy share shrinks and the leakage share
// grows with DBC count; the leakage term also drops for DMA because the
// runtime drops (paper's observation (3)).
#include "harness/scenarios/scenarios.h"
#include "util/stats.h"

namespace rtmp::benchtool::scenarios {

namespace {

void Run(ScenarioContext& ctx) {
  using namespace rtmp;

  ctx.Print("== Fig. 5: energy breakdown normalized to AFD-OFU ==\n\n");
  ctx.PrintEffortNote();

  sim::ExperimentOptions options;
  options.strategies = {"afd-ofu", "dma-ofu", "dma-sr"};
  ctx.Configure(options);  // effort, threads, progress
  const auto suite = offsetstone::GenerateSuite();
  const auto results = RunMatrix(suite, options);
  ctx.AddCells(results);
  const sim::ResultTable table(results);
  const auto names = SuiteNames();

  const char* labels[] = {"AFD-OFU", "DMA-OFU", "DMA-SR"};
  const double paper_reduction[3][4] = {
      {0, 0, 0, 0}, {61, 62, 44, 13}, {77, 70, 50, 21}};

  // Suite-wide energy components per (dbc, strategy).
  util::TextTable out;
  out.SetHeader({"DBCs", "strategy", "leakage", "read/write", "shift",
                 "total (norm.)", "paper reduction"});
  out.SetAlignments({util::Align::kRight, util::Align::kLeft,
                     util::Align::kRight, util::Align::kRight,
                     util::Align::kRight, util::Align::kRight,
                     util::Align::kRight});
  double measured_reduction[3][4] = {};
  double leakage_share[3][4] = {};
  double shift_share[3][4] = {};
  for (std::size_t i = 0; i < options.dbc_counts.size(); ++i) {
    const unsigned dbcs = options.dbc_counts[i];
    double base_total = 0.0;
    for (std::size_t s = 0; s < options.strategies.size(); ++s) {
      double leak = 0.0;
      double rw = 0.0;
      double shift = 0.0;
      for (const auto& name : names) {
        const auto& m = table.At(name, dbcs, options.strategies[s]);
        leak += m.leakage_pj;
        rw += m.read_write_pj;
        shift += m.shift_pj;
      }
      const double total = leak + rw + shift;
      if (s == 0) base_total = total;
      const double norm = base_total > 0.0 ? total / base_total : 0.0;
      measured_reduction[s][i] = 100.0 * (1.0 - norm);
      leakage_share[s][i] = total > 0.0 ? leak / total : 0.0;
      shift_share[s][i] = total > 0.0 ? shift / total : 0.0;
      if (s != 0) {
        ctx.Scalar("fig5/reduction_pct/" + std::string(labels[s]) + "/" +
                       std::to_string(dbcs) + "dbc",
                   measured_reduction[s][i], "%");
      }
      out.AddRow({std::to_string(dbcs), labels[s],
                  util::FormatFixed(leak / base_total, 3),
                  util::FormatFixed(rw / base_total, 3),
                  util::FormatFixed(shift / base_total, 3),
                  util::FormatFixed(norm, 3),
                  s == 0 ? "-"
                         : PaperVsMeasured(paper_reduction[s][i],
                                           measured_reduction[s][i], 0) +
                               " %"});
    }
    out.AddRule();
  }
  ctx.PrintTable(out);

  ctx.Print("\n-- shape checks --\n");
  const bool leakage_grows =
      leakage_share[0][3] > leakage_share[0][0];  // AFD: 16 vs 2 DBCs
  const bool shift_shrinks = shift_share[0][3] < shift_share[0][0];
  bool dma_saves = true;
  for (std::size_t i = 0; i < 4; ++i) {
    dma_saves = dma_saves && measured_reduction[2][i] >= 0.0;
  }
  ctx.Check("leakage share grows with DBC count (AFD-OFU)", leakage_grows);
  ctx.Check("shift-energy share shrinks with DBC count (AFD-OFU)",
            shift_shrinks);
  ctx.Check("DMA-SR reduces total energy for every DBC count", dma_saves);
}

}  // namespace

void RegisterFig5Energy(ScenarioRegistry& registry) {
  registry.Register({"fig5_energy",
                     "Fig. 5: energy breakdown normalized to AFD-OFU",
                     /*uses_search=*/false, Run});
}

}  // namespace rtmp::benchtool::scenarios

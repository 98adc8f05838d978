// The workload-registry regression scenario: every registered workload —
// suite profiles, generator families, and the synthetic application
// kernels — runs through two constructive strategies at two DBC counts,
// at a reduced workload scale so the full registry stays CI-fast. No
// search strategy is involved, so RTMPLACE_EFFORT cannot skew it; every
// cell is pinned by the golden under bench/golden/, which means a new or
// changed workload (or a placement regression it exposes) fails
// `rtmbench run workloads_smoke --check` immediately.
#include <cmath>
#include <map>

#include "harness/scenarios/scenarios.h"
#include "util/stats.h"
#include "workloads/workload.h"

namespace rtmp::benchtool::scenarios {

namespace {

void Run(ScenarioContext& ctx) {
  using namespace rtmp;

  ctx.Print(
      "== workloads_smoke: every registered workload x {afd-ofu, dma-sr} "
      "(golden-checked in CI) ==\n\n");

  sim::ExperimentOptions options;
  options.dbc_counts = {4, 16};
  options.strategies = {"afd-ofu", "dma-sr"};
  // Half-scale workloads: the suite benchmarks contribute a
  // deterministic prefix of their sequences, the synthetic families
  // shrink their lengths — enough to pin every workload's behaviour
  // without re-running the full suite (scenario `smoke` covers that).
  options.workload_scale = 0.5;
  ctx.Configure(options);  // threads, progress (effort unused: no search)

  auto& registry = workloads::WorkloadRegistry::Global();
  const std::vector<std::string> specs = registry.Names();
  const auto suite = sim::LoadWorkloads(specs, options);
  const auto results = sim::RunMatrix(suite, options);
  ctx.AddCells(results);
  const sim::ResultTable table(results);

  // Per-family geomean improvement of dma-sr over afd-ofu: the headline
  // view of where liveliness-aware placement pays off across the
  // workload space.
  std::map<std::string, std::vector<std::string>> by_family;
  for (const std::string& name : specs) {
    by_family[registry.Describe(name)->family].push_back(name);
  }
  util::TextTable out;
  out.SetHeader({"family", "workloads", "4 DBCs", "16 DBCs"});
  out.SetAlignments({util::Align::kLeft, util::Align::kRight,
                     util::Align::kRight, util::Align::kRight});
  for (const auto& [family, names] : by_family) {
    std::vector<std::string> row{family, std::to_string(names.size())};
    for (const unsigned dbcs : options.dbc_counts) {
      const double gain =
          GeoMeanImprovement(table, names, dbcs, options.strategies[1],
                             options.strategies[0]);
      ctx.Scalar("workloads_smoke/dma_sr_over_afd_ofu/" + family + "/" +
                     std::to_string(dbcs) + "dbc",
                 gain, "x");
      row.push_back(util::FormatFixed(gain, 2) + "x");
    }
    out.AddRow(std::move(row));
  }
  ctx.PrintTable(out);
  ctx.Print("(geomean shift improvement of dma-sr over afd-ofu, %zu "
            "workloads total)\n\n",
            specs.size());

  ctx.Check("registry holds the full built-in set (>= 45 workloads)",
            specs.size() >= 45);
  ctx.Check("every workload produced a non-empty benchmark", [&suite] {
    for (const auto& benchmark : suite) {
      if (benchmark.sequences.empty()) return false;
      bool any = false;
      for (const auto& seq : benchmark.sequences) any |= !seq.empty();
      if (!any) return false;
    }
    return true;
  }());
  ctx.Check("every cell simulated some accesses", [&results] {
    for (const auto& cell : results) {
      if (cell.metrics.accesses == 0) return false;
    }
    return true;
  }());
  ctx.Check("placement cost agrees with simulated shifts", [&results] {
    for (const auto& cell : results) {
      if (cell.placement_cost != cell.metrics.shifts) return false;
    }
    return true;
  }());
}

}  // namespace

void RegisterWorkloadsSmoke(ScenarioRegistry& registry) {
  registry.Register({"workloads_smoke",
                     "every registered workload, golden-checked in CI",
                     /*uses_search=*/false, Run});
}

}  // namespace rtmp::benchtool::scenarios

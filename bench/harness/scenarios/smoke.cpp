// The CI regression scenario: a fast, fully deterministic subset of the
// evaluation matrix — six representative benchmarks, the four heuristic
// placement solutions (no GA/RW, so RTMPLACE_EFFORT cannot skew it), two
// DBC counts. Every cell's shift count, placement cost and simulated
// latency/energy is pinned by the golden under bench/golden/; a placement
// or cost-model regression anywhere in the stack fails
// `rtmbench run smoke --check` byte-for-byte.
#include <stdexcept>

#include "harness/scenarios/scenarios.h"
#include "util/stats.h"

namespace rtmp::benchtool::scenarios {

namespace {

void Run(ScenarioContext& ctx) {
  using namespace rtmp;

  ctx.Print("== smoke: deterministic heuristic subset (golden-checked in CI) "
            "==\n\n");

  // Three DSP/media and three control-dominated benchmarks: both trace
  // shapes the suite distinguishes are represented.
  const char* subset[] = {"dct", "fft", "gsm", "bison", "gzip", "jpeg"};

  sim::ExperimentOptions options;
  options.dbc_counts = {4, 16};
  options.strategies = {"afd-ofu", "dma-ofu", "dma-chen", "dma-sr"};
  ctx.Configure(options);  // threads, progress (effort unused: no search)

  std::vector<offsetstone::Benchmark> suite;
  for (const char* name : subset) {
    const auto profile = offsetstone::FindProfile(name);
    if (!profile) throw std::logic_error("unknown smoke benchmark");
    suite.push_back(offsetstone::Generate(*profile));
  }
  const auto results = RunMatrix(suite, options);
  ctx.AddCells(results);
  const sim::ResultTable table(results);

  std::vector<std::string> names;
  for (const char* name : subset) names.emplace_back(name);

  const std::string& baseline = options.strategies[0];
  util::TextTable out;
  out.SetHeader({"strategy", "4 DBCs", "16 DBCs"});
  out.SetAlignments(
      {util::Align::kLeft, util::Align::kRight, util::Align::kRight});
  double sr_gain[2] = {};
  for (std::size_t s = 0; s < options.strategies.size(); ++s) {
    const std::string& strategy = options.strategies[s];
    std::vector<std::string> row{strategy};
    for (std::size_t i = 0; i < options.dbc_counts.size(); ++i) {
      const unsigned dbcs = options.dbc_counts[i];
      const double gain =
          GeoMeanImprovement(table, names, dbcs, strategy, baseline);
      if (s == 3) sr_gain[i] = gain;
      ctx.Scalar("smoke/improvement_over_afd_ofu/" + strategy + "/" +
                     std::to_string(dbcs) + "dbc",
                 gain, "x");
      row.push_back(util::FormatFixed(gain, 2) + "x");
    }
    out.AddRow(std::move(row));
  }
  ctx.PrintTable(out);
  ctx.Print("(geomean shift improvement over afd-ofu, %zu benchmarks)\n\n",
            names.size());

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
  ctx.Check("dma-sr beats afd-ofu at both DBC counts",
            sr_gain[0] > 1.0 && sr_gain[1] > 1.0);
}

}  // namespace

void RegisterSmoke(ScenarioRegistry& registry) {
  registry.Register({"smoke",
                     "fast deterministic subset for CI golden checks",
                     /*uses_search=*/false, Run});
}

}  // namespace rtmp::benchtool::scenarios

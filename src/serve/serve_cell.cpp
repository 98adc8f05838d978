#include "serve/serve_cell.h"

#include <stdexcept>
#include <string>

#include "core/strategy.h"
#include "util/rng.h"
#include "util/strings.h"

namespace rtmp::serve {

sim::SimulationResult ToSimulationResult(const ServeResult& result,
                                         const rtm::RtmConfig& config) {
  sim::SimulationResult sim_result;
  sim_result.stats.reads = result.reads;
  sim_result.stats.writes = result.writes;
  sim_result.stats.shifts = result.total_shifts;
  sim_result.stats.runtime_ns = result.makespan_ns;
  sim_result.energy = result.energy;
  sim_result.area_mm2 = config.params.area_mm2;
  return sim_result;
}

ServeConfig CellServeConfig(const ServePolicy& policy,
                            const rtm::RtmConfig& config,
                            const sim::ExperimentOptions& options,
                            std::string_view benchmark_name, unsigned dbcs) {
  ServeConfig serve = policy.MakeConfig();
  serve.engine.strategy_options.cost.initial_alignment =
      config.initial_alignment;
  core::ScaleSearchEffort(serve.engine.strategy_options,
                          options.search_effort);
  // Same derivation as sim::RunCell's sequence 0: shard 0 keeps this
  // seed verbatim (WindowSeed(base, 0) == base), so a single-tenant
  // serve-static cell draws the exact seed its static twin draws.
  const std::uint64_t seed = util::HashString(benchmark_name) ^
                             (options.seed + dbcs);
  serve.engine.strategy_options.ga.seed = seed;
  serve.engine.strategy_options.rw.seed = seed;
  // Observability rides along; PlacementService::Run re-stamps tid with
  // the shard index per shard engine.
  serve.obs = options.obs;
  return serve;
}

sim::RunResult RunServeCell(const offsetstone::Benchmark& benchmark,
                            unsigned dbcs, std::string_view policy_name,
                            const sim::ExperimentOptions& options) {
  const auto policy = ServePolicyRegistry::Global().Find(policy_name);
  if (!policy) {
    throw std::invalid_argument("RunServeCell: unregistered serve policy '" +
                                std::string(policy_name) + "'");
  }

  sim::RunResult run;
  run.benchmark = benchmark.name;
  run.dbcs = dbcs;
  run.strategy_name = util::ToLower(policy_name);

  // All tenants share one device, so the cell's variable population is
  // the union of every admitted sequence's (tenant-prefixed) space.
  std::size_t total_vars = 0;
  for (const trace::AccessSequence& seq : benchmark.sequences) {
    total_vars += seq.num_variables();
  }
  if (total_vars == 0) return run;

  const rtm::RtmConfig config = sim::CellConfig(dbcs, total_vars);
  PlacementService service(
      CellServeConfig(*policy, config, options, benchmark.name, dbcs),
      config);
  for (std::size_t s = 0; s < benchmark.sequences.size(); ++s) {
    const trace::AccessSequence& seq = benchmark.sequences[s];
    if (seq.num_variables() == 0) continue;
    (void)service.OpenSession(util::Concat({"t", std::to_string(s)}), seq);
  }
  const ServeResult result = service.Run();
  run.placement_cost = result.placement_cost;
  run.placement_wall_ms = result.placement_wall_ms;
  run.search_evaluations = result.evaluations;
  run.metrics.Accumulate(ToSimulationResult(result, config));
  return run;
}

}  // namespace rtmp::serve

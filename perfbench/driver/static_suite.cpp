// static-suite: the paper's offline use. Every OffsetStone-lite
// benchmark is generated, each sequence is placed by every configured
// strategy at every configured DBC count, and each placement is replayed
// on the simulated device. The core layer does almost all the work; the
// online, serve and cache layers never run.
#include <array>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/strategy_registry.h"
#include "passes.h"
#include "sim/experiment.h"
#include "sim/simulator.h"
#include "util/rng.h"
#include "workloads/workload.h"

namespace rtmp::perfbench {

namespace {

/// workload_scale of the suite: scale 16 halves the cross-seed spread of
/// the simulated metrics against scale 8.
constexpr double kStaticScale = 16.0;
/// The paper's heuristics and its genetic algorithm, by registry name.
constexpr std::array<std::string_view, 4> kStrategies = {"dma-sr", "afd-ofu",
                                                         "dma-ge", "ga"};

std::vector<offsetstone::Benchmark> GenerateSuite(const Knobs& knobs) {
  const workloads::WorkloadRegistry& registry =
      workloads::WorkloadRegistry::Global();
  std::vector<offsetstone::Benchmark> suite;
  for (const std::string& name : registry.Names()) {
    const auto info = registry.Describe(name);
    if (!info || info->family != "offsetstone") continue;
    suite.push_back(registry.Find(name)->Generate({knobs.seed, kStaticScale}));
  }
  if (suite.empty()) {
    throw std::runtime_error("static-suite: no offsetstone workloads");
  }
  return suite;
}

}  // namespace

PassOutput RunStaticSuitePass(const Knobs& knobs, SpanLog& log) {
  const std::uint32_t span_generate = log.Intern("workloads.generate");
  const std::uint32_t span_find = log.Intern("core.find");
  const std::uint32_t span_simulate = log.Intern("sim.simulate");
  std::vector<std::uint32_t> span_place;
  for (const std::string_view name : kStrategies) {
    span_place.push_back(log.Intern("core.place." + std::string(name)));
  }

  PassOutput out;
  out.traced = log.enabled();

  const std::int64_t generate_begin = NowNs();
  std::vector<offsetstone::Benchmark> suite;
  {
    SpanLog::Scope span(log, span_generate);
    suite = GenerateSuite(knobs);
  }
  const std::int64_t construct_begin = NowNs();
  std::vector<std::shared_ptr<const core::PlacementStrategy>> strategies;
  {
    SpanLog::Scope span(log, span_find);
    for (const std::string_view name : kStrategies) {
      auto strategy = core::StrategyRegistry::Global().Find(std::string(name));
      if (!strategy) {
        throw std::invalid_argument("unregistered strategy '" +
                                    std::string(name) + "'");
      }
      strategies.push_back(std::move(strategy));
    }
  }
  const std::int64_t run_begin = NowNs();
  out.generate_s = SecondsBetween(generate_begin, construct_begin);
  out.construct_s = SecondsBetween(construct_begin, run_begin);

  std::vector<std::uint64_t> shifts_by_strategy(strategies.size(), 0);
  std::vector<double> evaluations_by_strategy(strategies.size(), 0.0);
  std::uint64_t requests = 0;
  // The search seeds sim::RunCell derives for a (benchmark, sequence,
  // DBC count) cell, from the library's default base seed.
  const std::uint64_t base_seed = sim::ExperimentOptions{}.seed;
  out.ops.reserve(1 << 14);
  out.unit_latency_ns.reserve(1 << 14);

  for (const offsetstone::Benchmark& benchmark : suite) {
    const std::uint64_t name_hash = util::HashString(benchmark.name);
    for (std::size_t s = 0; s < benchmark.sequences.size(); ++s) {
      const trace::AccessSequence& seq = benchmark.sequences[s];
      if (seq.num_variables() == 0) continue;
      for (const unsigned dbcs : knobs.static_dbcs) {
        const rtm::RtmConfig config =
            sim::CellConfig(dbcs, seq.num_variables());
        core::PlacementRequest request;
        request.sequence = &seq;
        request.num_dbcs = config.total_dbcs();
        request.capacity = config.domains_per_dbc;
        request.options.cost.initial_alignment = config.initial_alignment;
        core::ScaleSearchEffort(request.options, knobs.effort);
        const std::uint64_t seed =
            name_hash ^ (base_seed + s * 0x9E3779B9ULL + dbcs);
        request.options.ga.seed = seed;
        request.options.rw.seed = seed;

        for (std::uint32_t k = 0; k < strategies.size(); ++k) {
          ++out.attempted;
          try {
            core::PlacementResult placed;
            sim::SimulationResult simulated;
            const std::int64_t op_begin = NowNs();
            {
              SpanLog::Scope span(log, span_place[k]);
              placed = core::RunTimed(*strategies[k], request);
            }
            {
              SpanLog::Scope span(log, span_simulate);
              simulated = sim::Simulate(seq, placed.placement, config);
            }
            out.ops.push_back({NowNs() - op_begin, k});

            const rtm::RtmStats& stats = simulated.stats;
            if (placed.cost != stats.shifts) {
              Fail(out, benchmark.name + "#" + std::to_string(s) + " " +
                            std::string(kStrategies[k]) + "@" +
                            std::to_string(dbcs) + ": placement_cost " +
                            std::to_string(placed.cost) + " != simulated " +
                            std::to_string(stats.shifts));
            }
            out.accesses += seq.size();
            out.shifts += stats.shifts;
            out.sim_runtime_ns += stats.runtime_ns;
            out.energy_pj += simulated.energy.total_pj();
            out.unit_latency_ns.push_back(stats.runtime_ns);
            shifts_by_strategy[k] += stats.shifts;
            evaluations_by_strategy[k] +=
                static_cast<double>(placed.evaluations);
            requests += stats.accesses();
          } catch (const std::exception& error) {
            Fail(out, benchmark.name + "#" + std::to_string(s) + " " +
                          std::string(kStrategies[k]) + ": " + error.what());
          }
        }
      }
    }
  }
  out.run_s = SecondsBetween(run_begin, NowNs());

  for (std::size_t k = 0; k < strategies.size(); ++k) {
    const std::string& name = std::string(kStrategies[k]);
    out.counters["core.shifts." + name] =
        static_cast<double>(shifts_by_strategy[k]);
    out.counters["core.evaluations." + name] = evaluations_by_strategy[k];
  }
  out.counters["rtm.requests"] = static_cast<double>(requests);
  return out;
}

}  // namespace rtmp::perfbench

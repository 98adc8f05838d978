// Online cells of the evaluation matrix.
//
// RunOnlineCell is the online counterpart of sim::RunCell: one
// (benchmark, dbc count, online policy) cell, every sequence served by
// its own OnlineEngine session on the cell's device configuration
// (sim::CellConfig — identical to the static cells'). The returned
// sim::RunResult carries the controller's view — shifts, accesses,
// runtime and energy all INCLUDE migration traffic — so online and
// static cells compare apples-to-apples in the same report, golden and
// ResultTable.
//
// sim::RunCell dispatches here for any strategy name that resolves in
// the online-policy registry, which is what lets
// ExperimentOptions::strategies mix policies into RunMatrix grids.
#pragma once

#include <string_view>

#include "offsetstone/suite.h"
#include "online/engine.h"
#include "online/policy.h"
#include "sim/experiment.h"

namespace rtmp::online {

/// Runs one online cell. Throws std::invalid_argument when `policy_name`
/// is not in OnlinePolicyRegistry::Global(). Seeding and effort follow
/// sim::RunCell exactly (per-sequence seeds derived from benchmark name,
/// sequence index and DBC count), so online cells are deterministic and
/// thread-placement independent like static ones — and an
/// "online-static-<s>" cell is bit-identical to the "<s>" cell on every
/// exact counter.
[[nodiscard]] sim::RunResult RunOnlineCell(
    const offsetstone::Benchmark& benchmark, unsigned dbcs,
    std::string_view policy_name, const sim::ExperimentOptions& options);

/// Accumulates one sequence into `run` (the per-sequence body of
/// RunOnlineCell); exposed for the streaming trace-cell path, which
/// delivers sequences one at a time instead of through a materialized
/// benchmark. `sequence_index` must count DELIVERED sequences including
/// empty ones — RunOnlineCell's seed derivation does.
void AccumulateOnlineSequence(const trace::AccessSequence& seq,
                              std::size_t sequence_index, unsigned dbcs,
                              const OnlinePolicy& policy,
                              const sim::ExperimentOptions& options,
                              std::string_view benchmark_name,
                              sim::RunResult& run);

/// Aggregate of one OnlineResult in sim terms (the piece RunOnlineCell
/// accumulates per sequence); exposed for scenarios that run the engine
/// directly and want matching metrics.
[[nodiscard]] sim::SimulationResult ToSimulationResult(
    const OnlineResult& result, const rtm::RtmConfig& config);

/// The OnlineConfig an experiment cell hands the engine: the policy's
/// recipe with the experiment's cost options, search effort and seed
/// stamped in (seed derivation identical to sim::RunCell's).
[[nodiscard]] OnlineConfig CellOnlineConfig(
    const OnlinePolicy& policy, const rtm::RtmConfig& config,
    const sim::ExperimentOptions& options, std::string_view benchmark_name,
    std::size_t sequence_index, unsigned dbcs);

}  // namespace rtmp::online

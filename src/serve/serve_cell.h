// Multi-tenant serve cells of the evaluation matrix.
//
// RunServeCell is the serve counterpart of online::RunOnlineCell: one
// (benchmark, dbc count, serve policy) cell, the benchmark's sequences
// admitted as tenants of ONE PlacementService on the cell's device
// configuration. The returned sim::RunResult carries the service's
// device view — shifts, accesses, runtime and energy all INCLUDE
// migration traffic and shared-channel waits — so serve cells compare
// apples-to-apples with static and online cells in the same report,
// golden and ResultTable.
//
// sim::RunCell dispatches here for any name that resolves in the
// serve-policy registry, which is what lets ExperimentOptions::strategies
// mix serve policies into RunMatrix grids.
#pragma once

#include <string_view>

#include "offsetstone/suite.h"
#include "serve/serve_policy.h"
#include "serve/service.h"
#include "sim/experiment.h"

namespace rtmp::serve {

/// Runs one serve cell: every non-empty sequence of `benchmark` becomes
/// a tenant ("t0", "t1", ... by sequence index) of one PlacementService
/// on the cell's device. Throws std::invalid_argument when `policy_name`
/// is not in ServePolicyRegistry::Global(). Seeding and effort follow
/// sim::RunCell's sequence-0 derivation, so a single-tenant
/// "serve-1s-static-<s>" cell is bit-identical to the
/// "online-static-<s>" cell (and hence to the "<s>" cell) on every exact
/// counter.
[[nodiscard]] sim::RunResult RunServeCell(
    const offsetstone::Benchmark& benchmark, unsigned dbcs,
    std::string_view policy_name, const sim::ExperimentOptions& options);

/// Aggregate of one ServeResult in sim terms (the piece RunServeCell
/// reports); exposed for scenarios that run the service directly and
/// want matching metrics.
[[nodiscard]] sim::SimulationResult ToSimulationResult(
    const ServeResult& result, const rtm::RtmConfig& config);

/// The ServeConfig an experiment cell hands the service: the policy's
/// recipe with the experiment's cost options, search effort and seed
/// stamped into the engine recipe (seed derivation identical to
/// sim::RunCell's sequence 0 — the service derives per-shard seeds from
/// it via online::WindowSeed).
[[nodiscard]] ServeConfig CellServeConfig(
    const ServePolicy& policy, const rtm::RtmConfig& config,
    const sim::ExperimentOptions& options, std::string_view benchmark_name,
    unsigned dbcs);

}  // namespace rtmp::serve

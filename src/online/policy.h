// Online-policy registry: the name-keyed dispatch layer for online
// placement policies (core/registry.h).
//
// An online policy is a named OnlineConfig recipe: which registry
// strategy re-seeds the placement, which phase detector triggers
// re-placement, how large the windows are, and whether migration is
// charged. Policies enter the evaluation matrix by name exactly like
// strategies do — sim::RunCell runs an online-policy name as an online
// cell, so `ExperimentOptions::strategies`, `rtmbench` scenarios
// and `placement_explorer online` all accept policy names
// interchangeably with strategy names.
#pragma once

#include <memory>
#include <string>

#include "core/registry.h"
#include "online/engine.h"

namespace rtmp::online {

/// Self-description of a registered online policy.
struct OnlinePolicyInfo {
  /// Registry key: lowercase, unique ("online-ewma-dma-sr", ...).
  std::string name;
  /// One-line human-readable description for listings and docs.
  std::string summary;
  /// Registry name of the re-seed strategy the policy wraps.
  std::string reseed_strategy;
  /// Detector family: "none", "fixed", "ewma" or "cusum".
  std::string detector;
};

/// Abstract online policy. Implementations must be stateless or
/// internally synchronized: the experiment engine may call MakeConfig()
/// from many threads concurrently on one instance.
class OnlinePolicy {
 public:
  virtual ~OnlinePolicy() = default;

  [[nodiscard]] virtual const OnlinePolicyInfo& Describe() const noexcept = 0;

  /// The engine configuration this policy stands for. Callers stamp the
  /// run-specific fields afterwards (strategy_options effort/seeds come
  /// from the experiment, not the policy).
  [[nodiscard]] virtual OnlineConfig MakeConfig() const = 0;
};

/// Name -> online-policy registry (core/registry.h). Global() claims
/// its names as "online policy" in the cell-name space.
using OnlinePolicyRegistry = core::Registry<OnlinePolicy>;
using OnlinePolicyRegistrar = OnlinePolicyRegistry::Registrar;

/// Registers the built-in policies into `registry`:
///
///   online-static-<s>   one window over the whole trace, no detection —
///                       the oracle wrapper, bit-identical to strategy s;
///   online-fixed-<s>    256-access windows, re-seed considered every
///                       window boundary (period-1 epoch baseline);
///   online-ewma-<s>     256-access windows, EWMA-drift detection plus
///                       CostEvaluator refinement between phases;
///   online-cusum-<s>    256-access windows, CUSUM change-point detection
///                       (integrates slow drifts a single-window EWMA
///                       test misses) plus refinement;
///
/// for s in {dma-sr, afd-ofu}. Global() calls this once; tests use it to
/// build fresh registries.
void RegisterBuiltinOnlinePolicies(OnlinePolicyRegistry& registry);

/// Convenience used by the built-ins and available to external code: a
/// policy that returns a fixed OnlineConfig under a fixed description.
[[nodiscard]] std::shared_ptr<const OnlinePolicy> MakeFixedPolicy(
    OnlinePolicyInfo info, OnlineConfig config);

}  // namespace rtmp::online

namespace rtmp::core {
template <>
online::OnlinePolicyRegistry& online::OnlinePolicyRegistry::Global();
}  // namespace rtmp::core

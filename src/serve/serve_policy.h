// Serve-policy registry: named multi-tenant service recipes, one kind
// of the experiment cell-name space (core/registry_namespace.h).
//
// A serve policy is a ServeConfig recipe: how many shards the device is
// partitioned into, which online policy drives each shard's engine, and
// how tight the global migration budget is. sim::RunCell runs a
// serve-policy name as a serve cell, so serve policies enter RunMatrix
// grids, rtmbench scenarios and placement_explorer exactly like any
// other cell name.
#pragma once

#include <memory>
#include <string>

#include "core/registry.h"
#include "serve/service.h"

namespace rtmp::serve {

/// Self-description of a registered serve policy.
struct ServePolicyInfo {
  /// Registry key: lowercase, unique ("serve-4s-ewma-dma-sr", ...).
  std::string name;
  /// One-line human-readable description for listings and docs.
  std::string summary;
  /// Registry name of the online policy driving each shard's engine.
  std::string online_policy;
  /// Device shards (equal DBC partitions).
  unsigned shards = 1;
  /// Migration-budget label: "unlimited", "tight" or "loose".
  std::string budget = "unlimited";
};

/// Abstract serve policy. Implementations must be stateless or
/// internally synchronized: the experiment engine may call MakeConfig()
/// from many threads concurrently on one instance.
class ServePolicy {
 public:
  virtual ~ServePolicy() = default;

  [[nodiscard]] virtual const ServePolicyInfo& Describe() const noexcept = 0;

  /// The service configuration this policy stands for. Callers stamp the
  /// run-specific engine fields afterwards (effort and seeds come from
  /// the experiment, not the policy).
  [[nodiscard]] virtual ServeConfig MakeConfig() const = 0;
};

/// Name -> serve-policy registry (core/registry.h). Global() claims its
/// names as "serve policy" in the cell-name space.
using ServePolicyRegistry = core::Registry<ServePolicy>;
using ServePolicyRegistrar = ServePolicyRegistry::Registrar;

/// Registers the built-in policies into `registry`:
///
///   serve-<N>s-static-<s>          N shards, each running the
///                                  online-static-<s> oracle engine;
///   serve-<N>s-ewma-<s>            N shards of online-ewma-<s>,
///                                  unlimited migration budget;
///   serve-<N>s-tight-ewma-<s>      as above with a tight global budget
///                                  (256 migration shifts per window);
///   serve-<N>s-loose-ewma-<s>      as above with a loose budget
///                                  (16384 shifts per window);
///
/// for N in {1, 2, 4} and s = dma-sr. Global() calls this once; tests
/// use it to build fresh registries.
void RegisterBuiltinServePolicies(ServePolicyRegistry& registry);

/// Convenience used by the built-ins and available to external code: a
/// policy that returns a fixed ServeConfig under a fixed description.
[[nodiscard]] std::shared_ptr<const ServePolicy> MakeFixedServePolicy(
    ServePolicyInfo info, ServeConfig config);

}  // namespace rtmp::serve

namespace rtmp::core {
template <>
serve::ServePolicyRegistry& serve::ServePolicyRegistry::Global();
}  // namespace rtmp::core

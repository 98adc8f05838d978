// Cache policies: named hybrid-memory cache configurations, looked up
// through core::Registry (core/registry.h).
//
// A cache policy is a named CacheConfig recipe: which eviction policy
// runs the resident set, what fraction of the working set fits on the
// device, and which wrapped online engine serves the hits. Policies
// enter the evaluation matrix by name exactly like strategies and
// online policies do — sim::RunCell runs a cache-policy name as a cache
// cell, so `ExperimentOptions::strategies`, `rtmbench` scenarios
// and `placement_explorer cache` all accept cache policy names
// interchangeably.
//
// The built-ins wrap the SAME engine recipe as the online policy
// "online-fixed-dma-sr"; a capacity-100% cache cell is therefore
// bit-identical to that online cell (the hybrid mode's oracle anchor in
// bench/harness/scenarios/fig_cache.cpp).
#pragma once

#include <memory>
#include <string>

#include "cache/engine.h"
#include "core/registry.h"

namespace rtmp::cache {

/// Self-description of a registered cache policy.
struct CachePolicyInfo {
  /// Registry key: lowercase, unique ("cache-lru-c50", ...).
  std::string name;
  /// One-line human-readable description for listings and docs.
  std::string summary;
  /// Eviction-policy registry name the policy runs (cache/eviction.h).
  std::string eviction;
  /// Resident-set fraction of the working set (CacheConfig ratio).
  double capacity_ratio = 1.0;
};

/// Abstract cache policy. Implementations must be stateless or
/// internally synchronized: the experiment engine may call MakeConfig()
/// from many threads concurrently on one instance.
class CachePolicy {
 public:
  virtual ~CachePolicy() = default;

  [[nodiscard]] virtual const CachePolicyInfo& Describe() const noexcept = 0;

  /// The cache configuration this policy stands for. Callers stamp the
  /// run-specific fields afterwards (capacity_slots via ResolveCapacity,
  /// strategy effort/seeds from the experiment).
  [[nodiscard]] virtual CacheConfig MakeConfig() const = 0;
};

/// Name -> cache-policy registry (core/registry.h). Global() claims its
/// names as "cache policy" in the cell-name space.
using CachePolicyRegistry = core::Registry<CachePolicy>;
using CachePolicyRegistrar = CachePolicyRegistry::Registrar;

/// Registers the built-in policies into `registry`:
///
///   cache-<e>-c<r>   eviction policy cache-<e> over a resident set of
///                    r% of the working set, hits served by the
///                    online-fixed-dma-sr engine recipe (256-access
///                    windows, re-seed weighed every boundary),
///
/// for e in {lru, lfu, sample, shift-aware} and r in {25, 50, 100}.
/// The c100 members are the oracle anchors: no miss can occur, so they
/// are bit-identical to online-fixed-dma-sr. Global() calls this once;
/// tests use it to build fresh registries.
void RegisterBuiltinCachePolicies(CachePolicyRegistry& registry);

/// Convenience used by the built-ins and available to external code: a
/// policy that returns a fixed CacheConfig under a fixed description.
[[nodiscard]] std::shared_ptr<const CachePolicy> MakeFixedCachePolicy(
    CachePolicyInfo info, CacheConfig config);

}  // namespace rtmp::cache

namespace rtmp::core {
template <>
cache::CachePolicyRegistry& cache::CachePolicyRegistry::Global();
}  // namespace rtmp::core

#include "cache/cache_policy.h"

#include <string>
#include <utility>

#include "cache/eviction.h"
#include "online/policy.h"

namespace rtmp::cache {

namespace {

class FixedCachePolicy final : public CachePolicy {
 public:
  FixedCachePolicy(CachePolicyInfo info, CacheConfig config)
      : info_(std::move(info)), config_(std::move(config)) {}

  [[nodiscard]] const CachePolicyInfo& Describe() const noexcept override {
    return info_;
  }

  [[nodiscard]] CacheConfig MakeConfig() const override { return config_; }

 private:
  CachePolicyInfo info_;
  CacheConfig config_;
};

/// The engine recipe every built-in wraps: online-fixed-dma-sr (256-
/// access windows, re-seed weighed at every boundary via dma-sr). Kept
/// in lock-step with RegisterBuiltinOnlinePolicies so the c100 cells
/// stay bit-identical to that online cell.
online::OnlineConfig BuiltinEngineRecipe() {
  online::OnlineConfig config;
  config.reseed_strategy = "dma-sr";
  config.window_accesses = 256;
  config.detector.kind = online::DetectorKind::kFixedWindow;
  config.detector.period = 1;
  return config;
}

void RegisterCapacityFamily(CachePolicyRegistry& registry,
                            const std::string& eviction, int percent) {
  CacheConfig config;
  config.eviction = eviction;
  config.capacity_ratio = static_cast<double>(percent) / 100.0;
  config.engine = BuiltinEngineRecipe();
  const std::string name = eviction + "-c" + std::to_string(percent);
  registry.Register(
      name, [info = CachePolicyInfo{
                 name,
                 eviction + " eviction over a resident set of " +
                     std::to_string(percent) +
                     "% of the working set, hits served by the "
                     "online-fixed-dma-sr engine recipe",
                 eviction, config.capacity_ratio},
             config] { return MakeFixedCachePolicy(info, config); });
}

}  // namespace

std::shared_ptr<const CachePolicy> MakeFixedCachePolicy(CachePolicyInfo info,
                                                        CacheConfig config) {
  return std::make_shared<const FixedCachePolicy>(std::move(info),
                                                  std::move(config));
}

void RegisterBuiltinCachePolicies(CachePolicyRegistry& registry) {
  for (const char* eviction :
       {"cache-lru", "cache-lfu", "cache-sample", "cache-shift-aware"}) {
    for (const int percent : {25, 50, 100}) {
      RegisterCapacityFamily(registry, eviction, percent);
    }
  }
}

}  // namespace rtmp::cache

namespace rtmp::core {
template <>
cache::CachePolicyRegistry& cache::CachePolicyRegistry::Global() {
  // Strategies, online and eviction policies claim their names first
  // (see OnlinePolicyRegistry::Global()).
  (void)online::OnlinePolicyRegistry::Global();
  (void)cache::EvictionPolicyRegistry::Global();
  static cache::CachePolicyRegistry& registry = MakeGlobal(
      cell_kind::kCachePolicy, cache::RegisterBuiltinCachePolicies);
  return registry;
}
}  // namespace rtmp::core

// Tuning shared by every placement strategy.
//
// Strategies are identified by registry name only ("afd-ofu", "dma-sr",
// "ga", "rw", ...): resolve them through StrategyRegistry::Global() in
// core/strategy_registry.h.
#pragma once

#include "core/cost_model.h"
#include "core/genetic.h"
#include "core/random_walk.h"

namespace rtmp::core {

/// Tuning for the search-based strategies and the cost model.
struct StrategyOptions {
  GaOptions ga{};
  RwOptions rw{};
  CostOptions cost{};
};

/// Uniformly scales the GA/RW search effort (1.0 = the paper's parameters:
/// 200 generations, mu = lambda = 100, 60 000 RW iterations). Benches use
/// a small factor by default so the full suite runs in minutes.
void ScaleSearchEffort(StrategyOptions& options, double factor);

}  // namespace rtmp::core

#include "core/strategy_registry.h"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "core/cost_model.h"
#include "core/genetic.h"
#include "core/inter_afd.h"
#include "core/inter_dma.h"
#include "core/intra_heuristics.h"
#include "core/multi_dma.h"
#include "core/random_walk.h"

namespace rtmp::core {

namespace {

void ValidateRequest(const PlacementRequest& request) {
  if (request.sequence == nullptr) {
    throw std::invalid_argument("PlacementRequest: sequence is null");
  }
  if (request.num_dbcs == 0) {
    throw std::invalid_argument("PlacementRequest: num_dbcs must be > 0");
  }
}

/// The inter-DBC family a built-in strategy runs. The constructive
/// families pair it with an intra-DBC heuristic; GA and RW ignore that.
enum class Family { kAfd, kDma, kDmaMulti, kGa, kRandomWalk };

/// Adapter running one of the library's built-in solutions. One instance
/// per registered name; stateless, so safe to share across threads.
class BuiltinStrategy final : public PlacementStrategy {
 public:
  BuiltinStrategy(StrategyInfo info, Family family, IntraHeuristic intra)
      : info_(std::move(info)), family_(family), intra_(intra) {}

  [[nodiscard]] const StrategyInfo& Describe() const noexcept override {
    return info_;
  }

  [[nodiscard]] PlacementResult Run(
      const PlacementRequest& request) const override {
    ValidateRequest(request);
    PlacementResult result;
    const trace::AccessSequence& seq = *request.sequence;
    switch (family_) {
      case Family::kAfd:
        result.placement =
            DistributeAfd(seq, request.num_dbcs, request.capacity, {intra_});
        break;
      case Family::kDma:
        result.placement =
            DistributeDma(seq, request.num_dbcs, request.capacity, {intra_})
                .placement;
        break;
      case Family::kDmaMulti:
        result.placement =
            DistributeMultiDma(seq, request.num_dbcs, request.capacity,
                               {{intra_}})
                .placement;
        break;
      case Family::kGa: {
        GaOptions ga = request.options.ga;
        ga.cost = request.options.cost;
        GaResult ga_result = RunGa(seq, request.num_dbcs, request.capacity, ga);
        result.placement = std::move(ga_result.best);
        result.cost = ga_result.best_cost;
        result.evaluations = ga_result.evaluations;
        break;
      }
      case Family::kRandomWalk: {
        RwOptions rw = request.options.rw;
        rw.cost = request.options.cost;
        RwResult rw_result =
            RunRandomWalk(seq, request.num_dbcs, request.capacity, rw);
        result.placement = std::move(rw_result.best);
        result.cost = rw_result.best_cost;
        result.evaluations = rw_result.evaluations;
        break;
      }
    }

    // The search strategies already evaluated their best candidate under
    // request.options.cost; only the constructive heuristics need the
    // explicit cost pass, and only when the caller wants it.
    if (request.compute_cost && !info_.search_based) {
      result.cost = ShiftCost(seq, result.placement, request.options.cost);
    }
    return result;
  }

 private:
  StrategyInfo info_;
  Family family_;
  IntraHeuristic intra_;
};

void RegisterBuiltin(StrategyRegistry& registry, std::string name,
                     Family family, IntraHeuristic intra, std::string summary,
                     bool search_based) {
  StrategyInfo info;
  info.name = std::move(name);
  info.summary = std::move(summary);
  info.search_based = search_based;
  // Copy the name out before the capture moves `info`: the two arguments
  // are indeterminately sequenced.
  std::string key = info.name;
  registry.Register(std::move(key), [info = std::move(info), family, intra] {
    return std::make_shared<const BuiltinStrategy>(info, family, intra);
  });
}

// The built-in solutions register here. Static-initializer
// self-registration would be dropped by the linker for unreferenced TUs of
// a static library, so Global() triggers this explicitly instead.

void RegisterConstructiveStrategies(StrategyRegistry& registry) {
  // Registered as "<family>-<intra>": "afd-ofu", "dma-sr", "dma2-ge", ...
  constexpr struct {
    Family family;
    const char* prefix;
    const char* summary;
  } kInterFamilies[] = {
      {Family::kAfd, "afd", "frequency deal across DBCs (Chen et al.)"},
      {Family::kDma, "dma", "liveliness-aware distribution (Algorithm 1)"},
      {Family::kDmaMulti, "dma2", "multi-set DMA (§VI extension)"},
  };
  constexpr IntraHeuristic kIntras[] = {
      IntraHeuristic::kNone, IntraHeuristic::kOfu, IntraHeuristic::kChen,
      IntraHeuristic::kShiftsReduce, IntraHeuristic::kGreedyEdge};
  for (const auto& family : kInterFamilies) {
    for (const IntraHeuristic intra : kIntras) {
      const std::string intra_name(ToString(intra));
      RegisterBuiltin(registry, std::string(family.prefix) + "-" + intra_name,
                      family.family, intra,
                      std::string(family.summary) + ", intra policy '" +
                          intra_name + "'",
                      /*search_based=*/false);
    }
  }
}

void RegisterSearchStrategies(StrategyRegistry& registry) {
  RegisterBuiltin(registry, "ga", Family::kGa, IntraHeuristic::kNone,
                  "genetic algorithm (§III-C), near-optimal offline baseline",
                  /*search_based=*/true);
  RegisterBuiltin(registry, "rw", Family::kRandomWalk, IntraHeuristic::kNone,
                  "uniform random-walk search, the GA's sanity baseline",
                  /*search_based=*/true);
}

}  // namespace

PlacementResult RunTimed(const PlacementStrategy& strategy,
                         const PlacementRequest& request) {
  const auto start = std::chrono::steady_clock::now();
  PlacementResult result = strategy.Run(request);
  result.wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return result;
}

template <>
StrategyRegistry& StrategyRegistry::Global() {
  static StrategyRegistry& registry =
      MakeGlobal(cell_kind::kStrategy, RegisterBuiltinStrategies);
  return registry;
}

void RegisterBuiltinStrategies(StrategyRegistry& registry) {
  RegisterConstructiveStrategies(registry);
  RegisterSearchStrategies(registry);
}

}  // namespace rtmp::core

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "core/cost_model.h"
#include "core/strategy.h"
#include "core/strategy_registry.h"
#include "trace/access_sequence.h"

namespace rtmp::core {
namespace {

using trace::AccessSequence;

AccessSequence PhasedSequence() {
  return AccessSequence::FromCompactString("g" "ababab" "g" "cdcdcd" "g"
                                           "efef" "g");
}

TEST(StrategyRegistry, GlobalContainsEveryBuiltinCombination) {
  auto& registry = StrategyRegistry::Global();
  for (const char* inter : {"afd", "dma", "dma2"}) {
    for (const char* intra : {"none", "ofu", "chen", "sr", "ge"}) {
      const std::string name = std::string(inter) + "-" + intra;
      EXPECT_TRUE(registry.Contains(name)) << name;
    }
  }
  EXPECT_TRUE(registry.Contains("ga"));
  EXPECT_TRUE(registry.Contains("rw"));
  EXPECT_GE(registry.size(), 17u);
}

TEST(StrategyRegistry, EveryStrategyDescribesItself) {
  auto& registry = StrategyRegistry::Global();
  for (const auto& name : registry.Names()) {
    const auto info = registry.Describe(name);
    ASSERT_TRUE(info.has_value()) << name;
    EXPECT_EQ(info->name, name);
    EXPECT_FALSE(info->summary.empty()) << name;
  }
}

TEST(StrategyRegistry, RunReportsCostWallTimeAndEffort) {
  const AccessSequence seq = PhasedSequence();
  auto& registry = StrategyRegistry::Global();

  PlacementRequest request;
  request.sequence = &seq;
  request.num_dbcs = 4;
  ScaleSearchEffort(request.options, 0.02);

  for (const char* name : {"dma-sr", "ga", "rw"}) {
    const auto strategy = registry.Find(name);
    ASSERT_NE(strategy, nullptr) << name;
    // RunTimed stamps wall_ms uniformly; a raw Run() leaves it 0.
    EXPECT_EQ(strategy->Run(request).wall_ms, 0.0) << name;
    const PlacementResult result = RunTimed(*strategy, request);
    EXPECT_TRUE(result.placement.IsComplete()) << name;
    EXPECT_EQ(result.cost,
              ShiftCost(seq, result.placement, request.options.cost))
        << name;
    EXPECT_GT(result.wall_ms, 0.0) << name;
    if (strategy->Describe().search_based) {
      // GA evaluates mu + lambda * generations individuals, RW its
      // iteration count — far more than the single heuristic candidate.
      EXPECT_GT(result.evaluations, 1u) << name;
    } else {
      EXPECT_EQ(result.evaluations, 1u) << name;
    }
  }
}

TEST(StrategyRegistry, PlacementOnlyRequestsSkipTheCostPass) {
  const AccessSequence seq = PhasedSequence();
  PlacementRequest request;
  request.sequence = &seq;
  request.num_dbcs = 4;
  request.compute_cost = false;
  ScaleSearchEffort(request.options, 0.02);

  const auto heuristic =
      StrategyRegistry::Global().Find("dma-sr")->Run(request);
  EXPECT_TRUE(heuristic.placement.IsComplete());
  EXPECT_EQ(heuristic.cost, 0u);  // skipped for constructive strategies

  // Search strategies get their cost for free and report it regardless.
  const auto searched = StrategyRegistry::Global().Find("ga")->Run(request);
  EXPECT_EQ(searched.cost,
            ShiftCost(seq, searched.placement, request.options.cost));
}

TEST(StrategyRegistry, RunValidatesTheRequest) {
  const auto strategy = StrategyRegistry::Global().Find("afd-ofu");
  ASSERT_NE(strategy, nullptr);
  PlacementRequest null_sequence;
  null_sequence.num_dbcs = 2;
  EXPECT_THROW((void)strategy->Run(null_sequence), std::invalid_argument);
  const AccessSequence seq = PhasedSequence();
  PlacementRequest zero_dbcs;
  zero_dbcs.sequence = &seq;
  zero_dbcs.num_dbcs = 0;
  EXPECT_THROW((void)strategy->Run(zero_dbcs), std::invalid_argument);
}

/// A user-defined strategy: everything into DBC 0 in first-use order.
/// Exercises the extension path the registry exists for.
class FirstUseStrategy final : public PlacementStrategy {
 public:
  FirstUseStrategy() {
    info_.name = "first-use";
    info_.summary = "single-DBC order-of-first-use layout (test strategy)";
  }

  const StrategyInfo& Describe() const noexcept override { return info_; }

  PlacementResult Run(const PlacementRequest& request) const override {
    const AccessSequence& seq = *request.sequence;
    PlacementResult result;
    result.placement =
        Placement(seq.num_variables(), request.num_dbcs, request.capacity);
    for (const auto& access : seq.accesses()) {
      if (!result.placement.IsPlaced(access.variable)) {
        result.placement.Append(0, access.variable);
      }
    }
    for (trace::VariableId v = 0; v < seq.num_variables(); ++v) {
      if (!result.placement.IsPlaced(v)) result.placement.Append(0, v);
    }
    result.cost = ShiftCost(seq, result.placement, request.options.cost);
    return result;
  }

 private:
  StrategyInfo info_;
};

// Self-registration into the global registry, as downstream code would do.
const StrategyRegistrar kFirstUseRegistrar{"first-use", [] {
  return std::make_shared<const FirstUseStrategy>();
}};

TEST(StrategyRegistry, ExternalStrategiesPlugInByName) {
  auto& registry = StrategyRegistry::Global();
  const auto strategy = registry.Find("first-use");
  ASSERT_NE(strategy, nullptr);

  const AccessSequence seq = PhasedSequence();
  const PlacementResult result =
      strategy->Run({&seq, 2, kUnboundedCapacity, {}});
  EXPECT_TRUE(result.placement.IsComplete());
  result.placement.CheckInvariants();
  EXPECT_TRUE(result.placement.dbc(1).empty());
}

}  // namespace
}  // namespace rtmp::core

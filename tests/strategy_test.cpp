#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/cost_model.h"
#include "core/strategy.h"
#include "core/strategy_registry.h"
#include "sim/experiment.h"
#include "trace/access_sequence.h"

namespace rtmp::core {
namespace {

using trace::AccessSequence;

/// The placement the registered strategy `name` produces.
Placement Place(std::string_view name, const AccessSequence& seq,
                std::uint32_t dbcs, const StrategyOptions& options) {
  const auto strategy = StrategyRegistry::Global().Find(name);
  if (!strategy) throw std::invalid_argument(std::string(name));
  return strategy->Run({&seq, dbcs, kUnboundedCapacity, options}).placement;
}

TEST(Strategy, RegisteredNamesCoverTheDocumentedGrid) {
  const auto names = StrategyRegistry::Global().Names();
  const auto has = [&](const std::string& name) {
    return std::find(names.begin(), names.end(), name) != names.end();
  };
  // Names like "afd-sr" and "dma2-ofu" used to parse without ever being
  // listed anywhere; now the registry is the single source of truth.
  for (const char* inter : {"afd", "dma", "dma2"}) {
    for (const char* intra : {"none", "ofu", "chen", "sr", "ge"}) {
      EXPECT_TRUE(has(std::string(inter) + "-" + intra))
          << inter << "-" << intra;
    }
  }
  EXPECT_TRUE(has("ga"));
  EXPECT_TRUE(has("rw"));
}

TEST(Strategy, FindIsCaseInsensitive) {
  const auto strategy = StrategyRegistry::Global().Find("DMA-SR");
  ASSERT_NE(strategy, nullptr);
  EXPECT_EQ(strategy->Describe().name, "dma-sr");
}

TEST(Strategy, FindRejectsUnknownNames) {
  const auto& registry = StrategyRegistry::Global();
  for (const char* name : {"", "dma", "dma-", "xyz-ofu", "dma-xyz",
                           "afd-ofu-extra", " dma-sr", "ga2"}) {
    EXPECT_EQ(registry.Find(name), nullptr) << "'" << name << "'";
  }
}

TEST(Strategy, DefaultGridIsTheSixOfSectionIvA) {
  const std::vector<std::string> expected = {"afd-ofu", "dma-ofu", "dma-chen",
                                             "dma-sr",  "ga",      "rw"};
  const auto strategies = sim::ExperimentOptions{}.strategies;
  EXPECT_EQ(strategies, expected);
  for (const std::string& name : strategies) {
    const auto strategy = StrategyRegistry::Global().Find(name);
    ASSERT_NE(strategy, nullptr) << name;
    EXPECT_EQ(strategy->Describe().name, name);
  }
}

TEST(Strategy, EveryPaperSolutionProducesCompletePlacements) {
  const auto seq = AccessSequence::FromCompactString(
      "g" "ababab" "g" "cdcdcd" "g" "efef" "g");
  StrategyOptions options;
  ScaleSearchEffort(options, 0.02);
  for (const std::string& name : sim::ExperimentOptions{}.strategies) {
    const Placement p = Place(name, seq, 4, options);
    EXPECT_TRUE(p.IsComplete()) << name;
    p.CheckInvariants();
  }
}

TEST(Strategy, ScaleSearchEffortScalesAndFloors) {
  StrategyOptions options;
  ScaleSearchEffort(options, 0.1);
  EXPECT_EQ(options.ga.generations, 20u);
  EXPECT_EQ(options.ga.mu, 10u);
  EXPECT_EQ(options.rw.iterations, 6000u);
  StrategyOptions tiny;
  ScaleSearchEffort(tiny, 1e-6);
  EXPECT_GE(tiny.ga.mu, 4u);
  EXPECT_GE(tiny.ga.generations, 1u);
  EXPECT_GE(tiny.rw.iterations, 1u);
  StrategyOptions bad;
  EXPECT_THROW(ScaleSearchEffort(bad, 0.0), std::invalid_argument);
}

TEST(Strategy, GaRespectsInjectedCostOptions) {
  // With kZero alignment the absolute costs grow; the GA must optimize
  // under the same model it reports.
  const auto seq = AccessSequence::FromCompactString("abcdabcdabcd");
  StrategyOptions options;
  ScaleSearchEffort(options, 0.02);
  options.cost.initial_alignment = rtm::InitialAlignment::kZero;
  const Placement p = Place("ga", seq, 2, options);
  EXPECT_TRUE(p.IsComplete());
}

TEST(Strategy, DmaMultiIsAvailableViaRegistry) {
  const auto seq = AccessSequence::FromCompactString("aabb" "xyxy" "ccdd");
  const Placement p = Place("dma2-ofu", seq, 4, {});
  EXPECT_TRUE(p.IsComplete());
  p.CheckInvariants();
}

}  // namespace
}  // namespace rtmp::core

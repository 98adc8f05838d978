#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <span>
#include <vector>

#include "core/cost_model.h"
#include "core/inter_afd.h"
#include "core/inter_dma.h"
#include "trace/access_sequence.h"
#include "trace/generators.h"
#include "trace/liveliness.h"
#include "trace/variable_stats.h"
#include "util/rng.h"

namespace rtmp::core {
namespace {

using trace::AccessSequence;

std::vector<trace::VariableStats> StatsOf(const AccessSequence& seq) {
  return trace::ComputeVariableStats(seq);
}

TEST(DmaSelection, PicksBackToBackChains) {
  // aa bb cc: all disjoint, nothing nested -> all selected.
  const auto seq = AccessSequence::FromCompactString("aabbcc");
  const auto disjoint = SelectDisjointVariables(StatsOf(seq));
  EXPECT_EQ(disjoint, (std::vector<trace::VariableId>{0, 1, 2}));
}

TEST(DmaSelection, SkipsOverlappingVariables) {
  // a and b interleave: only the earlier one can be taken.
  const auto seq = AccessSequence::FromCompactString("abab");
  const auto disjoint = SelectDisjointVariables(StatsOf(seq));
  // a: nested set empty -> selected (freq 2 > 0); b overlaps a's pick
  // window (F_b=1 <= L_a=2) -> skipped.
  EXPECT_EQ(disjoint, (std::vector<trace::VariableId>{0}));
}

TEST(DmaSelection, RejectsEnvelopeWithHeavyNestedTraffic) {
  // outer spans everything; inner variables carry more accesses.
  const auto seq = AccessSequence::FromCompactString("o" "bb" "cc" "o");
  const auto disjoint = SelectDisjointVariables(StatsOf(seq));
  // o(freq 2) vs nested b+c (4): rejected; then b, c are picked.
  EXPECT_EQ(disjoint.size(), 2u);
  EXPECT_EQ(disjoint[0], *seq.FindVariable("b"));
  EXPECT_EQ(disjoint[1], *seq.FindVariable("c"));
}

TEST(DmaSelection, AcceptsEnvelopeWithLightNestedTraffic) {
  // outer has 4 accesses, single nested variable has 2.
  const auto seq = AccessSequence::FromCompactString("oo" "bb" "oo");
  const auto disjoint = SelectDisjointVariables(StatsOf(seq));
  EXPECT_EQ(disjoint, (std::vector<trace::VariableId>{0}));
}

TEST(DmaSelection, NestedSumSkipsAlreadySelected) {
  // After selecting b, its frequency must not count against later
  // candidates whose lifespan contains b's... construct: b early, then x
  // whose span contains c only.
  const auto seq = AccessSequence::FromCompactString("bb" "x" "cc" "x");
  const auto stats = StatsOf(seq);
  const auto disjoint = SelectDisjointVariables(stats);
  // b selected; x: nested = {c} (freq 2) vs freq(x)=2 -> not selected
  // (strict >); c: F_c=3 > L_b=1, nested empty -> selected.
  EXPECT_EQ(disjoint.size(), 2u);
  EXPECT_EQ(disjoint[0], *seq.FindVariable("b"));
  EXPECT_EQ(disjoint[1], *seq.FindVariable("c"));
}

TEST(DmaSelection, SelectionIsPairwiseDisjoint) {
  const char* traces[] = {
      "aabbcc", "ababcdcd", "abcabc", "aabb" "ccdd" "ee",
      "xyzzyx" "aabb",
  };
  for (const char* text : traces) {
    const auto seq = AccessSequence::FromCompactString(text);
    const auto stats = StatsOf(seq);
    const auto disjoint = SelectDisjointVariables(stats);
    EXPECT_TRUE(trace::AllPairwiseDisjoint(stats, disjoint)) << text;
  }
}

TEST(DmaSelection, IgnoresAbsentVariables) {
  AccessSequence seq;
  seq.AddVariable("ghost");
  seq.AddVariable("a");
  seq.Append(1);
  seq.Append(1);
  const auto disjoint = SelectDisjointVariables(StatsOf(seq));
  EXPECT_EQ(disjoint, (std::vector<trace::VariableId>{1}));
}

// Algorithm 1 lines 5-12 as first implemented: for every candidate, scan
// all unselected variables for lifespans nested inside it (O(m * n)).
// Kept here as the reference the swept nested sums must reproduce.
std::vector<VariableId> ScanningSelectDisjoint(
    std::span<const trace::VariableStats> stats) {
  std::vector<VariableId> by_first;
  for (VariableId v = 0; v < stats.size(); ++v) {
    if (stats[v].first != trace::kNever) by_first.push_back(v);
  }
  std::sort(by_first.begin(), by_first.end(),
            [&stats](VariableId a, VariableId b) {
              return stats[a].first < stats[b].first;
            });
  std::vector<VariableId> unselected(stats.size());
  std::iota(unselected.begin(), unselected.end(), VariableId{0});
  std::vector<VariableId> disjoint;
  std::int64_t tmin = -1;
  for (const VariableId v : by_first) {
    const trace::VariableStats& sv = stats[v];
    if (static_cast<std::int64_t>(sv.first) <= tmin) continue;
    if (sv.frequency > trace::SumNestedFrequency(stats, sv, unselected)) {
      disjoint.push_back(v);
      std::erase(unselected, v);
      tmin = static_cast<std::int64_t>(sv.last);
    }
  }
  return disjoint;
}

/// A small sequence drawn from one of the synthetic families.
AccessSequence RandomSequence(util::Rng& rng) {
  switch (rng.NextBelow(5)) {
    case 0: {
      trace::PhasedParams params;
      params.num_phases = 2 + rng.NextBelow(5);
      params.vars_per_phase = 2 + rng.NextBelow(8);
      params.accesses_per_phase = 8 + rng.NextBelow(60);
      return trace::GeneratePhased(params, rng);
    }
    case 1: {
      trace::SequentialParams params;
      params.num_vars = 8 + rng.NextBelow(40);
      params.length = 32 + rng.NextBelow(300);
      return trace::GenerateSequential(params, rng);
    }
    case 2: {
      trace::MarkovParams params;
      params.num_vars = 4 + rng.NextBelow(40);
      params.length = 16 + rng.NextBelow(300);
      return trace::GenerateMarkov(params, rng);
    }
    case 3: {
      trace::ZipfParams params;
      params.num_vars = 4 + rng.NextBelow(40);
      params.length = 16 + rng.NextBelow(300);
      return trace::GenerateZipf(params, rng);
    }
    default: {
      trace::LoopNestParams params;
      params.num_arrays = 1 + rng.NextBelow(3);
      params.array_len = 2 + rng.NextBelow(8);
      params.iterations = 1 + rng.NextBelow(4);
      params.num_kernels = 1 + rng.NextBelow(3);
      return trace::GenerateLoopNest(params, rng);
    }
  }
}

TEST(DmaSelection, SweepMatchesScanningReferenceOnRandomSequences) {
  util::Rng rng(0xD3A5EEDULL);
  for (int trial = 0; trial < 400; ++trial) {
    const AccessSequence seq = RandomSequence(rng);
    const auto stats = StatsOf(seq);
    EXPECT_EQ(SelectDisjointVariables(stats), ScanningSelectDisjoint(stats))
        << "trial " << trial;
  }
}

TEST(DmaSelection, SweepMatchesScanningReferenceOnHandBuiltStats) {
  // Narrow position ranges force repeated `first` and `last` values;
  // about one variable in five is absent.
  util::Rng rng(0x57A75ULL);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<trace::VariableStats> stats(rng.NextBelow(40));
    const std::size_t span = 1 + rng.NextBelow(16);
    for (trace::VariableStats& s : stats) {
      if (rng.NextBool(0.2)) continue;  // absent: the default kNever stats
      s.first = rng.NextBelow(span);
      s.last = s.first + rng.NextBelow(span);
      s.frequency = 1 + rng.NextBelow(8);
    }
    EXPECT_EQ(SelectDisjointVariables(stats), ScanningSelectDisjoint(stats))
        << "trial " << trial;
  }
}

TEST(DmaDistribute, DisjointSetKeepsAccessOrderInLeadDbc) {
  const auto seq = AccessSequence::FromCompactString("bb" "aa" "cc");
  const auto result = DistributeDma(seq, 2, kUnboundedCapacity, {});
  EXPECT_EQ(result.disjoint_dbc_count, 1u);
  // Access order: b, a, c.
  EXPECT_EQ(result.placement.dbc(0),
            (std::vector<trace::VariableId>{0, 1, 2}));
}

TEST(DmaDistribute, CompleteAndValidAcrossShapes) {
  const char* traces[] = {"a", "ab", "aabbcc", "abcabcabc",
                          "aabb" "xyxy" "ccdd"};
  for (const char* text : traces) {
    const auto seq = AccessSequence::FromCompactString(text);
    for (const std::uint32_t q : {1u, 2u, 4u}) {
      const auto result = DistributeDma(seq, q, kUnboundedCapacity, {});
      EXPECT_TRUE(result.placement.IsComplete()) << text << " q=" << q;
      result.placement.CheckInvariants();
    }
  }
}

TEST(DmaDistribute, RespectsCapacityAndSplitsDisjointSet) {
  // Six disjoint variables, capacity 2 -> K = 3 DBCs for the set.
  const auto seq = AccessSequence::FromCompactString("aabbccddeeff");
  const auto result = DistributeDma(seq, 4, 2, {});
  result.placement.CheckInvariants();
  EXPECT_EQ(result.disjoint.size(), 6u);
  EXPECT_EQ(result.disjoint_dbc_count, 3u);
  for (std::uint32_t d = 0; d < 4; ++d) {
    EXPECT_LE(result.placement.dbc(d).size(), 2u);
  }
}

TEST(DmaDistribute, DisjointRoundRobinPreservesPerDbcOrder) {
  // With K=2, the set {a,b,c,d} interleaves a,c | b,d; each DBC's order
  // must still be ascending in first occurrence (monotone walk).
  const auto seq = AccessSequence::FromCompactString("aabbccdd");
  const auto result = DistributeDma(seq, 3, 2, {});
  ASSERT_EQ(result.disjoint_dbc_count, 2u);
  const auto& dbc0 = result.placement.dbc(0);
  const auto& dbc1 = result.placement.dbc(1);
  EXPECT_EQ(dbc0, (std::vector<trace::VariableId>{0, 2}));
  EXPECT_EQ(dbc1, (std::vector<trace::VariableId>{1, 3}));
}

TEST(DmaDistribute, TrimsDisjointSetWhenDbcsAreScarce) {
  // Five disjoint variables + one non-disjoint, 2 DBCs, capacity 3:
  // K would be 2 but one DBC must stay for the leftover -> trim to 3.
  const auto seq = AccessSequence::FromCompactString("aabbccddee" "xx");
  // x overlaps nothing? Put x interleaved with e to make it non-disjoint.
  const auto seq2 = AccessSequence::FromCompactString("aabbccdd" "exexe");
  const auto result = DistributeDma(seq2, 2, 6, {});
  result.placement.CheckInvariants();
  EXPECT_TRUE(result.placement.IsComplete());
  EXPECT_LE(result.disjoint_dbc_count, 1u);
  (void)seq;
}

TEST(DmaDistribute, LeftoversAreFrequencySorted) {
  // Positions: x0 z1 y2 z3 z4 x5 x6 y7 -> x:[0,6] f3, z:[1,4] f3,
  // y:[2,7] f2. x is rejected (z nests inside it with equal traffic),
  // z is selected (tmin = 4), y starts at 2 <= 4 so it stays non-disjoint.
  // Leftovers must deal in descending frequency: x (3) before y (2).
  const auto seq = AccessSequence::FromCompactString("xzyzzxxy");
  const auto result =
      DistributeDma(seq, 2, kUnboundedCapacity, {IntraHeuristic::kNone});
  ASSERT_EQ(result.disjoint_dbc_count, 1u);
  EXPECT_EQ(result.disjoint,
            (std::vector<trace::VariableId>{*seq.FindVariable("z")}));
  const auto& leftovers = result.placement.dbc(1);
  ASSERT_EQ(leftovers.size(), 2u);
  EXPECT_EQ(leftovers[0], *seq.FindVariable("x"));
  EXPECT_EQ(leftovers[1], *seq.FindVariable("y"));
}

TEST(DmaDistribute, ThrowsWhenVariablesExceedTotalCapacity) {
  const auto seq = AccessSequence::FromCompactString("abcdef");
  EXPECT_THROW(DistributeDma(seq, 2, 2, {}), std::invalid_argument);
}

TEST(DmaDistribute, SingleDbcDegeneratesGracefully) {
  const auto seq = AccessSequence::FromCompactString("aabb" "xyxy");
  const auto result = DistributeDma(seq, 1, kUnboundedCapacity, {});
  EXPECT_TRUE(result.placement.IsComplete());
  EXPECT_EQ(result.placement.num_dbcs(), 1u);
  result.placement.CheckInvariants();
}

TEST(DmaDistribute, AllDisjointSingleDbcKeepsAccessOrder) {
  const auto seq = AccessSequence::FromCompactString("aabbcc");
  const auto result = DistributeDma(seq, 1, kUnboundedCapacity, {});
  EXPECT_EQ(result.placement.dbc(0),
            (std::vector<trace::VariableId>{0, 1, 2}));
}

TEST(DmaDistribute, PhasedWorkloadBeatsAfd) {
  // Three phases with disjoint hot sets plus persistent globals: the
  // showcase workload for liveliness-aware distribution.
  const auto seq = AccessSequence::FromCompactString(
      "g" "ababab" "g" "cdcdcd" "g" "efefef" "g");
  const Placement afd =
      DistributeAfd(seq, 2, kUnboundedCapacity, {IntraHeuristic::kOfu});
  const auto dma =
      DistributeDma(seq, 2, kUnboundedCapacity, {IntraHeuristic::kOfu});
  EXPECT_LE(ShiftCost(seq, dma.placement), ShiftCost(seq, afd));
}

TEST(DmaDistribute, DisjointDbcObeysTheLMinusOneBound) {
  const char* traces[] = {"aabbcc", "aaabbbccc", "abbcccddddd" "xyxy"};
  for (const char* text : traces) {
    const auto seq = AccessSequence::FromCompactString(text);
    const auto result = DistributeDma(seq, 2, kUnboundedCapacity, {});
    if (result.disjoint.empty()) continue;
    const auto per_dbc = PerDbcShiftCost(seq, result.placement);
    std::uint64_t disjoint_cost = 0;
    for (std::uint32_t d = 0; d < result.disjoint_dbc_count; ++d) {
      disjoint_cost += per_dbc[d];
    }
    EXPECT_LE(disjoint_cost, result.disjoint.size() - 1) << text;
  }
}

}  // namespace
}  // namespace rtmp::core

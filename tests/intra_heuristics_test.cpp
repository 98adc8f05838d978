#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cost_model.h"
#include "core/intra_heuristics.h"
#include "core/placement.h"
#include "trace/access_sequence.h"
#include "trace/generators.h"
#include "util/rng.h"
#include "util/strings.h"

namespace rtmp::core {
namespace {

using trace::AccessSequence;

std::vector<VariableId> AllVars(const AccessSequence& seq) {
  std::vector<VariableId> vars(seq.num_variables());
  for (std::size_t i = 0; i < vars.size(); ++i) {
    vars[i] = static_cast<VariableId>(i);
  }
  return vars;
}

std::uint64_t CostOf(const AccessSequence& seq,
                     const std::vector<VariableId>& order) {
  return WalkCost(seq.accesses(), order, seq.num_variables());
}

bool IsPermutationOf(const std::vector<VariableId>& order,
                     const std::vector<VariableId>& vars) {
  auto a = order;
  auto b = vars;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

TEST(IntraHeuristics, NoneKeepsInputOrder) {
  const auto seq = AccessSequence::FromCompactString("cba");
  const std::vector<VariableId> vars{2, 0, 1};
  const auto order = OrderVariables(IntraHeuristic::kNone, seq.accesses(),
                                    vars, seq.num_variables());
  EXPECT_EQ(order, vars);
}

TEST(IntraHeuristics, OfuOrdersByFirstUse) {
  const auto seq = AccessSequence::FromCompactString("cabcab");
  const auto vars = AllVars(seq);
  const auto order = OrderVariables(IntraHeuristic::kOfu, seq.accesses(),
                                    vars, seq.num_variables());
  // First uses: c, a, b -> ids 0, 1, 2 (ids assigned by first appearance).
  EXPECT_EQ(order, (std::vector<VariableId>{0, 1, 2}));
}

TEST(IntraHeuristics, OfuOnRestrictedSubsequence) {
  const auto seq = AccessSequence::FromCompactString("xaxbxa");
  // Subset {a, b}: first uses a then b.
  const std::vector<VariableId> subset{
      *seq.FindVariable("a"), *seq.FindVariable("b")};
  const auto restricted = seq.Restrict(subset);
  const auto order = OrderVariables(IntraHeuristic::kOfu, restricted, subset,
                                    seq.num_variables());
  EXPECT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], *seq.FindVariable("a"));
  EXPECT_EQ(order[1], *seq.FindVariable("b"));
}

TEST(IntraHeuristics, ChenPlacesStronglyCoupledPairAdjacent) {
  // a-b consecutive 8 times, c touches a twice: b must sit next to a.
  const auto seq = AccessSequence::FromCompactString("abababab" "ca" "c");
  const auto vars = AllVars(seq);
  const auto order = OrderVariables(IntraHeuristic::kChen, seq.accesses(),
                                    vars, seq.num_variables());
  const auto pos_a = std::find(order.begin(), order.end(), 0u) - order.begin();
  const auto pos_b = std::find(order.begin(), order.end(), 1u) - order.begin();
  EXPECT_EQ(std::abs(pos_a - pos_b), 1);
}

TEST(IntraHeuristics, UnusedVariablesGoLastInIdOrder) {
  AccessSequence seq;
  seq.AddVariable("a");
  seq.AddVariable("ghost2");
  seq.AddVariable("b");
  seq.AddVariable("ghost1");
  seq.Append(0);
  seq.Append(2);
  seq.Append(0);
  const std::vector<VariableId> vars{0, 1, 2, 3};
  for (const auto h : {IntraHeuristic::kOfu, IntraHeuristic::kChen,
                       IntraHeuristic::kShiftsReduce}) {
    const auto order =
        OrderVariables(h, seq.accesses(), vars, seq.num_variables());
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[2], 1u) << ToString(h);  // ghost2 (lower id first)
    EXPECT_EQ(order[3], 3u) << ToString(h);  // ghost1
  }
}

class IntraOrderValidity
    : public ::testing::TestWithParam<IntraHeuristic> {};

TEST_P(IntraOrderValidity, ProducesPermutations) {
  const char* traces[] = {
      "a",
      "ab",
      "aaaa",
      "abcabcabc",
      "abcdefghij",
      "aabbaabbccdd",
      "zyxwvu" "uvwxyz" "zzz",
  };
  for (const char* text : traces) {
    const auto seq = AccessSequence::FromCompactString(text);
    const auto vars = AllVars(seq);
    const auto order =
        OrderVariables(GetParam(), seq.accesses(), vars, seq.num_variables());
    EXPECT_TRUE(IsPermutationOf(order, vars)) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(AllHeuristics, IntraOrderValidity,
                         ::testing::Values(IntraHeuristic::kNone,
                                           IntraHeuristic::kOfu,
                                           IntraHeuristic::kChen,
                                           IntraHeuristic::kShiftsReduce,
                                           IntraHeuristic::kGreedyEdge));

TEST(IntraHeuristics, GreedyEdgeKeepsHeavyPairsAdjacent) {
  // Two heavy pairs (a,b) and (c,d) with light cross edges: both pairs
  // must end up adjacent regardless of everything else.
  const auto seq = AccessSequence::FromCompactString(
      "abababab" "cdcdcdcd" "ac" "bd");
  const auto vars = AllVars(seq);
  const auto order = OrderVariables(IntraHeuristic::kGreedyEdge,
                                    seq.accesses(), vars,
                                    seq.num_variables());
  auto pos = [&order](VariableId v) {
    return std::find(order.begin(), order.end(), v) - order.begin();
  };
  EXPECT_EQ(std::abs(pos(0) - pos(1)), 1);  // a next to b
  EXPECT_EQ(std::abs(pos(2) - pos(3)), 1);  // c next to d
}

TEST(IntraHeuristics, GreedyEdgeAvoidsCyclesAndDegreeOverflow) {
  // A clique-ish trace: the path cover must still be a permutation and
  // never crash on cycle-closing edges.
  const auto seq = AccessSequence::FromCompactString(
      "abcabcacbacbabc" "ddd");
  const auto vars = AllVars(seq);
  const auto order = OrderVariables(IntraHeuristic::kGreedyEdge,
                                    seq.accesses(), vars,
                                    seq.num_variables());
  EXPECT_TRUE(IsPermutationOf(order, vars));
}

TEST(IntraHeuristics, GreedyEdgeBeatsOfuOnPingPong) {
  const auto seq = AccessSequence::FromCompactString(
      "abcde" "aeaeaeaeaeaeaeae");
  const auto vars = AllVars(seq);
  const auto ofu = OrderVariables(IntraHeuristic::kOfu, seq.accesses(), vars,
                                  seq.num_variables());
  const auto ge = OrderVariables(IntraHeuristic::kGreedyEdge,
                                 seq.accesses(), vars, seq.num_variables());
  EXPECT_LT(CostOf(seq, ge), CostOf(seq, ofu));
}

TEST(IntraHeuristics, ChenBeatsPathologicalOfu) {
  // First-use order is adversarial: the trace then ping-pongs between
  // variables that OFU separates maximally.
  const auto seq = AccessSequence::FromCompactString(
      "abcde" "aeaeaeaeaeaeaeae");
  const auto vars = AllVars(seq);
  const auto ofu = OrderVariables(IntraHeuristic::kOfu, seq.accesses(), vars,
                                  seq.num_variables());
  const auto chen = OrderVariables(IntraHeuristic::kChen, seq.accesses(),
                                   vars, seq.num_variables());
  EXPECT_LT(CostOf(seq, chen), CostOf(seq, ofu));
}

TEST(IntraHeuristics, ShiftsReduceNeverWorseThanChenOnSamples) {
  const char* traces[] = {
      "abcabcabc",
      "abcde" "aeaeaeae" "bdbdbd",
      "qwerty" "ytrewq" "qqqwww",
      "abacadaeafag",
      "mnopmnopxyzxyz",
  };
  for (const char* text : traces) {
    const auto seq = AccessSequence::FromCompactString(text);
    const auto vars = AllVars(seq);
    const auto chen = OrderVariables(IntraHeuristic::kChen, seq.accesses(),
                                     vars, seq.num_variables());
    const auto sr = OrderVariables(IntraHeuristic::kShiftsReduce,
                                   seq.accesses(), vars, seq.num_variables());
    EXPECT_LE(CostOf(seq, sr), CostOf(seq, chen)) << text;
  }
}

TEST(IntraHeuristics, ShiftsReduceFindsOptimalChainForLinearScan) {
  // Trace walks a..e linearly twice; the identity order is optimal (cost 4
  // per sweep after the first access + 4 to return).
  const auto seq = AccessSequence::FromCompactString("abcdeabcde");
  const auto vars = AllVars(seq);
  const auto sr = OrderVariables(IntraHeuristic::kShiftsReduce,
                                 seq.accesses(), vars, seq.num_variables());
  // Optimal arrangements place consecutive letters adjacently.
  EXPECT_LE(CostOf(seq, sr), 12u);
}

TEST(IntraHeuristics, ApplyIntraReordersPlacementInPlace) {
  const auto seq = AccessSequence::FromCompactString("abab" "cd");
  Placement p = Placement::FromLists({{3, 0, 2, 1}}, 4);
  const auto before = ShiftCost(seq, p);
  ApplyIntra(IntraHeuristic::kShiftsReduce, seq, p, 0, 1);
  p.CheckInvariants();
  EXPECT_LE(ShiftCost(seq, p), before);
}

TEST(IntraHeuristics, ApplyIntraSkipsTinyDbcs) {
  const auto seq = AccessSequence::FromCompactString("ab");
  Placement p = Placement::FromLists({{0}, {1}}, 2);
  ApplyIntra(IntraHeuristic::kChen, seq, p, 0, 2);  // no-op, must not throw
  p.CheckInvariants();
}

TEST(IntraHeuristics, ApplyIntraRejectsBadRanges) {
  const auto seq = AccessSequence::FromCompactString("abab");
  Placement p = Placement::FromLists({{0}, {1}}, 2);
  EXPECT_THROW(ApplyIntra(IntraHeuristic::kOfu, seq, p, 1, 0),
               std::out_of_range);
  EXPECT_THROW(ApplyIntra(IntraHeuristic::kOfu, seq, p, 0, 3),
               std::out_of_range);
  ApplyIntra(IntraHeuristic::kOfu, seq, p, 2, 2);  // empty range: no-op
  p.CheckInvariants();
}

// ApplyIntra as first implemented: one DBC per call, each driven by its
// own Restrict() copy of the sequence. Kept here as the reference the
// bucketed range pass must reproduce.
void RestrictingApplyIntra(IntraHeuristic heuristic, const AccessSequence& seq,
                           Placement& placement, std::uint32_t dbc) {
  if (heuristic == IntraHeuristic::kNone) return;
  const auto& vars = placement.dbc(dbc);
  if (vars.size() < 2) return;
  const std::vector<trace::Access> restricted = seq.Restrict(vars);
  placement.Reorder(dbc, OrderVariables(heuristic, restricted, vars,
                                        seq.num_variables()));
}

constexpr IntraHeuristic kAllHeuristics[] = {
    IntraHeuristic::kNone, IntraHeuristic::kOfu, IntraHeuristic::kChen,
    IntraHeuristic::kShiftsReduce, IntraHeuristic::kGreedyEdge};

// A random Markov (even trials) or phased (odd trials) sequence.
AccessSequence RandomTrialSequence(int trial, util::Rng& rng) {
  if (trial % 2 == 0) {
    trace::MarkovParams params;
    params.num_vars = 2 + rng.NextBelow(40);
    params.length = 1 + rng.NextBelow(300);
    return trace::GenerateMarkov(params, rng);
  }
  trace::PhasedParams params;
  params.num_phases = 1 + rng.NextBelow(5);
  params.vars_per_phase = 1 + rng.NextBelow(8);
  params.accesses_per_phase = 1 + rng.NextBelow(60);
  return trace::GeneratePhased(params, rng);
}

// A random, partly filled placement: about one variable in eight stays
// unplaced.
Placement RandomPartialPlacement(const AccessSequence& seq, util::Rng& rng) {
  const auto num_dbcs = static_cast<std::uint32_t>(1 + rng.NextBelow(8));
  Placement placement(seq.num_variables(), num_dbcs);
  for (VariableId v = 0; v < seq.num_variables(); ++v) {
    if (rng.NextBool(0.875)) {
      placement.Append(static_cast<std::uint32_t>(rng.NextBelow(num_dbcs)),
                       v);
    }
  }
  return placement;
}

TEST(IntraHeuristics, RangeApplyMatchesPerDbcRestrictReference) {
  util::Rng rng(0x1A7EA5EEDULL);
  for (int trial = 0; trial < 200; ++trial) {
    const AccessSequence seq = RandomTrialSequence(trial, rng);
    const Placement base = RandomPartialPlacement(seq, rng);
    const std::uint32_t num_dbcs = base.num_dbcs();
    const auto first = static_cast<std::uint32_t>(rng.NextBelow(num_dbcs));
    const auto end = static_cast<std::uint32_t>(
        first + 1 + rng.NextBelow(num_dbcs - first));
    for (const IntraHeuristic heuristic : kAllHeuristics) {
      Placement got = base;
      ApplyIntra(heuristic, seq, got, first, end);
      Placement want = base;
      for (std::uint32_t d = first; d < end; ++d) {
        RestrictingApplyIntra(heuristic, seq, want, d);
      }
      EXPECT_EQ(got, want) << "trial " << trial << " heuristic "
                           << ToString(heuristic);
      got.CheckInvariants();
    }
  }
}

// One range call reuses its workspace across DBCs; one call per DBC
// builds a fresh one each time. Both must place identically.
TEST(IntraHeuristics, RangeApplyMatchesOneCallPerDbc) {
  util::Rng rng(0xC5A11DBCULL);
  for (int trial = 0; trial < 200; ++trial) {
    const AccessSequence seq = RandomTrialSequence(trial, rng);
    const Placement base = RandomPartialPlacement(seq, rng);
    for (const IntraHeuristic heuristic : kAllHeuristics) {
      Placement got = base;
      ApplyIntra(heuristic, seq, got, 0, base.num_dbcs());
      Placement want = base;
      for (std::uint32_t d = 0; d < base.num_dbcs(); ++d) {
        ApplyIntra(heuristic, seq, want, d, d + 1);
      }
      EXPECT_EQ(got, want) << "trial " << trial << " heuristic "
                           << ToString(heuristic);
    }
  }
}

// The member split LocalWorkspace::Build made before ApplyIntra kept
// never-accessed members out of it: mark every member, walk the DBC's
// accesses (local ids by first access), then sort the members left
// unseen. Kept here as the reference for that split.
struct ReferenceSplit {
  std::vector<trace::Access> accesses;  // the DBC's, in sequence order
  std::vector<VariableId> accessed;     // by first access
  std::vector<VariableId> unused;       // ascending id
};

ReferenceSplit PerDbcBuildSplit(const AccessSequence& seq,
                                const std::vector<VariableId>& vars) {
  constexpr std::uint32_t kOutside = ~std::uint32_t{0};
  constexpr std::uint32_t kUnseen = kOutside - 1;
  std::vector<std::uint32_t> to_local(seq.num_variables(), kOutside);
  for (const VariableId v : vars) {
    if (v >= seq.num_variables()) {
      throw std::out_of_range("OrderVariables: variable id out of range");
    }
    to_local[v] = kUnseen;
  }
  ReferenceSplit split;
  for (const trace::Access& a : seq.accesses()) {
    std::uint32_t& slot = to_local[a.variable];
    if (slot == kOutside) continue;
    if (slot == kUnseen) {
      slot = static_cast<std::uint32_t>(split.accessed.size());
      split.accessed.push_back(a.variable);
    }
    split.accesses.push_back(a);
  }
  for (const VariableId v : vars) {
    if (to_local[v] == kUnseen) split.unused.push_back(v);
  }
  std::sort(split.unused.begin(), split.unused.end());
  return split;
}

// ApplyIntra over [first, end) from the reference split: OFU is the
// accessed members in first-access order; the other heuristics order
// the accessed members alone; the never-accessed tail follows.
void SplitApplyIntra(IntraHeuristic heuristic, const AccessSequence& seq,
                     Placement& placement, std::uint32_t first,
                     std::uint32_t end) {
  if (heuristic == IntraHeuristic::kNone) return;
  for (std::uint32_t d = first; d < end; ++d) {
    const auto& vars = placement.dbc(d);
    if (vars.size() < 2) continue;
    const ReferenceSplit split = PerDbcBuildSplit(seq, vars);
    std::vector<VariableId> order =
        heuristic == IntraHeuristic::kOfu
            ? split.accessed
            : OrderVariables(heuristic, split.accesses, split.accessed,
                             seq.num_variables());
    order.insert(order.end(), split.unused.begin(), split.unused.end());
    placement.Reorder(d, std::move(order));
  }
}

// A sequence over `num_vars` variables whose accesses touch only a few
// of them, and a placement of all of them over many DBCs: most members
// are never accessed, and some DBCs hold a single member.
AccessSequence SparseSequence(std::size_t num_vars, util::Rng& rng) {
  AccessSequence seq;
  for (std::size_t v = 0; v < num_vars; ++v) {
    (void)seq.AddVariable(util::Concat({"v", std::to_string(v)}));
  }
  std::vector<VariableId> hot;
  const std::size_t num_hot = 1 + rng.NextBelow(1 + num_vars / 10);
  for (std::size_t i = 0; i < num_hot; ++i) {
    hot.push_back(static_cast<VariableId>(rng.NextBelow(num_vars)));
  }
  const std::size_t length = rng.NextBelow(300);
  for (std::size_t i = 0; i < length; ++i) {
    seq.Append(hot[rng.NextBelow(hot.size())]);
  }
  return seq;
}

TEST(IntraHeuristics, RangeApplyMatchesPerDbcBuildSplit) {
  util::Rng rng(0x5B117B1DULL);
  for (int trial = 0; trial < 300; ++trial) {
    const bool sparse = trial % 2 == 0;
    const AccessSequence seq =
        sparse ? SparseSequence(2 + rng.NextBelow(600), rng)
               : RandomTrialSequence(trial, rng);
    Placement base = RandomPartialPlacement(seq, rng);
    if (sparse) {
      // Many DBCs for few members each: single-member and empty DBCs.
      base = Placement(seq.num_variables(),
                       static_cast<std::uint32_t>(
                           1 + rng.NextBelow(seq.num_variables())));
      for (VariableId v = 0; v < seq.num_variables(); ++v) {
        base.Append(static_cast<std::uint32_t>(rng.NextBelow(base.num_dbcs())),
                    v);
      }
    }
    const std::uint32_t num_dbcs = base.num_dbcs();
    const auto first = static_cast<std::uint32_t>(rng.NextBelow(num_dbcs));
    const auto end = static_cast<std::uint32_t>(
        first + 1 + rng.NextBelow(num_dbcs - first));
    for (const IntraHeuristic heuristic : kAllHeuristics) {
      Placement got = base;
      ApplyIntra(heuristic, seq, got, first, end);
      Placement want = base;
      SplitApplyIntra(heuristic, seq, want, first, end);
      EXPECT_EQ(got, want) << "trial " << trial << " heuristic "
                           << ToString(heuristic);
      got.CheckInvariants();
    }
  }
}

// A member id beyond the sequence's variable space is an error in a DBC
// ApplyIntra orders, raised before any DBC is reordered; a single-member
// DBC is never ordered, so it may hold one.
TEST(IntraHeuristics, ApplyIntraRejectsOutOfRangeMembers) {
  const auto seq = AccessSequence::FromCompactString("ababcdcd");  // 4 vars
  const Placement base = Placement::FromLists({{1, 0}, {3, 2, 5}, {4}}, 6);
  for (const IntraHeuristic heuristic : kAllHeuristics) {
    Placement p = base;
    if (heuristic == IntraHeuristic::kNone) {
      ApplyIntra(heuristic, seq, p, 0, 3);
      EXPECT_EQ(p, base);
      continue;
    }
    EXPECT_THROW(ApplyIntra(heuristic, seq, p, 0, 3), std::out_of_range)
        << ToString(heuristic);
    EXPECT_EQ(p, base) << ToString(heuristic);
    Placement q = base;
    EXPECT_THROW(SplitApplyIntra(heuristic, seq, q, 1, 2), std::out_of_range)
        << ToString(heuristic);
    // Outside DBC 1, which holds id 5, nothing is out of range.
    ApplyIntra(heuristic, seq, p, 0, 1);
    ApplyIntra(heuristic, seq, p, 2, 3);
    Placement want = base;
    SplitApplyIntra(heuristic, seq, want, 0, 1);
    EXPECT_EQ(p, want) << ToString(heuristic);
  }
}

// OrderVariables skips accesses to variables outside `vars`, so the full
// access list and the restricted one must give the same order.
TEST(IntraHeuristics, OrderVariablesFiltersOutsideAccesses) {
  util::Rng rng(0xF117E2EDULL);
  for (int trial = 0; trial < 200; ++trial) {
    const AccessSequence seq = RandomTrialSequence(trial, rng);
    std::vector<VariableId> vars;
    for (VariableId v = 0; v < seq.num_variables(); ++v) {
      if (rng.NextBool(0.5)) vars.push_back(v);
    }
    // Members in a random order: the unused tail must still come out
    // sorted by id.
    for (std::size_t i = vars.size(); i > 1; --i) {
      std::swap(vars[i - 1], vars[rng.NextBelow(i)]);
    }
    const std::vector<trace::Access> restricted = seq.Restrict(vars);
    for (const IntraHeuristic heuristic : kAllHeuristics) {
      EXPECT_EQ(OrderVariables(heuristic, seq.accesses(), vars,
                               seq.num_variables()),
                OrderVariables(heuristic, restricted, vars,
                               seq.num_variables()))
          << "trial " << trial << " heuristic " << ToString(heuristic);
    }
  }
}

TEST(IntraHeuristics, ToStringNames) {
  EXPECT_EQ(ToString(IntraHeuristic::kNone), "none");
  EXPECT_EQ(ToString(IntraHeuristic::kOfu), "ofu");
  EXPECT_EQ(ToString(IntraHeuristic::kChen), "chen");
  EXPECT_EQ(ToString(IntraHeuristic::kShiftsReduce), "sr");
}

}  // namespace
}  // namespace rtmp::core

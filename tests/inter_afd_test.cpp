#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/cost_model.h"
#include "core/inter_afd.h"
#include "trace/access_sequence.h"
#include "trace/variable_stats.h"
#include "util/rng.h"
#include "util/strings.h"

namespace rtmp::core {
namespace {

using trace::AccessSequence;

TEST(Afd, SortIsStableOnTies) {
  // Frequencies: a=2, b=2, c=3 with ids a=0,b=1,c=2.
  const auto seq = AccessSequence::FromCompactString("abcabc" "c");
  const auto stats = trace::ComputeVariableStats(seq);
  const auto order = SortByFrequencyDescending(stats, seq);
  EXPECT_EQ(order, (std::vector<VariableId>{2, 0, 1}));
}

// The frequency order as first implemented: a stable sort of all ids on
// (frequency desc, name asc) with a string comparator. Kept here as the
// reference the name-index walk must reproduce.
std::vector<VariableId> ReferenceFrequencyOrder(
    const std::vector<trace::VariableStats>& stats,
    const AccessSequence& seq) {
  std::vector<VariableId> order(stats.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&stats, &seq](VariableId a, VariableId b) {
                     if (stats[a].frequency != stats[b].frequency) {
                       return stats[a].frequency > stats[b].frequency;
                     }
                     return seq.name_of(a) < seq.name_of(b);
                   });
  return order;
}

// Registers `count` variables with random names: short ones, or (with
// `shared_prefix`) "t<k>/var<j>" names as the serve plane registers them,
// so that comparisons run deep into common prefixes.
void AddRandomVariables(AccessSequence& seq, std::size_t count,
                        bool shared_prefix, util::Rng& rng) {
  for (std::size_t i = 0; i < count; ++i) {
    const std::string j = std::to_string(rng.NextBelow(1000));
    if (shared_prefix) {
      seq.AddVariable(util::Concat(
          {"t", std::to_string(rng.NextBelow(3)), "/var", j}));
    } else {
      seq.AddVariable(util::Concat({"v", j}));
    }
  }
}

// Appends `count` accesses over a random subset of the variables, so that
// some are never accessed and frequencies tie often.
void AppendRandomAccesses(AccessSequence& seq, std::size_t count,
                          util::Rng& rng) {
  if (seq.num_variables() == 0) return;
  const std::size_t hot = 1 + rng.NextBelow(seq.num_variables());
  for (std::size_t i = 0; i < count; ++i) {
    seq.Append(static_cast<VariableId>(rng.NextBelow(hot)));
  }
}

void ExpectReferenceOrder(const AccessSequence& seq, const char* what,
                          int trial) {
  const auto stats = trace::ComputeVariableStats(seq);
  EXPECT_EQ(SortByFrequencyDescending(stats, seq),
            ReferenceFrequencyOrder(stats, seq))
      << what << ", trial " << trial;
}

TEST(Afd, FrequencyOrderMatchesStringSortReference) {
  util::Rng rng(0xAFD0DE5ULL);
  for (int trial = 0; trial < 300; ++trial) {
    const bool shared_prefix = trial % 2 == 1;
    AccessSequence seq;
    AddRandomVariables(seq, rng.NextBelow(60), shared_prefix, rng);
    AppendRandomAccesses(seq, rng.NextBelow(200), rng);
    ExpectReferenceOrder(seq, "fresh", trial);

    // Variables registered after the index was built are merged in.
    AddRandomVariables(seq, rng.NextBelow(30), shared_prefix, rng);
    AppendRandomAccesses(seq, rng.NextBelow(100), rng);
    ExpectReferenceOrder(seq, "grown", trial);

    // Copies and moves carry the built index; each then grows on its own.
    AccessSequence copy = seq;
    AccessSequence assigned;
    assigned = seq;
    AddRandomVariables(copy, 1 + rng.NextBelow(10), shared_prefix, rng);
    ExpectReferenceOrder(copy, "copy", trial);
    ExpectReferenceOrder(assigned, "assigned", trial);
    ExpectReferenceOrder(seq, "copy source", trial);
    AccessSequence moved = std::move(copy);
    AddRandomVariables(moved, 1 + rng.NextBelow(10), shared_prefix, rng);
    ExpectReferenceOrder(moved, "moved", trial);
    AccessSequence move_assigned;
    move_assigned = std::move(assigned);
    AppendRandomAccesses(move_assigned, rng.NextBelow(50), rng);
    ExpectReferenceOrder(move_assigned, "move-assigned", trial);
  }
}

TEST(Afd, FrequencyOrderRejectsMismatchedStats) {
  const auto seq = AccessSequence::FromCompactString("abcabc");
  auto stats = trace::ComputeVariableStats(seq);
  stats.pop_back();
  EXPECT_THROW((void)SortByFrequencyDescending(stats, seq),
               std::invalid_argument);
  stats.resize(seq.num_variables() + 1);
  EXPECT_THROW((void)SortByFrequencyDescending(stats, seq),
               std::invalid_argument);
}

TEST(Afd, RoundRobinDeal) {
  // Distinct frequencies force a known deal order: e(5) d(4) c(3) b(2) a(1).
  const auto seq =
      AccessSequence::FromCompactString("a" "bb" "ccc" "dddd" "eeeee");
  const Placement p =
      DistributeAfd(seq, 2, kUnboundedCapacity, {IntraHeuristic::kNone});
  // ids: a=0 b=1 c=2 d=3 e=4; deal e->0 d->1 c->0 b->1 a->0.
  EXPECT_EQ(p.dbc(0), (std::vector<VariableId>{4, 2, 0}));
  EXPECT_EQ(p.dbc(1), (std::vector<VariableId>{3, 1}));
}

TEST(Afd, PlacesEveryVariableExactlyOnce) {
  const auto seq = AccessSequence::FromCompactString("abcdefgabcdefg");
  for (const std::uint32_t q : {1u, 2u, 3u, 7u, 9u}) {
    const Placement p = DistributeAfd(seq, q, kUnboundedCapacity, {});
    EXPECT_TRUE(p.IsComplete());
    p.CheckInvariants();
  }
}

TEST(Afd, RespectsCapacity) {
  const auto seq = AccessSequence::FromCompactString("abcdef");
  const Placement p = DistributeAfd(seq, 3, 2, {});
  p.CheckInvariants();
  for (std::uint32_t d = 0; d < 3; ++d) {
    EXPECT_LE(p.dbc(d).size(), 2u);
  }
}

TEST(Afd, ThrowsWhenVariablesExceedTotalCapacity) {
  const auto seq = AccessSequence::FromCompactString("abcdef");
  EXPECT_THROW(DistributeAfd(seq, 2, 2, {}), std::invalid_argument);
}

TEST(Afd, UnaccessedVariablesStillGetSlots) {
  AccessSequence seq;
  seq.AddVariable("used");
  seq.AddVariable("unused");
  seq.Append(0);
  const Placement p = DistributeAfd(seq, 2, kUnboundedCapacity, {});
  EXPECT_TRUE(p.IsComplete());
}

TEST(Afd, IntraHeuristicLowersCost) {
  // Adversarial insertion order: frequency deal separates hot pairs; OFU
  // or Chen must never hurt.
  const auto seq = AccessSequence::FromCompactString(
      "abcdefgh" "ahahahah" "bgbgbg" "cfcf" "de");
  const Placement none =
      DistributeAfd(seq, 2, kUnboundedCapacity, {IntraHeuristic::kNone});
  const Placement chen =
      DistributeAfd(seq, 2, kUnboundedCapacity, {IntraHeuristic::kChen});
  EXPECT_LE(ShiftCost(seq, chen), ShiftCost(seq, none));
}

TEST(Afd, SingleDbcDegeneratesToIntraProblem) {
  const auto seq = AccessSequence::FromCompactString("abcabc");
  const Placement p =
      DistributeAfd(seq, 1, kUnboundedCapacity, {IntraHeuristic::kOfu});
  EXPECT_EQ(p.num_dbcs(), 1u);
  EXPECT_EQ(p.dbc(0).size(), 3u);
}

TEST(Afd, EmptySequenceWithVariables) {
  AccessSequence seq;
  seq.AddVariable("a");
  seq.AddVariable("b");
  const Placement p = DistributeAfd(seq, 2, kUnboundedCapacity, {});
  EXPECT_TRUE(p.IsComplete());
  EXPECT_EQ(ShiftCost(seq, p), 0u);
}

}  // namespace
}  // namespace rtmp::core

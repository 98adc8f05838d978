// CUSUM phase detection (ISSUE 6 satellite): deterministic boundary
// placement, reset semantics, parsing, validation, and the registered
// online-cusum-* policies.
//
// The arithmetic is pinned exactly: two disjoint transition
// distributions have total variation distance 1, and after one un-fired
// observation the EWMA model (alpha = 0.3) sits at distance 0.7 from the
// new phase, so with slack 0 the statistic walks 0, 0, 1.0, 1.7 — a
// threshold of 1.5 fires on the SECOND swapped window and on no other,
// which a one-shot EWMA detector with the same threshold never could
// (single-window drift is bounded by 1).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "online/engine.h"
#include "online/phase_detector.h"
#include "online/policy.h"
#include "sim/experiment.h"
#include "trace/access_sequence.h"
#include "util/rng.h"
#include "workloads/workload.h"

namespace {

using namespace rtmp;

online::PhaseDetectorConfig CusumConfig(double threshold, double slack) {
  online::PhaseDetectorConfig config;
  config.kind = online::DetectorKind::kCusum;
  config.threshold = threshold;
  config.alpha = 0.3;
  config.slack = slack;
  return config;
}

TEST(CusumDetector, IntegratesDriftToADeterministicBoundary) {
  online::PhaseDetector detector(CusumConfig(/*threshold=*/1.5,
                                             /*slack=*/0.0));
  // Phase A: a-b-a-b...; phase B: c-d-c-d... One shared variable space —
  // the ids (hence transition keys) must actually differ across phases.
  const trace::AccessSequence full = trace::AccessSequence::FromCompactString(
      "abababababababab" "cdcdcdcdcdcdcdcd");
  const std::span<const trace::Access> accesses = full.accesses();
  online::TransitionWorkspace transitions;
  const online::TransitionSummary summary_a =
      transitions.Summarize(accesses.subspan(0, 16));
  const online::TransitionSummary summary_b =
      transitions.Summarize(accesses.subspan(16));

  EXPECT_FALSE(detector.Observe(summary_a).phase_change);  // seeds
  const auto stable = detector.Observe(summary_a);
  EXPECT_FALSE(stable.phase_change);
  EXPECT_DOUBLE_EQ(stable.drift, 0.0);
  // First swapped window: S = 1.0 <= 1.5, no boundary yet — exactly the
  // window where an EWMA detector would have to fire or never fire.
  const auto first = detector.Observe(summary_b);
  EXPECT_FALSE(first.phase_change);
  EXPECT_DOUBLE_EQ(first.drift, 1.0);
  // Second swapped window: the model moved 0.3 of the way to B, so the
  // drift is 0.7 and S = 1.7 crosses the threshold.
  const auto second = detector.Observe(summary_b);
  EXPECT_TRUE(second.phase_change);
  EXPECT_NEAR(second.drift, 1.7, 1e-12);
  // S and the model reset on the boundary: staying in phase B is quiet.
  const auto settled = detector.Observe(summary_b);
  EXPECT_FALSE(settled.phase_change);
  EXPECT_DOUBLE_EQ(settled.drift, 0.0);
}

TEST(CusumDetector, SlackAbsorbsBoundedDrift) {
  // Slack >= the largest possible single-window drift: the statistic
  // never accumulates, so even a full distribution swap stays silent.
  online::PhaseDetector detector(CusumConfig(/*threshold=*/0.5,
                                             /*slack=*/1.0));
  const trace::AccessSequence full = trace::AccessSequence::FromCompactString(
      "abababab" "cdcdcdcd");
  const std::span<const trace::Access> accesses = full.accesses();
  online::TransitionWorkspace transitions;
  const online::TransitionSummary summary_a =
      transitions.Summarize(accesses.subspan(0, 8));
  const online::TransitionSummary summary_b =
      transitions.Summarize(accesses.subspan(8));
  EXPECT_FALSE(detector.Observe(summary_a).phase_change);
  for (int w = 0; w < 4; ++w) {
    EXPECT_FALSE(detector.Observe(summary_b).phase_change) << w;
  }
}

TEST(CusumDetector, ResetReturnsToTheSeedState) {
  online::PhaseDetector detector(CusumConfig(/*threshold=*/1.5,
                                             /*slack=*/0.0));
  const trace::AccessSequence full = trace::AccessSequence::FromCompactString(
      "abababab" "cdcdcdcd");
  const std::span<const trace::Access> accesses = full.accesses();
  online::TransitionWorkspace transitions;
  const online::TransitionSummary summary_a =
      transitions.Summarize(accesses.subspan(0, 8));
  const online::TransitionSummary summary_b =
      transitions.Summarize(accesses.subspan(8));

  for (int round = 0; round < 2; ++round) {
    EXPECT_FALSE(detector.Observe(summary_a).phase_change) << round;
    EXPECT_FALSE(detector.Observe(summary_b).phase_change) << round;
    EXPECT_TRUE(detector.Observe(summary_b).phase_change) << round;
    detector.Reset();
  }
}

TEST(CusumDetector, ParsesAndPrintsItsKind) {
  EXPECT_EQ(online::ToString(online::DetectorKind::kCusum), "cusum");
  for (const auto kind :
       {online::DetectorKind::kNone, online::DetectorKind::kFixedWindow,
        online::DetectorKind::kEwmaDrift, online::DetectorKind::kCusum}) {
    const auto parsed = online::ParseDetectorKind(online::ToString(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(online::ParseDetectorKind("page-rank").has_value());
}

TEST(CusumDetector, ValidatesItsConfig) {
  // The CUSUM statistic is cumulative, so its threshold may exceed 1 —
  // unlike the EWMA drift, which is a total variation distance.
  EXPECT_NO_THROW(online::PhaseDetector(CusumConfig(1.5, 0.05)));
  EXPECT_THROW(online::PhaseDetector(CusumConfig(-0.1, 0.05)),
               std::invalid_argument);
  EXPECT_THROW(online::PhaseDetector(CusumConfig(1.5, -0.05)),
               std::invalid_argument);
  {
    online::PhaseDetectorConfig bad = CusumConfig(1.5, 0.05);
    bad.alpha = 0.0;
    EXPECT_THROW((online::PhaseDetector(bad)), std::invalid_argument);
  }
  {
    online::PhaseDetectorConfig ewma;
    ewma.kind = online::DetectorKind::kEwmaDrift;
    ewma.threshold = 1.5;
    EXPECT_THROW((online::PhaseDetector(ewma)), std::invalid_argument);
  }
}

TEST(CusumPolicies, AreRegisteredAndRunDeterministically) {
  auto& registry = online::OnlinePolicyRegistry::Global();
  for (const char* name : {"online-cusum-dma-sr", "online-cusum-afd-ofu"}) {
    ASSERT_TRUE(registry.Contains(name)) << name;
    const auto info = registry.Describe(name);
    ASSERT_TRUE(info.has_value());
    EXPECT_EQ(info->detector, "cusum");
  }

  const auto workload =
      workloads::ResolveWorkload("phased(gemm-tiled,bfs-frontier)");
  ASSERT_NE(workload, nullptr);
  const auto benchmark = workload->Generate({});
  sim::ExperimentOptions options;
  const sim::RunResult first =
      sim::RunCell(benchmark, 4, "online-cusum-dma-sr", options);
  const sim::RunResult second =
      sim::RunCell(benchmark, 4, "online-cusum-dma-sr", options);
  EXPECT_EQ(first.metrics.shifts, second.metrics.shifts);
  EXPECT_EQ(first.placement_cost, second.placement_cost);
  EXPECT_DOUBLE_EQ(first.metrics.runtime_ns, second.metrics.runtime_ns);
  EXPECT_GT(first.metrics.shifts, 0u);
}

// The transition summary as it was built before the workspace: pack
// every consecutive pair, comparison-sort the keys, run-length count.
// Kept here as the reference the ranked counting sort must reproduce.
online::TransitionSummary SortingSummarizeTransitions(
    std::span<const trace::Access> window) {
  online::TransitionSummary summary;
  if (window.size() < 2) return summary;
  std::vector<std::uint64_t> keys;
  for (std::size_t i = 1; i < window.size(); ++i) {
    const std::uint64_t a = window[i - 1].variable;
    const std::uint64_t b = window[i].variable;
    keys.push_back((std::min(a, b) << 32) | std::max(a, b));
  }
  std::sort(keys.begin(), keys.end());
  for (std::size_t i = 0; i < keys.size();) {
    std::size_t j = i;
    while (j < keys.size() && keys[j] == keys[i]) ++j;
    summary.weights.emplace_back(keys[i], j - i);
    i = j;
  }
  summary.total = keys.size();
  return summary;
}

// One workspace summarizes random windows of 0 to 300 accesses drawn
// from variable spaces of very different sizes (ids up to 2^22), with
// runs that produce self-transitions.
TEST(TransitionWorkspace, MatchesTheSortingReferenceAcrossWindows) {
  util::Rng rng(0x7A5E55EDULL);
  online::TransitionWorkspace transitions;
  for (int trial = 0; trial < 400; ++trial) {
    const std::uint64_t space =
        trial % 5 == 0 ? 1 : std::uint64_t{1} << (1 + rng.NextBelow(22));
    const std::size_t length =
        trial % 7 < 3 ? static_cast<std::size_t>(trial % 7)
                      : rng.NextBelow(300);
    std::vector<trace::Access> window;
    for (std::size_t i = 0; i < length; ++i) {
      const bool repeat = !window.empty() && rng.NextBool(0.2);
      window.push_back(
          {repeat ? window.back().variable
                  : static_cast<trace::VariableId>(rng.NextBelow(space)),
           trace::AccessType::kRead});
    }
    const online::TransitionSummary want =
        SortingSummarizeTransitions(window);
    const online::TransitionSummary& got = transitions.Summarize(window);
    EXPECT_EQ(got.weights, want.weights) << "trial " << trial;
    EXPECT_EQ(got.total, want.total) << "trial " << trial;
  }
}

}  // namespace

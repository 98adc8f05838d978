// throughput: the CI-tracked hot-path throughput trajectory.
//
// Two effort-independent measurements, both pinned by golden checks so a
// throughput regression (or a bit-identity break) fails CI:
//
//  * Mutation scoring (absorbs the old evaluator_speedup binary):
//    reproduces the GA's inner question — "what would this mutation
//    cost?" — on every OffsetStone-lite benchmark. Full-replay ShiftCost
//    vs CostEvaluator Peek* over the SAME re-seeded mutation stream,
//    every score cross-checked for exact equality. Acceptance: geomean
//    speedup >= 5x.
//
//  * End-to-end window service: the online engine's batched
//    Feed(span) -> fused window pricing -> ExecuteBatch pipeline vs a
//    faithful replica of the pre-batching hot path (per-access feed, a
//    separate full ShiftCost replay per window, a freshly allocated
//    request vector per window, a timings-materializing Execute). Both
//    sides serve identical request streams — shift totals and window
//    costs are checked bit-identical. Acceptance: geomean wall ratio
//    >= 3x.
//
// Wall-clock scalars carry "wall" in their names, so golden comparison
// applies the ratio bound instead of the exact/1e-6 policies; the shift
// and cost pins stay tight.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/cost_evaluator.h"
#include "core/cost_model.h"
#include "core/inter_dma.h"
#include "core/intra_heuristics.h"
#include "core/placement.h"
#include "harness/scenarios/scenarios.h"
#include "offsetstone/suite.h"
#include "online/engine.h"
#include "online/phase_detector.h"
#include "rtm/config.h"
#include "rtm/controller.h"
#include "trace/access_sequence.h"
#include "util/rng.h"
#include "util/stats.h"

namespace rtmp::benchtool::scenarios {

namespace {

// ---- shared timing ---------------------------------------------------------

// This scenario measures throughput; its wall-clock reads are the
// measurement, not a determinism leak (results enter the report only
// under wall-named scalars).
// NOLINTNEXTLINE(rtmlint:determinism-rng): throughput bench timing.
double SecondsSince(std::chrono::steady_clock::time_point start) {
  // NOLINTNEXTLINE(rtmlint:determinism-rng): throughput bench timing.
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// ---- part A: GA mutation scoring (ex evaluator_speedup) --------------------

// Each gated ratio is the median of kSamples interleaved A/B samples
// taken after one warm-up pass per side, so that one descheduled or
// cold sample cannot flip a gate.
constexpr int kSamples = 9;

constexpr std::uint32_t kDbcs = 8;
constexpr int kFullTrials = 400;
constexpr int kIncrementalTrials = 4000;

struct Mutation {
  enum class Kind { kMove, kTranspose, kPermute } kind;
  trace::VariableId v = 0;
  std::uint32_t dbc = 0;
  std::size_t i = 0, j = 0;
  std::vector<trace::VariableId> order;
};

/// Draws one GA-style mutation (weights 10:10:3) against `base`.
Mutation DrawMutation(const core::Placement& base, util::Rng& rng) {
  const double weights[] = {10.0, 10.0, 3.0};
  Mutation m;
  switch (rng.NextWeighted(weights)) {
    case 0: {
      m.kind = Mutation::Kind::kMove;
      m.v = static_cast<trace::VariableId>(
          rng.NextBelow(base.num_variables()));
      m.dbc = static_cast<std::uint32_t>(rng.NextBelow(base.num_dbcs()));
      return m;
    }
    case 1: {
      m.kind = Mutation::Kind::kTranspose;
      std::vector<std::uint32_t> candidates;
      for (std::uint32_t d = 0; d < base.num_dbcs(); ++d) {
        if (base.dbc(d).size() >= 2) candidates.push_back(d);
      }
      if (candidates.empty()) {
        m.kind = Mutation::Kind::kMove;
        m.v = 0;
        m.dbc = 0;
        return m;
      }
      m.dbc = rng.Pick(candidates);
      const std::size_t size = base.dbc(m.dbc).size();
      m.i = static_cast<std::size_t>(rng.NextBelow(size));
      m.j = static_cast<std::size_t>(rng.NextBelow(size));
      return m;
    }
    default: {
      m.kind = Mutation::Kind::kPermute;
      m.dbc = static_cast<std::uint32_t>(rng.NextBelow(base.num_dbcs()));
      m.order = base.dbc(m.dbc);
      rng.Shuffle(m.order);
      return m;
    }
  }
}

std::uint64_t ScoreFull(const trace::AccessSequence& seq,
                        const core::Placement& base, const Mutation& m,
                        const core::CostOptions& cost) {
  core::Placement candidate = base;
  switch (m.kind) {
    case Mutation::Kind::kMove:
      candidate.MoveToEnd(m.v, m.dbc);
      break;
    case Mutation::Kind::kTranspose:
      candidate.Transpose(m.dbc, m.i, m.j);
      break;
    case Mutation::Kind::kPermute:
      candidate.Reorder(m.dbc, m.order);
      break;
  }
  return core::ShiftCost(seq, candidate, cost);
}

std::uint64_t ScoreIncremental(core::CostEvaluator& evaluator,
                               const Mutation& m) {
  switch (m.kind) {
    case Mutation::Kind::kMove:
      return evaluator.PeekMove(m.v, m.dbc);
    case Mutation::Kind::kTranspose:
      return evaluator.PeekTranspose(m.dbc, m.i, m.j);
    case Mutation::Kind::kPermute:
      return evaluator.PeekReorder(m.dbc, m.order);
  }
  return 0;
}

double RunMutationScoring(ScenarioContext& ctx) {
  ctx.Print("-- mutation scoring: full replay vs incremental evaluator "
            "(single port, %u DBCs) --\n\n",
            kDbcs);
  ctx.Print("%-12s %8s %6s %14s %14s %9s\n", "benchmark", "|S|", "vars",
            "full evals/s", "incr evals/s", "speedup");

  std::vector<double> speedups;
  bool all_match = true;
  std::uint64_t sink = 0;
  for (const auto& profile : offsetstone::SuiteProfiles()) {
    const auto benchmark = offsetstone::Generate(profile, 0);
    // Largest sequence of the benchmark: the GA's worst case.
    const trace::AccessSequence* seq = &benchmark.sequences.front();
    for (const auto& candidate : benchmark.sequences) {
      if (candidate.size() > seq->size()) seq = &candidate;
    }
    if (seq->num_variables() < 2 || seq->empty()) continue;

    const core::CostOptions cost;
    const core::Placement base =
        core::DistributeDma(*seq, kDbcs, core::kUnboundedCapacity,
                            {core::IntraHeuristic::kShiftsReduce})
            .placement;

    // One timed pass of each path over its re-seeded mutation stream;
    // each returns its rate and adds its scores to `sum`.
    core::CostEvaluator evaluator(*seq, cost);
    evaluator.Bind(base);
    const auto time_full = [&](std::uint64_t& sum) {
      util::Rng rng(0xBEEF);
      // NOLINTNEXTLINE(rtmlint:determinism-rng): throughput bench timing.
      const auto start = std::chrono::steady_clock::now();
      for (int t = 0; t < kFullTrials; ++t) {
        sum += ScoreFull(*seq, base, DrawMutation(base, rng), cost);
      }
      return kFullTrials / SecondsSince(start);
    };
    const auto time_incr = [&](std::uint64_t& sum) {
      util::Rng rng(0xBEEF);
      // NOLINTNEXTLINE(rtmlint:determinism-rng): throughput bench timing.
      const auto start = std::chrono::steady_clock::now();
      for (int t = 0; t < kIncrementalTrials; ++t) {
        sum += ScoreIncremental(evaluator, DrawMutation(base, rng));
      }
      return kIncrementalTrials / SecondsSince(start);
    };

    // The warm-up pass of each side feeds the sink; every timed sample
    // must repeat its scores exactly.
    std::uint64_t full_sum = 0;
    std::uint64_t incr_sum = 0;
    (void)time_full(full_sum);
    (void)time_incr(incr_sum);
    sink += full_sum + incr_sum;
    bool match = true;
    std::vector<double> full_rates;
    std::vector<double> incr_rates;
    std::vector<double> sample_speedups;
    for (int s = 0; s < kSamples; ++s) {
      std::uint64_t full_sample = 0;
      std::uint64_t incr_sample = 0;
      full_rates.push_back(time_full(full_sample));
      incr_rates.push_back(time_incr(incr_sample));
      sample_speedups.push_back(incr_rates.back() / full_rates.back());
      match = match && full_sample == full_sum && incr_sample == incr_sum;
    }
    const double full_rate = util::Median(full_rates);
    const double incr_rate = util::Median(incr_rates);

    // -- cross-check: every score of a common stream must agree exactly ---
    util::Rng check_rng(0x5EED);
    for (int t = 0; t < kFullTrials && match; ++t) {
      const Mutation m = DrawMutation(base, check_rng);
      match = ScoreFull(*seq, base, m, cost) == ScoreIncremental(evaluator, m);
    }
    all_match = all_match && match;

    const double speedup = util::Median(sample_speedups);
    speedups.push_back(speedup);
    ctx.Print("%-12s %8zu %6zu %14.0f %14.0f %8.1fx%s\n",
              benchmark.name.c_str(), seq->size(), seq->num_variables(),
              full_rate, incr_rate, speedup,
              match ? "" : "  COST MISMATCH");
    ctx.Scalar(
        "throughput/mutation/" + benchmark.name + "/incr_wall_evals_per_s",
        incr_rate, "evals/s");
  }

  const double geomean = util::GeoMean(speedups);
  ctx.Print("\nmutation scoring geomean speedup: %.1fx (acceptance: >= 5x); "
            "costs %s (sink %llx)\n\n",
            geomean, all_match ? "bit-identical" : "MISMATCHED",
            static_cast<unsigned long long>(sink));
  ctx.Scalar("throughput/mutation_wall_speedup_geomean", geomean, "x");
  // Exact determinism pin: the summed scores of the fixed mutation
  // streams (both paths feed the same sink).
  ctx.Scalar("throughput/mutation_score_sink", static_cast<double>(sink));
  ctx.RecordCheck("mutation scores bit-identical (full == incremental)",
                  all_match, /*fatal=*/true);
  ctx.RecordCheck("mutation scoring geomean >= 5x", geomean >= 5.0);
  return geomean;
}

// ---- part B: end-to-end window service -------------------------------------

constexpr std::size_t kWindowAccesses = 256;
/// Repeats are sized so each sample of a side serves about this many
/// accesses.
constexpr std::size_t kTargetAccesses = 1'000'000;

const char* const kServeBenchmarks[] = {"fft", "gzip", "jpeg"};

rtm::RtmConfig ServeDevice() {
  rtm::RtmConfig device;
  device.banks = 1;
  device.subarrays_per_bank = 2;
  device.dbcs_per_subarray = 4;  // 8 DBCs total
  return device;
}

struct ServeTotals {
  std::uint64_t placement_cost = 0;
  std::uint64_t shifts = 0;
  std::uint64_t requests = 0;
};

/// The engine's transition summary as the pre-batching path built it:
/// pack every consecutive pair, comparison-sort, run-length count.
online::TransitionSummary SortingSummarizeTransitions(
    std::span<const trace::Access> window) {
  online::TransitionSummary summary;
  if (window.size() < 2) return summary;
  std::vector<std::uint64_t> keys;
  keys.reserve(window.size() - 1);
  for (std::size_t i = 1; i < window.size(); ++i) {
    const std::uint64_t a = window[i - 1].variable;
    const std::uint64_t b = window[i].variable;
    keys.push_back((std::min(a, b) << 32) | std::max(a, b));
  }
  std::sort(keys.begin(), keys.end());
  summary.weights.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size();) {
    std::size_t j = i;
    while (j < keys.size() && keys[j] == keys[i]) ++j;
    summary.weights.emplace_back(keys[i], j - i);
    i = j;
  }
  summary.total = keys.size();
  return summary;
}

/// Faithful replica of the pre-batching engine hot path, kept as the
/// measured baseline. Per access: one Feed-style append into the rolling
/// window buffer. Per window: the transition summary fed to the (never-
/// firing) detector, a separate full ShiftCost replay to price the
/// window, a freshly allocated request vector, read/write counting, and
/// a timings-materializing Execute() — exactly the work the engine used
/// to do per window on a static configuration.
class BaselineSession {
 public:
  BaselineSession(const trace::AccessSequence& seq,
                  core::Placement placement, const rtm::RtmConfig& device)
      : placement_(std::move(placement)),
        controller_(device, rtm::ControllerConfig{}),
        detector_(online::PhaseDetectorConfig{}) {
    for (trace::VariableId v = 0; v < seq.num_variables(); ++v) {
      (void)win_.AddVariable(std::string(seq.name_of(v)));
    }
  }

  void ServePass(const trace::AccessSequence& seq) {
    for (const trace::Access& access : seq.accesses()) {
      win_.Append(access.variable, access.type);
      if (win_.size() >= kWindowAccesses) FlushWindow();
    }
  }

  void FlushWindow() {
    if (win_.empty()) return;
    (void)detector_.Observe(SortingSummarizeTransitions(win_.accesses()));
    totals_.placement_cost += core::ShiftCost(win_, placement_, cost_);
    std::vector<rtm::TimedRequest> requests;
    requests.reserve(win_.size());
    for (const trace::Access& access : win_.accesses()) {
      const core::Slot slot = placement_.SlotOf(access.variable);
      requests.push_back(
          rtm::TimedRequest{0.0, slot.dbc, slot.offset, access.type});
      if (access.type == trace::AccessType::kWrite) {
        ++writes_;
      } else {
        ++reads_;
      }
    }
    (void)controller_.Execute(requests);
    win_.ClearAccesses();
  }

  [[nodiscard]] ServeTotals Totals() {
    FlushWindow();
    totals_.shifts = controller_.stats().shifts;
    totals_.requests = controller_.stats().requests;
    return totals_;
  }

 private:
  core::Placement placement_;
  rtm::RtmController controller_;
  online::PhaseDetector detector_;
  trace::AccessSequence win_;
  core::CostOptions cost_;  // engine default: single port 0
  ServeTotals totals_;
  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
};

/// A static-configuration online session (no detector, no refinement):
/// the placement freezes after window 0, so every pass serves the same
/// request stream the baseline replica serves.
class BatchedSession {
 public:
  BatchedSession(const trace::AccessSequence& seq,
                 const rtm::RtmConfig& device)
      : engine_(MakeConfig(), device) {
    for (trace::VariableId v = 0; v < seq.num_variables(); ++v) {
      (void)engine_.RegisterVariable(seq.name_of(v));
    }
  }

  void ServePass(const trace::AccessSequence& seq) {
    engine_.Feed(std::span<const trace::Access>(seq.accesses()));
  }

  [[nodiscard]] online::OnlineResult Finish() { return engine_.Finish(); }

 private:
  static online::OnlineConfig MakeConfig() {
    online::OnlineConfig config;
    config.reseed_strategy = "dma-sr";
    config.window_accesses = kWindowAccesses;
    return config;
  }

  online::OnlineEngine engine_;
};

double RunWindowService(ScenarioContext& ctx) {
  ctx.Print("-- window service: batched Feed(span) vs pre-batching replica "
            "(8 DBCs, %zu-access windows, steady state) --\n\n",
            kWindowAccesses);
  ctx.Print("%-12s %8s %7s %16s %16s %7s\n", "benchmark", "|S|", "windows",
            "baseline acc/s", "batched acc/s", "ratio");

  const rtm::RtmConfig device = ServeDevice();
  std::vector<double> ratios;
  bool identical = true;
  for (const char* name : kServeBenchmarks) {
    const auto profile = offsetstone::FindProfile(name);
    if (!profile) continue;
    const auto benchmark = offsetstone::Generate(*profile, 0);
    const trace::AccessSequence* seq = &benchmark.sequences.front();
    for (const auto& candidate : benchmark.sequences) {
      if (candidate.size() > seq->size()) seq = &candidate;
    }
    if (seq->empty()) continue;

    // Bit-identity (untimed): one full session each way. The engine's
    // placement is static after window 0 (detector off, full variable
    // space registered up front), so the baseline replica serves under
    // the engine's own final placement.
    BatchedSession reference_session(*seq, device);
    reference_session.ServePass(*seq);
    const online::OnlineResult reference = reference_session.Finish();
    BaselineSession baseline_session(*seq, reference.final_placement,
                                     device);
    baseline_session.ServePass(*seq);
    const ServeTotals baseline_ref = baseline_session.Totals();
    const bool match = reference.migration_shifts == 0 &&
                       baseline_ref.placement_cost ==
                           reference.placement_cost &&
                       baseline_ref.shifts == reference.stats.shifts &&
                       baseline_ref.requests == reference.stats.requests;
    identical = identical && match;

    const std::size_t repeats =
        std::max<std::size_t>(1, kTargetAccesses / seq->size());

    // Steady-state throughput: warm sessions (window 0's one-time re-seed
    // and one pass each already behind them), then interleaved samples of
    // R passes of the same stream per side.
    BaselineSession baseline(*seq, reference.final_placement, device);
    baseline.ServePass(*seq);
    BatchedSession batched(*seq, device);
    batched.ServePass(*seq);
    const auto time_passes = [&](auto& session) {
      // NOLINTNEXTLINE(rtmlint:determinism-rng): throughput bench timing.
      const auto start = std::chrono::steady_clock::now();
      for (std::size_t r = 0; r < repeats; ++r) session.ServePass(*seq);
      return static_cast<double>(repeats * seq->size()) /
             SecondsSince(start);
    };
    std::vector<double> base_rates;
    std::vector<double> batch_rates;
    std::vector<double> sample_ratios;
    for (int s = 0; s < kSamples; ++s) {
      base_rates.push_back(time_passes(baseline));
      batch_rates.push_back(time_passes(batched));
      sample_ratios.push_back(batch_rates.back() / base_rates.back());
    }
    const double base_rate = util::Median(base_rates);
    const double batch_rate = util::Median(batch_rates);

    const double ratio = util::Median(sample_ratios);
    ratios.push_back(ratio);
    const std::size_t windows =
        (seq->size() + kWindowAccesses - 1) / kWindowAccesses;
    ctx.Print("%-12s %8zu %7zu %16.0f %16.0f %6.1fx%s\n", name, seq->size(),
              windows, base_rate, batch_rate, ratio,
              match ? "" : "  STREAM MISMATCH");
    const std::string prefix = "throughput/serve/" + std::string(name);
    ctx.Scalar(prefix + "/batched_wall_accesses_per_s", batch_rate, "acc/s");
    ctx.Scalar(prefix + "/wall_ratio", ratio, "x");
    // Exact determinism pins for the served stream.
    ctx.Scalar(prefix + "/service_shifts",
               static_cast<double>(reference.stats.shifts));
    ctx.Scalar(prefix + "/window_cost_total",
               static_cast<double>(reference.placement_cost));
  }

  const double geomean = util::GeoMean(ratios);
  ctx.Print("\nwindow service geomean ratio: %.1fx (acceptance: >= 3x); "
            "streams %s\n\n",
            geomean, identical ? "bit-identical" : "MISMATCHED");
  ctx.Scalar("throughput/serve_wall_ratio_geomean", geomean, "x");
  ctx.RecordCheck(
      "window service bit-identical (batched == per-access replica)",
      identical, /*fatal=*/true);
  ctx.RecordCheck("window service geomean >= 3x", geomean >= 3.0);
  return geomean;
}

void Run(ScenarioContext& ctx) {
  ctx.Print("== throughput: hot-path throughput trajectory "
            "(golden-checked in CI) ==\n\n");
  const double mutation = RunMutationScoring(ctx);
  const double serve = RunWindowService(ctx);
  ctx.Print("summary: mutation scoring %.1fx, window service %.1fx\n",
            mutation, serve);
}

}  // namespace

void RegisterThroughput(ScenarioRegistry& registry) {
  registry.Register({"throughput",
                     "hot-path throughput: mutation scoring + window service",
                     /*uses_search=*/false, Run});
}

}  // namespace rtmp::benchtool::scenarios

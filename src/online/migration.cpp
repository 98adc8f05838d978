#include "online/migration.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/cost_evaluator.h"

namespace rtmp::online {

namespace {

/// First-access-free price of one ascending-offset sweep per DBC, fed
/// slot by slot in (dbc, offset) order: each slot costs the distance from
/// the previous slot of the same DBC.
struct SweepPrice {
  std::uint64_t shifts = 0;
  bool started = false;
  core::Slot last{};

  void Add(core::Slot slot) {
    if (started && slot.dbc == last.dbc) shifts += slot.offset - last.offset;
    started = true;
    last = slot;
  }
};

/// Walks the `from` -> `to` diff: `read(v, old_slot, new_slot)` for each
/// moved variable in read-sweep order, then, if anything moved,
/// `write(new_slot)` for each in write-sweep order. Each (dbc, offset)
/// holds exactly one variable, so walking `from` slot by slot yields the
/// moves already in (from.dbc, from.offset) order, and walking `to` the
/// same way yields their new slots in (dbc, offset) order.
template <typename Read, typename Write>
void WalkMigration(const core::Placement& from, const core::Placement& to,
                   Read read, Write write) {
  if (from.num_variables() != to.num_variables()) {
    throw std::invalid_argument(
        "PlanMigration: placements cover different variable spaces");
  }
  // Every variable placed in `from` must be placed in `to`; equal placed
  // counts then make the two placed sets identical.
  constexpr const char* kPlacedInOne =
      "PlanMigration: variable placed in only one placement";
  if (from.placed_count() != to.placed_count()) {
    throw std::invalid_argument(kPlacedInOne);
  }
  bool moved = false;
  for (std::uint32_t d = 0; d < from.num_dbcs(); ++d) {
    const auto& list = from.dbc(d);
    for (std::uint32_t offset = 0; offset < list.size(); ++offset) {
      const trace::VariableId v = list[offset];
      if (!to.IsPlaced(v)) throw std::invalid_argument(kPlacedInOne);
      const core::Slot old_slot{d, offset};
      const core::Slot new_slot = to.SlotOf(v);
      if (old_slot == new_slot) continue;
      read(v, old_slot, new_slot);
      moved = true;
    }
  }
  if (!moved) return;
  for (std::uint32_t d = 0; d < to.num_dbcs(); ++d) {
    const auto& list = to.dbc(d);
    for (std::uint32_t offset = 0; offset < list.size(); ++offset) {
      const core::Slot new_slot{d, offset};
      if (from.SlotOf(list[offset]) != new_slot) write(new_slot);
    }
  }
}

}  // namespace

std::uint64_t AppendSweepRequests(std::span<const core::Slot> slots,
                                  trace::AccessType type,
                                  std::vector<rtm::TimedRequest>& requests) {
  SweepPrice price;
  for (const core::Slot slot : slots) {
    price.Add(slot);
    requests.push_back(rtm::TimedRequest{0.0, slot.dbc, slot.offset, type});
  }
  return price.shifts;
}

MigrationPlan PlanMigration(const core::Placement& from,
                            const core::Placement& to) {
  // Reads sweep each source DBC in ascending old-offset order, then the
  // buffered words are written in target-DBC sweeps.
  MigrationPlan plan;
  std::vector<core::Slot> writes;
  WalkMigration(
      from, to,
      [&plan](trace::VariableId v, core::Slot old_slot, core::Slot new_slot) {
        plan.moves.push_back({v, old_slot, new_slot});
      },
      [&writes](core::Slot new_slot) { writes.push_back(new_slot); });
  if (plan.moves.empty()) return plan;

  std::vector<core::Slot> reads;
  reads.reserve(plan.moves.size());
  for (const MigrationMove& move : plan.moves) reads.push_back(move.from);
  plan.requests.reserve(2 * plan.moves.size());
  plan.estimated_shifts =
      AppendSweepRequests(reads, trace::AccessType::kRead, plan.requests) +
      AppendSweepRequests(writes, trace::AccessType::kWrite, plan.requests);
  return plan;
}

MigrationEstimate EstimateMigration(const core::Placement& from,
                                    const core::Placement& to) {
  MigrationEstimate estimate;
  SweepPrice reads;
  SweepPrice writes;
  WalkMigration(
      from, to,
      [&](trace::VariableId, core::Slot old_slot, core::Slot) {
        ++estimate.moves;
        reads.Add(old_slot);
      },
      [&writes](core::Slot new_slot) { writes.Add(new_slot); });
  estimate.estimated_shifts = reads.shifts + writes.shifts;
  return estimate;
}

std::uint64_t EstimatedSingleMoveShifts(std::uint32_t domains_per_dbc) {
  const std::uint64_t per_access = domains_per_dbc / 3;
  return std::max<std::uint64_t>(2, 2 * per_access);
}

TrimmedMigration TrimMigration(const core::Placement& from,
                               const core::Placement& to,
                               const trace::AccessSequence& window,
                               const core::CostOptions& cost,
                               double fraction, std::uint64_t min_benefit) {
  if (!std::isfinite(fraction) || fraction < 0.0 || fraction > 1.0) {
    throw std::invalid_argument("TrimMigration: fraction must be in [0, 1]");
  }
  TrimmedMigration out;
  MigrationPlan full = PlanMigration(from, to);
  if (full.moves.empty() || (fraction >= 1.0 && min_benefit == 0)) {
    // Nothing to trim: the full diff is the plan.
    out.placement = to;
    out.plan = std::move(full);
    return out;
  }

  const auto budget = static_cast<std::size_t>(
      std::ceil(fraction * static_cast<double>(full.moves.size())));

  core::CostEvaluator evaluator(window, cost);
  evaluator.Bind(from);
  const std::uint64_t base_cost = evaluator.Cost();

  // Rank the full plan's moves by their stand-alone peek benefit against
  // `from` (benefit descending, variable id ascending — deterministic).
  // Same-DBC reorders and moves into a currently full DBC are skipped:
  // the greedy subset cannot realize them in isolation.
  struct Candidate {
    trace::VariableId variable = 0;
    std::uint32_t to_dbc = 0;
    std::uint64_t benefit = 0;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(full.moves.size());
  for (const MigrationMove& move : full.moves) {
    if (move.to.dbc == move.from.dbc) continue;
    if (evaluator.placement().FreeIn(move.to.dbc) == 0) continue;
    const std::uint64_t peek = evaluator.PeekMove(move.variable, move.to.dbc);
    ++out.evaluations;
    candidates.push_back({move.variable, move.to.dbc,
                          base_cost > peek ? base_cost - peek : 0});
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.benefit != b.benefit) return a.benefit > b.benefit;
              return a.variable < b.variable;
            });

  // Greedy commit, re-scored at apply time; every kept move must clear
  // the benefit threshold on the ACTUAL delta, mirroring the engine's
  // refinement accept rule.
  const std::uint64_t required = std::max<std::uint64_t>(1, min_benefit);
  std::size_t kept = 0;
  for (const Candidate& candidate : candidates) {
    if (kept >= budget) break;
    if (evaluator.placement().FreeIn(candidate.to_dbc) == 0) continue;
    const std::uint64_t before = evaluator.Cost();
    const std::uint64_t after =
        evaluator.ApplyMove(candidate.variable, candidate.to_dbc);
    ++out.evaluations;
    if (after >= before || before - after < required) {
      evaluator.Undo();
      continue;
    }
    ++kept;
  }

  out.placement = evaluator.placement();
  out.plan = PlanMigration(from, out.placement);
  if (out.plan.estimated_shifts > full.estimated_shifts) {
    // Gap compaction made the subset dearer than the whole diff (see
    // TrimmedMigration::plan) — a trim must never cost more, so fall
    // back to the full plan.
    out.placement = to;
    out.plan = std::move(full);
  }
  return out;
}

}  // namespace rtmp::online

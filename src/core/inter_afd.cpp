#include "core/inter_afd.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace rtmp::core {

std::vector<VariableId> SortByFrequencyDescending(
    std::span<const trace::VariableStats> stats,
    const trace::AccessSequence& seq) {
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

Placement DistributeAfd(const trace::AccessSequence& seq,
                        std::uint32_t num_dbcs, std::uint32_t capacity,
                        const AfdOptions& options) {
  const std::size_t n = seq.num_variables();
  if (capacity != kUnboundedCapacity &&
      static_cast<std::uint64_t>(num_dbcs) * capacity < n) {
    throw std::invalid_argument("DistributeAfd: variables exceed capacity");
  }
  const auto stats = trace::ComputeVariableStats(seq);
  const auto order = SortByFrequencyDescending(stats, seq);

  Placement placement(n, num_dbcs, capacity);
  std::uint32_t next_dbc = 0;
  for (const VariableId v : order) {
    // Deal round-robin, skipping full DBCs (capacity permitting is
    // guaranteed by the check above).
    std::uint32_t attempts = 0;
    while (placement.FreeIn(next_dbc) == 0) {
      next_dbc = (next_dbc + 1) % num_dbcs;
      if (++attempts > num_dbcs) {
        throw std::logic_error("DistributeAfd: no free DBC despite capacity");
      }
    }
    placement.Append(next_dbc, v);
    next_dbc = (next_dbc + 1) % num_dbcs;
  }

  ApplyIntra(options.intra, seq, placement, 0, num_dbcs);
  return placement;
}

}  // namespace rtmp::core

// rtmlint: hot-path — Access() runs once per memory request; allocations
// here are advisory findings (hot-path-alloc).
#include "rtm/dbc_state.h"

#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace rtmp::rtm {

DbcState::DbcState(std::uint32_t num_domains,
                   std::vector<std::uint32_t> port_offsets, bool start_at_zero)
    : num_domains_(num_domains),
      port_offsets_(std::move(port_offsets)),
      start_at_zero_(start_at_zero) {
  if (num_domains_ == 0) {
    throw std::invalid_argument("DbcState: num_domains must be positive");
  }
  if (port_offsets_.empty()) {
    throw std::invalid_argument("DbcState: need at least one port");
  }
  for (const auto offset : port_offsets_) {
    if (offset >= num_domains_) {
      throw std::invalid_argument("DbcState: port offset out of range");
    }
  }
  Reset();
}

DbcState::AccessPlan DbcState::Plan(std::uint32_t domain) const {
  if (domain >= num_domains_) ThrowDomainOutOfRange();
  AccessPlan best;
  bool have_best = false;
  for (std::uint32_t p = 0; p < port_offsets_.size(); ++p) {
    const std::int64_t target = static_cast<std::int64_t>(domain) -
                                static_cast<std::int64_t>(port_offsets_[p]);
    const std::uint64_t shifts =
        alignment_.has_value()
            ? static_cast<std::uint64_t>(std::llabs(*alignment_ - target))
            : 0;  // first access free: the port starts wherever needed
    if (!have_best || shifts < best.shifts) {
      best = AccessPlan{shifts, p, target};
      have_best = true;
    }
  }
  return best;
}

std::uint64_t DbcState::AccessMultiPort(std::uint32_t domain) {
  const AccessPlan plan = Plan(domain);
  alignment_ = plan.new_alignment;
  total_shifts_ += plan.shifts;
  const auto excursion =
      static_cast<std::uint64_t>(std::llabs(plan.new_alignment));
  if (excursion > max_excursion_) max_excursion_ = excursion;
  return plan.shifts;
}

void DbcState::ThrowDomainOutOfRange() {
  throw std::out_of_range("DbcState: domain out of range");
}

void DbcState::Reset() {
  alignment_ = start_at_zero_ ? std::optional<std::int64_t>(0) : std::nullopt;
  total_shifts_ = 0;
  max_excursion_ = 0;
}

}  // namespace rtmp::rtm

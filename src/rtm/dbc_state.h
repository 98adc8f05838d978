// Shift-position state of one DBC.
//
// All T nanotracks of a DBC shift in lock-step, so a single signed
// "alignment" integer captures the cluster state: alignment a means domain
// x is readable at the port with offset o iff a == x - o. Accessing domain
// x therefore costs min over ports |a - (x - o_p)| one-domain shifts.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <optional>
#include <vector>

namespace rtmp::rtm {

class DbcState {
 public:
  /// `num_domains` addressable domains; `port_offsets` non-empty, each in
  /// [0, num_domains). If `start_at_zero` the track begins aligned at
  /// a = 0 (hardware reset); otherwise the first access is free (the
  /// paper's cost-model convention).
  DbcState(std::uint32_t num_domains, std::vector<std::uint32_t> port_offsets,
           bool start_at_zero);

  struct AccessPlan {
    std::uint64_t shifts = 0;       ///< one-domain shift operations needed
    std::uint32_t port_index = 0;   ///< chosen (cheapest) port
    std::int64_t new_alignment = 0; ///< alignment after the access
  };

  /// Cheapest way to align `domain` to some port; does not mutate state.
  /// Ties between ports break toward the lower port index for determinism.
  [[nodiscard]] AccessPlan Plan(std::uint32_t domain) const;

  /// Executes Plan(domain): shifts, updates alignment, returns shift count.
  /// The single-port case (the paper's device model) is inline: it runs
  /// once per memory request.
  std::uint64_t Access(std::uint32_t domain) {
    if (port_offsets_.size() != 1) return AccessMultiPort(domain);
    if (domain >= num_domains_) ThrowDomainOutOfRange();
    // Plan() degenerates to one subtraction; bit-identical to it.
    const std::int64_t target = static_cast<std::int64_t>(domain) -
                                static_cast<std::int64_t>(port_offsets_[0]);
    const std::uint64_t shifts =
        alignment_.has_value()
            ? static_cast<std::uint64_t>(std::llabs(*alignment_ - target))
            : 0;
    alignment_ = target;
    total_shifts_ += shifts;
    const auto excursion = static_cast<std::uint64_t>(std::llabs(target));
    if (excursion > max_excursion_) max_excursion_ = excursion;
    return shifts;
  }

  /// Current alignment; nullopt until the first access when the DBC starts
  /// in first-access-free mode.
  [[nodiscard]] std::optional<std::int64_t> alignment() const noexcept {
    return alignment_;
  }

  /// Largest |alignment| ever reached — the overhead-domain head-room the
  /// run actually needed on each track end.
  [[nodiscard]] std::uint64_t max_excursion() const noexcept {
    return max_excursion_;
  }

  [[nodiscard]] std::uint64_t total_shifts() const noexcept {
    return total_shifts_;
  }

  [[nodiscard]] std::uint32_t num_domains() const noexcept {
    return num_domains_;
  }

  /// Returns to the construction state (including first-access-free mode).
  void Reset();

 private:
  std::uint64_t AccessMultiPort(std::uint32_t domain);
  [[noreturn]] static void ThrowDomainOutOfRange();

  std::uint32_t num_domains_;
  std::vector<std::uint32_t> port_offsets_;
  bool start_at_zero_;
  std::optional<std::int64_t> alignment_;
  std::uint64_t total_shifts_ = 0;
  std::uint64_t max_excursion_ = 0;
};

}  // namespace rtmp::rtm

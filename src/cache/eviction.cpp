#include "cache/eviction.h"

#include <array>
#include <cstdlib>
#include <utility>

#include "util/rng.h"

namespace rtmp::cache {

namespace {

/// Least recently used candidate: the first in-scope frame on the list.
std::uint32_t LeastRecentlyUsed(const EvictionContext& ctx) {
  std::uint32_t victim = kNoFrame;
  (void)LeastRecentCandidates(ctx, std::span<std::uint32_t>(&victim, 1));
  return victim;
}

class LruPolicy final : public EvictionPolicy {
 public:
  [[nodiscard]] std::uint32_t PickVictim(const EvictionContext& ctx) override {
    return LeastRecentlyUsed(ctx);
  }
};

class LfuPolicy final : public EvictionPolicy {
 public:
  [[nodiscard]] std::uint32_t PickVictim(const EvictionContext& ctx) override {
    std::uint32_t best = ctx.candidates.front();
    for (const std::uint32_t frame : ctx.candidates.subspan(1)) {
      const FrameInfo& f = ctx.frames[frame];
      const FrameInfo& b = ctx.frames[best];
      if (f.uses != b.uses) {
        if (f.uses < b.uses) best = frame;
      } else if (f.last_use < b.last_use) {
        best = frame;
      }
    }
    return best;
  }
};

/// zsim-style sampled LRU: O(K) per miss. Sampling is with replacement
/// (duplicates just waste a draw) and uses the policy's own xoshiro
/// stream so two engines with the same seed replay identically.
class SampledLruPolicy final : public EvictionPolicy {
 public:
  static constexpr std::size_t kSample = 5;

  explicit SampledLruPolicy(std::uint64_t seed) : rng_(seed) {}

  [[nodiscard]] std::uint32_t PickVictim(const EvictionContext& ctx) override {
    if (ctx.candidates.size() <= kSample) return LeastRecentlyUsed(ctx);
    std::uint32_t best = kNoFrame;
    for (std::size_t draw = 0; draw < kSample; ++draw) {
      const std::uint32_t frame =
          ctx.candidates[rng_.NextBelow(ctx.candidates.size())];
      if (best == kNoFrame ||
          ctx.frames[frame].last_use < ctx.frames[best].last_use ||
          (ctx.frames[frame].last_use == ctx.frames[best].last_use &&
           frame < best)) {
        best = frame;
      }
    }
    return best;
  }

 private:
  util::Rng rng_;
};

/// Placement-aware eviction: shortlist the 8 least recently used
/// candidates off the recency list, then pick the one that (a) will not
/// be re-missed this window (no pending uses), (b) sits closest to where
/// its DBC's port alignment already is — so the eviction read sweep adds
/// the fewest shifts under the first-access-free convention — and (c) is
/// coldest, in that lexicographic order.
class ShiftAwarePolicy final : public EvictionPolicy {
 public:
  static constexpr std::size_t kShortlist = 8;

  [[nodiscard]] std::uint32_t PickVictim(const EvictionContext& ctx) override {
    std::array<std::uint32_t, kShortlist> lru{};
    const std::span<const std::uint32_t> shortlist(
        lru.data(), LeastRecentCandidates(ctx, lru));

    std::uint32_t best = shortlist.front();
    auto best_key = ScoreOf(best, ctx);
    for (const std::uint32_t frame : shortlist.subspan(1)) {
      const auto key = ScoreOf(frame, ctx);
      if (key < best_key) {
        best = frame;
        best_key = key;
      }
    }
    return best;
  }

 private:
  struct Score {
    std::uint64_t pending = 0;   ///< re-miss guard: churny frames lose
    std::uint64_t distance = 0;  ///< sweep shifts to reach the slot
    std::uint64_t last_use = 0;
    std::uint32_t frame = 0;

    [[nodiscard]] bool operator<(const Score& other) const noexcept {
      if (pending != other.pending) return pending < other.pending;
      if (distance != other.distance) return distance < other.distance;
      if (last_use != other.last_use) return last_use < other.last_use;
      return frame < other.frame;
    }
  };

  [[nodiscard]] Score ScoreOf(std::uint32_t frame,
                              const EvictionContext& ctx) const {
    Score score;
    score.pending = ctx.pending_uses[frame];
    score.last_use = ctx.frames[frame].last_use;
    score.frame = frame;
    if (ctx.placement != nullptr && ctx.placement->IsPlaced(frame)) {
      const core::Slot slot = ctx.placement->SlotOf(frame);
      if (slot.dbc < ctx.last_offsets.size() &&
          ctx.last_offsets[slot.dbc] >= 0) {
        score.distance = static_cast<std::uint64_t>(
            std::llabs(static_cast<std::int64_t>(slot.offset) -
                       ctx.last_offsets[slot.dbc]));
      } else {
        // Untouched DBC: the sweep pays the alignment distance from the
        // port, approximated by the slot's offset itself.
        score.distance = slot.offset;
      }
    }
    return score;
  }
};

/// A built-in policy's registry entry: its description plus the
/// function that builds a fresh instance.
class BuiltinFactory final : public EvictionPolicyFactory {
 public:
  using Make = std::unique_ptr<EvictionPolicy> (*)(std::uint64_t seed);

  BuiltinFactory(EvictionPolicyInfo info, Make make)
      : info_(std::move(info)), make_(make) {}

  [[nodiscard]] const EvictionPolicyInfo& Describe() const noexcept override {
    return info_;
  }

  [[nodiscard]] std::unique_ptr<EvictionPolicy> Create(
      std::uint64_t seed) const override {
    return make_(seed);
  }

 private:
  EvictionPolicyInfo info_;
  Make make_;
};

template <class Policy>
std::unique_ptr<EvictionPolicy> MakeUnseeded(std::uint64_t /*seed*/) {
  return std::make_unique<Policy>();
}

void RegisterBuiltin(EvictionPolicyRegistry& registry, const char* name,
                     const char* summary, BuiltinFactory::Make make) {
  registry.Register(name, [name, summary, make] {
    return std::make_shared<const BuiltinFactory>(
        EvictionPolicyInfo{name, summary}, make);
  });
}

}  // namespace

std::size_t LeastRecentCandidates(const EvictionContext& ctx,
                                  std::span<std::uint32_t> out) {
  std::size_t count = 0;
  for (std::uint32_t frame = ctx.recency_head;
       frame != kNoFrame && count < out.size();
       frame = ctx.recency_next[frame]) {
    if (ctx.scope_owner != kAnyOwner &&
        ctx.frames[frame].owner != ctx.scope_owner) {
      continue;
    }
    out[count++] = frame;
  }
  return count;
}

void RegisterBuiltinEvictionPolicies(EvictionPolicyRegistry& registry) {
  RegisterBuiltin(registry, "cache-lru",
                  "evict the least recently used resident frame",
                  MakeUnseeded<LruPolicy>);
  RegisterBuiltin(registry, "cache-lfu",
                  "evict the least frequently used resident frame (recency "
                  "breaks ties)",
                  MakeUnseeded<LfuPolicy>);
  RegisterBuiltin(registry, "cache-sample",
                  "zsim-style sampled LRU: evict the least recently used of "
                  "5 randomly drawn frames",
                  [](std::uint64_t seed) -> std::unique_ptr<EvictionPolicy> {
                    return std::make_unique<SampledLruPolicy>(seed);
                  });
  RegisterBuiltin(registry, "cache-shift-aware",
                  "evict the cold frame whose slot is cheapest to sweep from "
                  "the current port alignment, avoiding frames still needed "
                  "this window",
                  MakeUnseeded<ShiftAwarePolicy>);
}

}  // namespace rtmp::cache

namespace rtmp::core {
template <>
cache::EvictionPolicyRegistry& cache::EvictionPolicyRegistry::Global() {
  static cache::EvictionPolicyRegistry& registry = MakeGlobal(
      cell_kind::kEvictionPolicy, cache::RegisterBuiltinEvictionPolicies);
  return registry;
}
}  // namespace rtmp::core

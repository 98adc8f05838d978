#include "cache/eviction.h"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "core/registry_namespace.h"
#include "util/rng.h"
#include "util/strings.h"

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
  explicit LruPolicy(EvictionPolicyInfo info) : info_(std::move(info)) {}

  [[nodiscard]] const EvictionPolicyInfo& Describe() const noexcept override {
    return info_;
  }

  [[nodiscard]] std::uint32_t PickVictim(const EvictionContext& ctx) override {
    return LeastRecentlyUsed(ctx);
  }

 private:
  EvictionPolicyInfo info_;
};

class LfuPolicy final : public EvictionPolicy {
 public:
  explicit LfuPolicy(EvictionPolicyInfo info) : info_(std::move(info)) {}

  [[nodiscard]] const EvictionPolicyInfo& Describe() const noexcept override {
    return info_;
  }

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

 private:
  EvictionPolicyInfo info_;
};

/// zsim-style sampled LRU: O(K) per miss. Sampling is with replacement
/// (duplicates just waste a draw) and uses the policy's own xoshiro
/// stream so two engines with the same seed replay identically.
class SampledLruPolicy final : public EvictionPolicy {
 public:
  static constexpr std::size_t kSample = 5;

  SampledLruPolicy(EvictionPolicyInfo info, std::uint64_t seed)
      : info_(std::move(info)), rng_(seed) {}

  [[nodiscard]] const EvictionPolicyInfo& Describe() const noexcept override {
    return info_;
  }

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
  EvictionPolicyInfo info_;
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

  explicit ShiftAwarePolicy(EvictionPolicyInfo info)
      : info_(std::move(info)) {}

  [[nodiscard]] const EvictionPolicyInfo& Describe() const noexcept override {
    return info_;
  }

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

  EvictionPolicyInfo info_;
};

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

EvictionPolicyRegistry& EvictionPolicyRegistry::Global() {
  static EvictionPolicyRegistry* registry = [] {
    // Leaked: outlives EvictionPolicyRegistrar uses in static
    // destructors.
    // NOLINTNEXTLINE(rtmlint:naked-new): leaked Global() singleton.
    auto* r = new EvictionPolicyRegistry();
    r->ClaimCellNamespace("cache eviction policy");
    RegisterBuiltinEvictionPolicies(*r);
    return r;
  }();
  return *registry;
}

void EvictionPolicyRegistry::Register(EvictionPolicyInfo info,
                                      Factory factory) {
  if (!factory) {
    throw std::invalid_argument("EvictionPolicyRegistry: null factory for '" +
                                info.name + "'");
  }
  std::string key = util::ToLower(info.name);
  const auto valid_char = [](unsigned char c) {
    return std::isalnum(c) != 0 || c == '-' || c == '_' || c == '.';
  };
  if (key.empty() || !std::all_of(key.begin(), key.end(), valid_char)) {
    throw std::invalid_argument("EvictionPolicyRegistry: invalid name '" +
                                info.name + "'");
  }
  if (namespace_kind_ != nullptr) {
    core::RegistryNamespace::Global().Claim(key, namespace_kind_);
  }
  info.name = key;
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const auto& entry, const std::string& k) { return entry.first < k; });
  if (it != entries_.end() && it->first == key) {
    throw std::invalid_argument("EvictionPolicyRegistry: duplicate policy '" +
                                key + "'");
  }
  entries_.insert(
      it, {std::move(key), Entry{std::move(info), std::move(factory)}});
}

const EvictionPolicyRegistry::Entry* EvictionPolicyRegistry::FindEntry(
    const std::string& key) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const auto& entry, const std::string& k) { return entry.first < k; });
  if (it == entries_.end() || it->first != key) return nullptr;
  return &it->second;
}

std::unique_ptr<EvictionPolicy> EvictionPolicyRegistry::Create(
    std::string_view name, std::uint64_t seed) const {
  const std::string key = util::ToLower(name);
  Factory factory;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const Entry* entry = FindEntry(key);
    if (entry == nullptr) return nullptr;
    factory = entry->factory;
  }
  // Run the factory unlocked: factories may consult the registries.
  return factory(seed);
}

std::optional<EvictionPolicyInfo> EvictionPolicyRegistry::Describe(
    std::string_view name) const {
  const std::string key = util::ToLower(name);
  const std::lock_guard<std::mutex> lock(mutex_);
  const Entry* entry = FindEntry(key);
  if (entry == nullptr) return std::nullopt;
  return entry->info;
}

bool EvictionPolicyRegistry::Contains(std::string_view name) const {
  const std::string key = util::ToLower(name);
  const std::lock_guard<std::mutex> lock(mutex_);
  return FindEntry(key) != nullptr;
}

std::vector<std::string> EvictionPolicyRegistry::Names() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> names;
  names.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) names.push_back(key);
  return names;
}

std::size_t EvictionPolicyRegistry::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void RegisterBuiltinEvictionPolicies(EvictionPolicyRegistry& registry) {
  registry.Register(
      {"cache-lru", "evict the least recently used resident frame"},
      [](std::uint64_t) {
        return std::make_unique<LruPolicy>(EvictionPolicyInfo{
            "cache-lru", "evict the least recently used resident frame"});
      });
  registry.Register(
      {"cache-lfu",
       "evict the least frequently used resident frame (recency breaks "
       "ties)"},
      [](std::uint64_t) {
        return std::make_unique<LfuPolicy>(EvictionPolicyInfo{
            "cache-lfu",
            "evict the least frequently used resident frame (recency breaks "
            "ties)"});
      });
  registry.Register(
      {"cache-sample",
       "zsim-style sampled LRU: evict the least recently used of 5 "
       "randomly drawn frames"},
      [](std::uint64_t seed) {
        return std::make_unique<SampledLruPolicy>(
            EvictionPolicyInfo{
                "cache-sample",
                "zsim-style sampled LRU: evict the least recently used of 5 "
                "randomly drawn frames"},
            seed);
      });
  registry.Register(
      {"cache-shift-aware",
       "evict the cold frame whose slot is cheapest to sweep from the "
       "current port alignment, avoiding frames still needed this window"},
      [](std::uint64_t) {
        return std::make_unique<ShiftAwarePolicy>(EvictionPolicyInfo{
            "cache-shift-aware",
            "evict the cold frame whose slot is cheapest to sweep from the "
            "current port alignment, avoiding frames still needed this "
            "window"});
      });
}

EvictionPolicyRegistrar::EvictionPolicyRegistrar(
    EvictionPolicyInfo info, EvictionPolicyRegistry::Factory factory) {
  EvictionPolicyRegistry::Global().Register(std::move(info),
                                            std::move(factory));
}

}  // namespace rtmp::cache

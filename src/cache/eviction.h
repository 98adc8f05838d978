// Eviction policies for the hybrid-memory cache tier: which resident
// frame to give up when a miss needs room.
//
// The cache engine (cache/engine.h) maps logical variables onto a fixed
// pool of device frames. When an access touches a variable with no
// frame, the engine asks a policy to pick a victim among the candidate
// frames, writes the victim back if dirty, and fills the newcomer into
// the freed frame. Policies are pure victim-selectors: they see frame
// bookkeeping (recency, frequency, dirtiness, owner), the engine's
// recency list over the resident frames, the wrapped engine's current
// placement, and a summary of the rest of the window (pending uses per
// frame), and return one frame index. All residency and traffic
// bookkeeping stays in the engine.
//
// Policies may be stateful (cache-sample keeps an RNG) but are used from
// a single thread per engine. The registry therefore holds one shared
// factory per name, and each engine Create()s its own policy from it,
// so engines never share policy state.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "core/placement.h"
#include "core/registry.h"

namespace rtmp::cache {

/// Frame index sentinel: "no frame" / "no occupant" marker shared by the
/// engine and the policies.
inline constexpr std::uint32_t kNoFrame = static_cast<std::uint32_t>(-1);

/// EvictionContext::scope_owner of an unscoped miss: every resident frame
/// is a candidate.
inline constexpr std::uint32_t kAnyOwner = static_cast<std::uint32_t>(-1);

/// Per-frame bookkeeping the engine maintains and policies read.
struct FrameInfo {
  /// Logical variable currently resident in this frame; kNoFrame while
  /// the frame has never been admitted to (cannot happen once misses
  /// start: admission fills frames before eviction begins).
  std::uint32_t occupant = kNoFrame;
  /// The resident word differs from the backing copy (a write landed
  /// since the fill); evicting it costs a writeback.
  bool dirty = false;
  /// Engine tick of the occupant's most recent access.
  std::uint64_t last_use = 0;
  /// Total accesses the occupant has received while resident.
  std::uint64_t uses = 0;
  /// Tick at which the current occupant was admitted.
  std::uint64_t admitted = 0;
  /// Owning tenant index (serve composition); 0 in single-tenant use.
  std::uint32_t owner = 0;
};

/// Everything a policy may consult when picking a victim. Spans point
/// into engine-owned storage and are valid only for the duration of the
/// PickVictim call.
struct EvictionContext {
  /// Frame indices the victim must come from (never empty), ascending.
  /// Usually every resident frame; under per-tenant quotas, the
  /// over-quota tenant's resident frames.
  std::span<const std::uint32_t> candidates;
  /// Bookkeeping for ALL frames, indexed by frame id.
  std::span<const FrameInfo> frames;
  /// The engine's recency list over every resident frame, least recent
  /// first: `recency_head` is its first frame and `recency_next[f]` the
  /// frame after f (kNoFrame past the last). Its order is exactly
  /// ascending (last_use, frame id), so walking it yields the candidates
  /// in LRU order without sorting (see LeastRecentCandidates).
  std::uint32_t recency_head = kNoFrame;
  std::span<const std::uint32_t> recency_next;
  /// The owner whose frames the candidates are on a quota-scoped miss;
  /// kAnyOwner on an unscoped one. List walks skip other owners' frames.
  std::uint32_t scope_owner = kAnyOwner;
  /// The wrapped engine's live placement of frames onto the device, or
  /// nullptr before the first window has been placed. Frame f's slot is
  /// placement->SlotOf(f) when placement->IsPlaced(f).
  const core::Placement* placement = nullptr;
  /// Per-DBC offset of the most recent access the engine routed there
  /// this window, -1 for DBCs untouched so far — a proxy for where each
  /// DBC's port alignment sits, so shift-aware policies can price the
  /// eviction sweep. Indexed by DBC id; empty before the first window.
  std::span<const std::int64_t> last_offsets;
  /// Remaining accesses to each frame's occupant in the current window
  /// (indexed by frame id). A frame with pending uses will miss again
  /// this very window if evicted now.
  std::span<const std::uint64_t> pending_uses;
  /// Engine tick of the access that triggered the miss.
  std::uint64_t tick = 0;
};

/// Fills `out` with the least recently used candidates of `ctx`, least
/// recent first, by walking the recency list and skipping frames outside
/// `ctx.scope_owner`; returns how many it wrote (fewer than out.size()
/// only when the candidates run out). O(out.size()) on an unscoped miss;
/// a scoped walk also steps over every more-stale frame of other owners.
std::size_t LeastRecentCandidates(const EvictionContext& ctx,
                                  std::span<std::uint32_t> out);

/// Self-description of a registered eviction policy.
struct EvictionPolicyInfo {
  /// Registry key: lowercase, unique ("cache-lru", ...).
  std::string name;
  /// One-line human-readable description for listings and docs.
  std::string summary;
};

/// Abstract victim selector. One instance serves one engine; PickVictim
/// is non-const so policies may keep state (sampling RNGs, decayed
/// counters). Must return one of ctx.candidates.
class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;

  /// Picks the frame to evict. `ctx.candidates` is never empty; the
  /// engine validates the returned frame is among them and throws
  /// std::logic_error otherwise (a policy bug, not an input error).
  [[nodiscard]] virtual std::uint32_t PickVictim(
      const EvictionContext& ctx) = 0;
};

/// What the registry holds per eviction-policy name: a stateless maker
/// of fresh per-engine policies.
class EvictionPolicyFactory {
 public:
  virtual ~EvictionPolicyFactory() = default;

  [[nodiscard]] virtual const EvictionPolicyInfo& Describe()
      const noexcept = 0;

  /// A fresh policy. `seed` feeds randomized policies (cache-sample);
  /// deterministic policies ignore it.
  [[nodiscard]] virtual std::unique_ptr<EvictionPolicy> Create(
      std::uint64_t seed) const = 0;
};

/// Name -> eviction-policy factory registry (core/registry.h). Global()
/// claims its names as "cache eviction policy" in the cell-name space,
/// so no cell can shadow them, although they are not cells themselves.
using EvictionPolicyRegistry = core::Registry<EvictionPolicyFactory>;
using EvictionPolicyRegistrar = EvictionPolicyRegistry::Registrar;

/// Registers the built-in policies into `registry`:
///
///   cache-lru          evict the least recently used frame: the head of
///                      the recency list;
///   cache-lfu          evict the least frequently used frame (recency,
///                      then id, break ties) — a scan of the candidates;
///   cache-sample       zsim-style sampled LRU: draw K=5 candidate
///                      frames with the policy's own RNG, evict the
///                      least recently used of the sample (the list head
///                      when there are at most K candidates);
///   cache-shift-aware  rank the 8 least recently used candidates, taken
///                      off the recency list, by a placement-aware
///                      score: prefer victims with no pending uses this
///                      window, then the victim whose slot is closest to
///                      its DBC's last serviced offset (the cheapest
///                      eviction sweep under the cost model's
///                      first-access-free convention), then recency.
///
/// Per-miss cost, engine side included. An unscoped miss hands over a
/// prefix of a persistent frame-id array and the live list, so it costs
/// O(1) for cache-lru, O(K) for cache-sample, O(8) for
/// cache-shift-aware and O(capacity) for cache-lfu. A quota-scoped miss
/// first builds the owner's candidate list in O(capacity); the list
/// walks of cache-lru, cache-shift-aware and the small-set cache-sample
/// path then skip other owners' frames, which is also O(capacity) in the
/// worst case.
///
/// Global() calls this once; tests use it to build fresh registries.
void RegisterBuiltinEvictionPolicies(EvictionPolicyRegistry& registry);

}  // namespace rtmp::cache

namespace rtmp::core {
template <>
cache::EvictionPolicyRegistry& cache::EvictionPolicyRegistry::Global();
}  // namespace rtmp::core

// Randomized differential testing of the cache tier.
//
// A naive plain-map reference simulator re-derives CacheEngine's
// directory bookkeeping per access — free admission of the first C
// registered variables (also when a name arrives after accesses have
// started), global 1-based ticks, per-owner quota scoping, and
// LRU/LFU/sampled-LRU victim selection over the scoped candidates with
// the engine's exact tie-breaks — and the classified event streams must
// match bit-for-bit on adversarial random access mixes with far more
// variables than frames.
//
// cache-shift-aware ranks victims with placement internals the
// reference deliberately does not model; there the engine's own event
// stream is replayed against the reference directory instead: every
// classification, victim residency, evicted occupant and writeback
// flag must be consistent with the tracked state, and every victim
// must be among the 8 least recently used candidates of a full
// reference sort.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cache/engine.h"
#include "sim/experiment.h"
#include "trace/access_sequence.h"
#include "util/rng.h"
#include "util/strings.h"

namespace {

using namespace rtmp;

constexpr std::size_t kVariables = 60;  ///< 3x over-committed ...
constexpr std::size_t kCapacity = 20;   ///< ... against the frame pool.
constexpr std::size_t kStreamLength = 2000;
constexpr std::size_t kWindow = 32;
constexpr std::uint64_t kEvictionSeed = 0xF00D;
/// cache-shift-aware ranks this many least recently used candidates.
constexpr std::size_t kShiftAwareShortlist = 8;
/// Variables registered up front in the late-admission scenario; the
/// rest arrive mid-stream while frames are still empty.
constexpr std::size_t kLatePreregistered = 6;

std::string VariableName(std::uint32_t variable) {
  return util::Concat({"v", std::to_string(variable)});
}

/// Late-admission streams reserve the next name right after an even
/// id's first access: it is registered (and admitted, while frames are
/// empty) ahead of its own first access, so it sits cold in the pool.
bool ReservesNext(std::uint32_t variable) {
  return variable % 2 == 0 && variable + 1 < kVariables;
}

struct RefFrame {
  std::uint32_t occupant = cache::kNoFrame;
  std::uint32_t owner = 0;
  std::uint64_t last_use = 0;
  std::uint64_t uses = 0;
  bool dirty = false;
};

/// Plain-map mirror of the engine's directory. Holds no device, no
/// windows, no placement — just the residency state machine. Variable v
/// belongs to owner v % `owners`.
class ReferenceCache {
 public:
  ReferenceCache(std::string policy, std::uint32_t owners,
                 std::array<std::size_t, 2> quotas)
      : policy_(std::move(policy)),
        owners_(owners),
        quotas_(quotas),
        rng_(kEvictionSeed) {
    frames_.resize(kCapacity);
  }

  /// Registers the next variable id; the first kCapacity are admitted
  /// to the frame of the same id, for free.
  void Register() {
    const auto id = static_cast<std::uint32_t>(frame_of_.size());
    const std::uint32_t owner = id % owners_;
    frame_of_.push_back(cache::kNoFrame);
    if (id < kCapacity) {
      frames_[id].occupant = id;
      frames_[id].owner = owner;
      frame_of_[id] = id;
      ++resident_[owner];
    }
  }

  [[nodiscard]] std::size_t registered() const { return frame_of_.size(); }

  /// The victim candidates of a miss on `variable`: every occupied frame,
  /// or only its owner's while the owner is at its quota; ascending.
  [[nodiscard]] std::vector<std::uint32_t> Candidates(
      std::uint32_t variable) const {
    const std::uint32_t owner = variable % owners_;
    const bool scoped =
        quotas_[owner] != 0 && resident_[owner] >= quotas_[owner];
    std::vector<std::uint32_t> candidates;
    for (std::uint32_t f = 0; f < frames_.size(); ++f) {
      if (frames_[f].occupant == cache::kNoFrame) continue;
      if (scoped && frames_[f].owner != owner) continue;
      candidates.push_back(f);
    }
    return candidates;
  }

  /// Candidates of a miss on `variable` in (last_use, frame id) order,
  /// cut to cache-shift-aware's shortlist.
  [[nodiscard]] std::vector<std::uint32_t> LruShortlist(
      std::uint32_t variable) const {
    std::vector<std::uint32_t> order = Candidates(variable);
    std::sort(order.begin(), order.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                if (frames_[a].last_use != frames_[b].last_use) {
                  return frames_[a].last_use < frames_[b].last_use;
                }
                return a < b;
              });
    order.resize(std::min(order.size(), kShiftAwareShortlist));
    return order;
  }

  /// Advances one access and returns the event the engine must emit.
  /// `forced_victim` substitutes for PickVictim on a miss when the
  /// reference does not re-derive the policy (cache-shift-aware).
  cache::CacheEvent Access(const trace::Access& access,
                           std::uint32_t forced_victim = cache::kNoFrame) {
    ++tick_;
    const std::uint32_t variable = access.variable;
    const std::uint32_t resident = frame_of_[variable];
    if (resident != cache::kNoFrame) {
      RefFrame& info = frames_[resident];
      info.last_use = tick_;
      ++info.uses;
      if (access.type == trace::AccessType::kWrite) info.dirty = true;
      ++hits;
      return {tick_, variable, resident, cache::CacheEvent::Kind::kHit,
              cache::kNoFrame, false};
    }
    const std::uint32_t victim = forced_victim != cache::kNoFrame
                                     ? forced_victim
                                     : PickVictim(Candidates(variable));
    ++misses;
    EXPECT_LT(victim, frames_.size());
    RefFrame& info = frames_[victim];
    EXPECT_NE(info.occupant, cache::kNoFrame);
    const std::uint32_t evicted = info.occupant;
    const bool wrote_back = info.dirty;
    if (wrote_back) ++writebacks;
    frame_of_[evicted] = cache::kNoFrame;
    frame_of_[variable] = victim;
    --resident_[info.owner];
    info.owner = variable % owners_;
    ++resident_[info.owner];
    info.occupant = variable;
    info.dirty = access.type == trace::AccessType::kWrite;
    info.last_use = tick_;
    info.uses = 1;
    return {tick_, variable, victim, cache::CacheEvent::Kind::kMiss, evicted,
            wrote_back};
  }

  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t writebacks = 0;

 private:
  /// Least recently used of `candidates`; the first (lowest id) wins
  /// ties.
  std::uint32_t LeastRecent(const std::vector<std::uint32_t>& candidates) {
    std::uint32_t best = candidates.front();
    for (const std::uint32_t f : candidates) {
      if (frames_[f].last_use < frames_[best].last_use) best = f;
    }
    return best;
  }

  std::uint32_t PickVictim(const std::vector<std::uint32_t>& candidates) {
    if (candidates.empty()) {
      ADD_FAILURE() << "reference miss with no candidates";
      return 0;
    }
    if (policy_ == "cache-lru") return LeastRecent(candidates);
    if (policy_ == "cache-lfu") {
      std::uint32_t best = candidates.front();
      for (const std::uint32_t f : candidates) {
        if (frames_[f].uses != frames_[best].uses) {
          if (frames_[f].uses < frames_[best].uses) best = f;
        } else if (frames_[f].last_use < frames_[best].last_use) {
          best = f;
        }
      }
      return best;
    }
    if (policy_ == "cache-sample") {
      // At most five candidates: plain LRU, no draws. Otherwise five
      // draws with replacement from the policy's own xoshiro stream;
      // draw counts stay aligned as long as miss classification and
      // candidate sets agree — which is what is under test.
      if (candidates.size() <= 5) return LeastRecent(candidates);
      std::uint32_t best = cache::kNoFrame;
      for (int draw = 0; draw < 5; ++draw) {
        const std::uint32_t frame =
            candidates[rng_.NextBelow(candidates.size())];
        if (best == cache::kNoFrame ||
            frames_[frame].last_use < frames_[best].last_use ||
            (frames_[frame].last_use == frames_[best].last_use &&
             frame < best)) {
          best = frame;
        }
      }
      return best;
    }
    ADD_FAILURE() << "reference reached PickVictim for policy '" << policy_
                  << "' (classification diverged from the engine)";
    return 0;
  }

  std::string policy_;
  std::uint32_t owners_;
  std::array<std::size_t, 2> quotas_;
  util::Rng rng_;
  std::vector<RefFrame> frames_;
  std::vector<std::uint32_t> frame_of_;
  std::array<std::size_t, 2> resident_{};
  std::uint64_t tick_ = 0;
};

/// Uniform chaos: every variable equally likely, 30% writes.
std::vector<trace::Access> UniformStream(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<trace::Access> stream;
  stream.reserve(kStreamLength);
  for (std::size_t i = 0; i < kStreamLength; ++i) {
    stream.push_back(
        {static_cast<trace::VariableId>(rng.NextBelow(kVariables)),
         rng.NextBool(0.3) ? trace::AccessType::kWrite
                           : trace::AccessType::kRead});
  }
  return stream;
}

/// Rotating hot set: 85% of accesses hit a 12-variable window that
/// slides every 150 accesses — forces steady eviction churn with
/// reuse, the regime where LRU/LFU/sampled choices actually differ.
std::vector<trace::Access> HotSetStream(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<trace::Access> stream;
  stream.reserve(kStreamLength);
  std::uint32_t base = 0;
  for (std::size_t i = 0; i < kStreamLength; ++i) {
    if (i != 0 && i % 150 == 0) base = (base + 7) % kVariables;
    const std::uint32_t variable =
        rng.NextBool(0.85)
            ? (base + static_cast<std::uint32_t>(rng.NextBelow(12))) %
                  kVariables
            : static_cast<std::uint32_t>(rng.NextBelow(kVariables));
    stream.push_back({variable, rng.NextBool(0.4)
                                    ? trace::AccessType::kWrite
                                    : trace::AccessType::kRead});
  }
  return stream;
}

/// Late admission: starts with kLatePreregistered names; each access
/// introduces the next name with probability 0.08 (a Feed of a new
/// name), else goes 70% to the six most recently introduced names and
/// 30% uniformly to any registered one — which is how names reserved
/// by ReservesNext get their first access, if at all.
std::vector<trace::Access> ArrivalStream(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<trace::Access> stream;
  stream.reserve(kStreamLength);
  std::vector<std::uint32_t> introduced;
  for (std::uint32_t v = 0; v < kLatePreregistered; ++v) {
    introduced.push_back(v);
  }
  auto registered = static_cast<std::uint32_t>(kLatePreregistered);
  for (std::size_t i = 0; i < kStreamLength; ++i) {
    std::uint32_t variable = 0;
    if (registered < kVariables && rng.NextBool(0.08)) {
      variable = registered++;
      if (ReservesNext(variable)) ++registered;
      introduced.push_back(variable);
    } else if (rng.NextBool(0.7)) {
      const std::size_t hot = std::min<std::size_t>(introduced.size(), 6);
      variable = introduced[introduced.size() - 1 - rng.NextBelow(hot)];
    } else {
      variable = static_cast<std::uint32_t>(rng.NextBelow(registered));
    }
    stream.push_back({variable, rng.NextBool(0.3)
                                    ? trace::AccessType::kWrite
                                    : trace::AccessType::kRead});
  }
  return stream;
}

/// How a run registers its variables and scopes its misses.
struct Scenario {
  const char* name;
  std::vector<trace::Access> (*make)(std::uint64_t seed);
  /// Variables registered, in id order, before the first access; the
  /// rest arrive through Feed(name) (and ReservesNext).
  std::size_t preregistered;
  /// Variable v belongs to owner v % owners.
  std::uint32_t owners;
  /// Per-owner resident quota; 0 = unlimited.
  std::array<std::size_t, 2> quotas;
};

constexpr Scenario kScenarios[] = {
    {"uniform", UniformStream, kVariables, 1, {0, 0}},
    {"hot-set", HotSetStream, kVariables, 1, {0, 0}},
    // Owner 1 starts over its quota and evicts its own frames; owner 0
    // evicts device-wide until it reaches 12.
    {"quota-12-8", HotSetStream, kVariables, 2, {12, 8}},
    // Owner 1's quota is below the sample size: its scoped misses take
    // cache-sample's small-set LRU path.
    {"quota-15-4", UniformStream, kVariables, 2, {15, 4}},
    {"late-admission", ArrivalStream, kLatePreregistered, 1, {0, 0}},
};
constexpr std::uint64_t kStreamSeeds[] = {0x1111, 0x2222, 0x3333};

cache::CacheResult RunEngine(const Scenario& scenario,
                             const std::vector<trace::Access>& stream,
                             const std::string& eviction) {
  cache::CacheConfig config;
  config.eviction = eviction;
  config.capacity_slots = kCapacity;
  config.eviction_seed = kEvictionSeed;
  config.record_events = true;
  config.engine.reseed_strategy = "dma-sr";
  config.engine.window_accesses = kWindow;
  config.engine.detector.kind = online::DetectorKind::kFixedWindow;
  config.engine.detector.period = 1;
  cache::CacheEngine engine(config, sim::CellConfig(4, kCapacity));
  for (std::uint32_t v = 0; v < scenario.preregistered; ++v) {
    (void)engine.RegisterVariable(VariableName(v), v % scenario.owners);
  }
  for (std::uint32_t owner = 0; owner < scenario.owners; ++owner) {
    engine.SetOwnerQuota(owner, scenario.quotas[owner]);
  }
  if (scenario.preregistered == kVariables) {
    engine.Feed(stream);
  } else {
    for (const trace::Access& access : stream) {
      const bool arriving = access.variable == engine.variables_seen();
      engine.Feed(VariableName(access.variable), access.type);
      if (arriving && ReservesNext(access.variable)) {
        (void)engine.RegisterVariable(VariableName(access.variable + 1));
      }
    }
  }
  EXPECT_EQ(engine.resident(),
            std::min(engine.variables_seen(), engine.capacity()));
  return engine.Finish();
}

void ExpectEventsEqual(const cache::CacheEvent& expected,
                       const cache::CacheEvent& actual,
                       const std::string& label) {
  ASSERT_TRUE(expected == actual)
      << label << " diverged at tick " << expected.tick << ": expected "
      << (expected.kind == cache::CacheEvent::Kind::kHit ? "hit" : "miss")
      << " var=" << expected.variable << " frame=" << expected.frame
      << " evicted=" << expected.evicted
      << " wrote_back=" << expected.wrote_back << "; engine emitted "
      << (actual.kind == cache::CacheEvent::Kind::kHit ? "hit" : "miss")
      << " var=" << actual.variable << " frame=" << actual.frame
      << " evicted=" << actual.evicted << " wrote_back=" << actual.wrote_back;
}

void ExpectConserved(const cache::CacheResult& result,
                     const std::string& label) {
  EXPECT_EQ(result.cache.hits + result.cache.misses, result.cache.accesses)
      << label;
  EXPECT_EQ(result.cache.fills, result.cache.misses) << label;
  EXPECT_EQ(result.online.stats.shifts,
            result.online.service_shifts + result.online.migration_shifts +
                result.cache.fill_shifts)
      << label;
}

/// Runs `policy` on every scenario and stream seed and replays each
/// engine event stream through the reference, window by window:
/// registrations land when the engine's Feed sees them, accesses when
/// their window resolves. With `replay_victims` the engine's own victim
/// frames drive the reference, and each must be on the reference's LRU
/// shortlist; otherwise the reference picks its own and the streams
/// must agree exactly.
void CheckAgainstReference(const std::string& policy, bool replay_victims) {
  for (const Scenario& scenario : kScenarios) {
    for (const std::uint64_t seed : kStreamSeeds) {
      const std::vector<trace::Access> stream = scenario.make(seed);
      const cache::CacheResult result = RunEngine(scenario, stream, policy);
      const std::string label = util::Concat(
          {policy, "/", scenario.name, "/seed", std::to_string(seed)});
      ASSERT_EQ(result.events.size(), stream.size()) << label;

      ReferenceCache reference(policy, scenario.owners, scenario.quotas);
      for (std::size_t v = 0; v < scenario.preregistered; ++v) {
        reference.Register();
      }
      for (std::size_t begin = 0; begin < stream.size(); begin += kWindow) {
        const std::size_t end = std::min(stream.size(), begin + kWindow);
        for (std::size_t i = begin; i < end; ++i) {
          const std::uint32_t variable = stream[i].variable;
          ASSERT_LE(variable, reference.registered()) << label;
          if (variable < reference.registered()) continue;
          reference.Register();
          if (ReservesNext(variable)) reference.Register();
        }
        for (std::size_t i = begin; i < end; ++i) {
          const cache::CacheEvent& actual = result.events[i];
          std::uint32_t forced = cache::kNoFrame;
          if (replay_victims && actual.kind == cache::CacheEvent::Kind::kMiss) {
            forced = actual.frame;
            const std::vector<std::uint32_t> shortlist =
                reference.LruShortlist(stream[i].variable);
            EXPECT_NE(std::find(shortlist.begin(), shortlist.end(), forced),
                      shortlist.end())
                << label << " tick " << actual.tick;
          }
          ExpectEventsEqual(reference.Access(stream[i], forced), actual,
                            label);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
      EXPECT_EQ(result.cache.hits, reference.hits) << label;
      EXPECT_EQ(result.cache.misses, reference.misses) << label;
      EXPECT_EQ(result.cache.writebacks, reference.writebacks) << label;
      // The miss regime must be non-trivial for the run to mean much.
      EXPECT_GT(reference.misses, 100u) << label;
      EXPECT_GT(reference.hits, 100u) << label;
      ExpectConserved(result, label);
    }
  }
}

TEST(CacheFuzz, ExactEventStreamMatchesReference) {
  for (const std::string policy :
       {"cache-lru", "cache-lfu", "cache-sample"}) {
    CheckAgainstReference(policy, /*replay_victims=*/false);
    if (HasFatalFailure()) return;
  }
}

TEST(CacheFuzz, ShiftAwareEventReplayIsConsistent) {
  // Residency classification, the evicted occupant and the writeback
  // flag are all forced moves once the victim frame is fixed, so any
  // bookkeeping drift in the engine surfaces as an event mismatch.
  CheckAgainstReference("cache-shift-aware", /*replay_victims=*/true);
}

}  // namespace

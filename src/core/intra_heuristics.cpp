#include "core/intra_heuristics.h"

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>

#include "trace/access_graph.h"

namespace rtmp::core {

namespace {

constexpr std::size_t kNoIndex = std::numeric_limits<std::size_t>::max();

/// Global -> local map entry of a variable outside the local problem.
constexpr std::uint32_t kOutside = std::numeric_limits<std::uint32_t>::max();

/// Local view of one DBC's subproblem: dense local ids for its accessed
/// members, frequencies and a CSR adjacency structure from their
/// accesses. Every neighbour list is ordered by ascending neighbour id.
struct LocalProblem {
  std::vector<VariableId> globals;              // local -> global id
  std::vector<std::uint64_t> frequency;         // by local id
  std::vector<std::size_t> edge_begin;          // CSR offsets, size() + 1
  std::vector<trace::AccessGraph::Edge> edges;  // local neighbour ids

  [[nodiscard]] std::size_t size() const noexcept { return globals.size(); }

  [[nodiscard]] std::span<const trace::AccessGraph::Edge> Neighbors(
      std::size_t v) const noexcept {
    return {edges.data() + edge_begin[v], edge_begin[v + 1] - edge_begin[v]};
  }
};

/// Scratch for building the local problems of many DBCs in a row. The
/// global -> local map is allocated once and every Build() resets only
/// the entries of the variables it saw, so a build costs
/// O(|accesses| log |accesses|), independent of the size of the global
/// variable space and of the DBC's never-accessed members.
class LocalWorkspace {
 public:
  /// `to_local` must hold kOutside in every entry; it has to cover every
  /// id that Build() will see in `accesses`.
  explicit LocalWorkspace(std::vector<std::uint32_t> to_local)
      : to_local_(std::move(to_local)) {}

  /// Builds the local problem of the variables accessed in `accesses`,
  /// all of them members of the DBC being ordered. The result stays valid
  /// until the next Build().
  const LocalProblem& Build(std::span<const trace::Access> accesses);

 private:
  std::vector<std::uint32_t> to_local_;
  std::vector<std::uint64_t> transitions_;
  std::vector<std::uint64_t> weights_;
  std::vector<std::size_t> cursor_;
  LocalProblem local_;
};

const LocalProblem& LocalWorkspace::Build(
    std::span<const trace::Access> accesses) {
  LocalProblem& local = local_;
  local.globals.clear();
  local.frequency.clear();
  // Local ids by order of first access, for determinism. Transitions are
  // packed (lo, hi) pairs, sorted then run-length counted below: edge
  // weights accumulate in key order, so adjacency construction is
  // deterministic with no hash-ordered container in the path (the
  // adjacency lists feed heuristic tie-breaks and, through them, the
  // golden-checked reports).
  transitions_.clear();
  std::uint32_t prev = kOutside;
  for (const trace::Access& a : accesses) {
    std::uint32_t& slot = to_local_[a.variable];
    if (slot == kOutside) {
      slot = static_cast<std::uint32_t>(local.globals.size());
      local.globals.push_back(a.variable);
      local.frequency.push_back(0);
    }
    const std::uint32_t cur = slot;
    ++local.frequency[cur];
    if (prev != kOutside && prev != cur) {
      const std::uint64_t lo = std::min(prev, cur);
      const std::uint64_t hi = std::max(prev, cur);
      transitions_.push_back((lo << 32) | hi);
    }
    prev = cur;
  }
  // Hand the map back clean.
  for (const VariableId v : local.globals) to_local_[v] = kOutside;

  // Compact the sorted transitions into distinct keys with weights and
  // count each vertex's degree.
  const std::size_t n = local.size();
  local.edge_begin.assign(n + 1, 0);
  std::sort(transitions_.begin(), transitions_.end());
  weights_.clear();
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < transitions_.size();) {
    const std::uint64_t key = transitions_[i];
    std::size_t j = i;
    while (j < transitions_.size() && transitions_[j] == key) ++j;
    transitions_[distinct++] = key;
    weights_.push_back(j - i);
    ++local.edge_begin[(key >> 32) + 1];
    ++local.edge_begin[(key & 0xFFFFFFFFULL) + 1];
    i = j;
  }
  for (std::size_t v = 0; v < n; ++v) {
    local.edge_begin[v + 1] += local.edge_begin[v];
  }
  // Filling in (lo, hi) key order leaves every list sorted by neighbour:
  // vertex x first receives its lower neighbours (keys (lo, x), ascending
  // lo), then its higher ones (keys (x, hi), ascending hi).
  local.edges.resize(local.edge_begin[n]);
  cursor_.assign(local.edge_begin.begin(), local.edge_begin.end() - 1);
  for (std::size_t i = 0; i < distinct; ++i) {
    const auto u = static_cast<VariableId>(transitions_[i] >> 32);
    const auto v = static_cast<VariableId>(transitions_[i] & 0xFFFFFFFFULL);
    local.edges[cursor_[u]++] = {v, weights_[i]};
    local.edges[cursor_[v]++] = {u, weights_[i]};
  }
  return local;
}

/// The DBC's order: the local chain, then its never-accessed members
/// (`unused`, ascending id).
std::vector<VariableId> FinishOrder(const LocalProblem& local,
                                    const std::vector<std::size_t>& sequence,
                                    std::span<const VariableId> unused) {
  std::vector<VariableId> order;
  order.reserve(sequence.size() + unused.size());
  for (const std::size_t l : sequence) order.push_back(local.globals[l]);
  order.insert(order.end(), unused.begin(), unused.end());
  return order;
}

std::vector<std::size_t> OfuChain(const LocalProblem& local) {
  // Local ids were assigned in first-access order already.
  std::vector<std::size_t> sequence(local.size());
  for (std::size_t i = 0; i < sequence.size(); ++i) sequence[i] = i;
  return sequence;
}

/// Seed vertex for the greedy heuristics: highest frequency, tie broken by
/// lower global id.
std::size_t SeedVertex(const LocalProblem& local) {
  std::size_t best = 0;
  for (std::size_t v = 1; v < local.size(); ++v) {
    const bool better =
        local.frequency[v] > local.frequency[best] ||
        (local.frequency[v] == local.frequency[best] &&
         local.globals[v] < local.globals[best]);
    if (better) best = v;
  }
  return best;
}

/// Shared greedy skeleton for kChen/kShiftsReduce: repeatedly take the
/// unplaced vertex with the largest total weight to the placed set and let
/// `choose_front` decide which end it is appended to.
///
/// Contract: `choose_front(v, order)` is called EXACTLY ONCE per remaining
/// vertex, and v is placed at the chosen end immediately afterwards.
/// Callbacks may carry state keyed on that contract — ShiftsReduceChain's
/// does (it tracks each placed vertex's virtual chain coordinate).
template <typename ChooseFront>
std::vector<std::size_t> GrowChain(const LocalProblem& local,
                                   ChooseFront&& choose_front) {
  const std::size_t n = local.size();
  std::vector<std::size_t> chain;
  if (n == 0) return chain;
  std::vector<bool> placed(n, false);
  std::vector<std::uint64_t> gain(n, 0);

  std::deque<std::size_t> order;
  auto place = [&](std::size_t v) {
    placed[v] = true;
    for (const auto& e : local.Neighbors(v)) {
      if (!placed[e.neighbor]) gain[e.neighbor] += e.weight;
    }
  };

  const std::size_t seed = SeedVertex(local);
  order.push_back(seed);
  place(seed);

  for (std::size_t step = 1; step < n; ++step) {
    std::size_t best = kNoIndex;
    for (std::size_t v = 0; v < n; ++v) {
      if (placed[v]) continue;
      if (best == kNoIndex) {
        best = v;
        continue;
      }
      const bool better =
          gain[v] > gain[best] ||
          (gain[v] == gain[best] &&
           (local.frequency[v] > local.frequency[best] ||
            (local.frequency[v] == local.frequency[best] &&
             local.globals[v] < local.globals[best])));
      if (better) best = v;
    }
    if (choose_front(best, order)) order.push_front(best);
    else order.push_back(best);
    place(best);
  }
  chain.assign(order.begin(), order.end());
  return chain;
}

std::uint64_t EdgeWeightBetween(const LocalProblem& local, std::size_t u,
                                std::size_t v) {
  // Neighbour lists are sorted by neighbour id (LocalWorkspace::Build).
  const auto edges = local.Neighbors(u);
  const auto it = std::lower_bound(
      edges.begin(), edges.end(), v,
      [](const trace::AccessGraph::Edge& e, std::size_t id) {
        return e.neighbor < id;
      });
  return it != edges.end() && it->neighbor == v ? it->weight : 0;
}

std::vector<std::size_t> ChenChain(const LocalProblem& local) {
  return GrowChain(local, [&local](std::size_t v,
                                   const std::deque<std::size_t>& order) {
    // Attach to the end the candidate is more strongly connected to.
    const std::uint64_t to_front = EdgeWeightBetween(local, v, order.front());
    const std::uint64_t to_back = EdgeWeightBetween(local, v, order.back());
    return to_front > to_back;
  });
}

/// Greedy maximum-weight path cover: accept edges by descending weight when
/// both endpoints still have a free slot (degree < 2) and the edge closes
/// no cycle; stitch the resulting paths together, heaviest first.
std::vector<std::size_t> GreedyEdgeChain(const LocalProblem& local) {
  const std::size_t n = local.size();
  std::vector<std::size_t> chain;
  if (n == 0) return chain;

  struct WeightedEdge {
    std::size_t u = 0;
    std::size_t v = 0;
    std::uint64_t weight = 0;
  };
  std::vector<WeightedEdge> edges;
  for (std::size_t u = 0; u < n; ++u) {
    for (const auto& e : local.Neighbors(u)) {
      if (u < e.neighbor) edges.push_back({u, e.neighbor, e.weight});
    }
  }
  std::sort(edges.begin(), edges.end(),
            [](const WeightedEdge& a, const WeightedEdge& b) {
              if (a.weight != b.weight) return a.weight > b.weight;
              if (a.u != b.u) return a.u < b.u;
              return a.v < b.v;
            });

  // Union-find over path fragments; degree caps keep fragments simple paths.
  std::vector<std::size_t> parent(n);
  for (std::size_t i = 0; i < n; ++i) parent[i] = i;
  std::vector<int> degree(n, 0);
  std::vector<std::vector<std::size_t>> accepted(n);
  const auto find = [&parent](std::size_t x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  for (const WeightedEdge& e : edges) {
    if (degree[e.u] >= 2 || degree[e.v] >= 2) continue;
    const std::size_t ru = find(e.u);
    const std::size_t rv = find(e.v);
    if (ru == rv) continue;  // would close a cycle
    parent[ru] = rv;
    ++degree[e.u];
    ++degree[e.v];
    accepted[e.u].push_back(e.v);
    accepted[e.v].push_back(e.u);
  }

  // Walk each path fragment from one of its endpoints; singletons follow.
  // Fragments are emitted in order of their heaviest member's frequency so
  // hot paths sit together near the front.
  std::vector<bool> visited(n, false);
  std::vector<std::vector<std::size_t>> fragments;
  for (std::size_t start = 0; start < n; ++start) {
    if (visited[start] || accepted[start].size() == 2) continue;
    // start is an endpoint (degree 0 or 1) of an unvisited fragment.
    std::vector<std::size_t> fragment;
    std::size_t prev = n;  // sentinel
    std::size_t cur = start;
    for (;;) {
      visited[cur] = true;
      fragment.push_back(cur);
      std::size_t next = n;
      for (const std::size_t cand : accepted[cur]) {
        if (cand != prev) {
          next = cand;
          break;
        }
      }
      if (next == n) break;
      prev = cur;
      cur = next;
    }
    fragments.push_back(std::move(fragment));
  }
  std::sort(fragments.begin(), fragments.end(),
            [&local](const auto& a, const auto& b) {
              std::uint64_t fa = 0;
              std::uint64_t fb = 0;
              for (const auto v : a) fa = std::max(fa, local.frequency[v]);
              for (const auto v : b) fb = std::max(fb, local.frequency[v]);
              if (fa != fb) return fa > fb;
              return local.globals[a.front()] < local.globals[b.front()];
            });
  for (const auto& fragment : fragments) {
    chain.insert(chain.end(), fragment.begin(), fragment.end());
  }
  return chain;
}

std::vector<std::size_t> ShiftsReduceChain(const LocalProblem& local) {
  // Distance-discounted attachment: an edge to a variable i positions from
  // an end would cost (i+1) shifts per traversal if we append at that end.
  //
  // Scored over the candidate's placed NEIGHBORS (the transition weights),
  // not by scanning the whole chain per candidate: O(deg log deg) instead
  // of O(|chain|) per decision — the same pairwise-transition idea the
  // CostEvaluator (core/cost_evaluator.h) builds on. Virtual coordinates
  // track each placed vertex's position: the seed sits at 0, a front push
  // decrements the front coordinate, a back push increments the back one.
  // Contributions are summed in ascending distance order — exactly the
  // order the former whole-chain scan added them — so the floating-point
  // scores, and therefore the chains, are bit-identical.
  std::vector<std::int64_t> coord(local.size(), 0);
  std::vector<char> in_chain(local.size(), 0);
  std::int64_t front_coord = 0;
  std::int64_t back_coord = 0;
  struct Term {
    std::int64_t distance;
    std::uint64_t weight;
  };
  std::vector<Term> front_terms;
  std::vector<Term> back_terms;
  const auto discounted_sum = [](std::vector<Term>& terms) {
    std::sort(terms.begin(), terms.end(),
              [](const Term& a, const Term& b) {
                return a.distance < b.distance;  // distances are distinct
              });
    double score = 0.0;
    for (const Term& t : terms) {
      score += static_cast<double>(t.weight) /
               static_cast<double>(t.distance + 1);
    }
    return score;
  };
  auto chain = GrowChain(local, [&](std::size_t v,
                                    const std::deque<std::size_t>& order) {
    in_chain[order.front()] = 1;  // adopts the seed on the first call
    front_terms.clear();
    back_terms.clear();
    for (const auto& e : local.Neighbors(v)) {
      if (!in_chain[e.neighbor]) continue;
      front_terms.push_back({coord[e.neighbor] - front_coord, e.weight});
      back_terms.push_back({back_coord - coord[e.neighbor], e.weight});
    }
    const bool to_front =
        discounted_sum(front_terms) > discounted_sum(back_terms);
    coord[v] = to_front ? --front_coord : ++back_coord;
    in_chain[v] = 1;
    return to_front;
  });

  // Local refinement: adjacent transpositions on the exact edge-sum
  // objective until a fixed point (bounded pass count for safety).
  const std::size_t n = chain.size();
  if (n < 2) return chain;
  std::vector<std::int64_t> pos(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    pos[chain[i]] = static_cast<std::int64_t>(i);
  }

  auto swap_delta = [&](std::size_t p) {
    // Swapping chain[p] (u) and chain[p+1] (w).
    const std::size_t u = chain[p];
    const std::size_t w = chain[p + 1];
    std::int64_t delta = 0;
    for (const auto& e : local.Neighbors(u)) {
      if (e.neighbor == w) continue;
      const std::int64_t x = pos[e.neighbor];
      const auto wt = static_cast<std::int64_t>(e.weight);
      delta += wt * (std::llabs(static_cast<std::int64_t>(p + 1) - x) -
                     std::llabs(static_cast<std::int64_t>(p) - x));
    }
    for (const auto& e : local.Neighbors(w)) {
      if (e.neighbor == u) continue;
      const std::int64_t x = pos[e.neighbor];
      const auto wt = static_cast<std::int64_t>(e.weight);
      delta += wt * (std::llabs(static_cast<std::int64_t>(p) - x) -
                     std::llabs(static_cast<std::int64_t>(p + 1) - x));
    }
    return delta;
  };

  constexpr std::size_t kMaxPasses = 64;
  for (std::size_t pass = 0; pass < kMaxPasses; ++pass) {
    bool improved = false;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      if (swap_delta(p) < 0) {
        std::swap(chain[p], chain[p + 1]);
        pos[chain[p]] = static_cast<std::int64_t>(p);
        pos[chain[p + 1]] = static_cast<std::int64_t>(p + 1);
        improved = true;
      }
    }
    if (!improved) break;
  }
  return chain;
}

/// Orders one DBC from its local problem and its never-accessed members;
/// `heuristic` is not kNone.
std::vector<VariableId> OrderLocal(IntraHeuristic heuristic,
                                   const LocalProblem& local,
                                   std::span<const VariableId> unused) {
  switch (heuristic) {
    case IntraHeuristic::kOfu:
      return FinishOrder(local, OfuChain(local), unused);
    case IntraHeuristic::kChen:
      return FinishOrder(local, ChenChain(local), unused);
    case IntraHeuristic::kShiftsReduce:
      return FinishOrder(local, ShiftsReduceChain(local), unused);
    case IntraHeuristic::kGreedyEdge:
      return FinishOrder(local, GreedyEdgeChain(local), unused);
    case IntraHeuristic::kNone:
      break;
  }
  throw std::invalid_argument("OrderVariables: unknown heuristic");
}

}  // namespace

std::string_view ToString(IntraHeuristic heuristic) noexcept {
  switch (heuristic) {
    case IntraHeuristic::kNone: return "none";
    case IntraHeuristic::kOfu: return "ofu";
    case IntraHeuristic::kChen: return "chen";
    case IntraHeuristic::kShiftsReduce: return "sr";
    case IntraHeuristic::kGreedyEdge: return "ge";
  }
  return "unknown";
}

std::vector<VariableId> OrderVariables(IntraHeuristic heuristic,
                                       std::span<const trace::Access> accesses,
                                       std::span<const VariableId> vars,
                                       std::size_t num_variables) {
  if (heuristic == IntraHeuristic::kNone) {
    return {vars.begin(), vars.end()};
  }
  // Restrict the accesses to the members, then sort the never-accessed
  // ones.
  enum : char { kOther, kMember, kAccessed };
  std::vector<char> state(num_variables, kOther);
  for (const VariableId v : vars) {
    if (v >= num_variables) {
      throw std::out_of_range("OrderVariables: variable id out of range");
    }
    state[v] = kMember;
  }
  std::vector<trace::Access> restricted;
  for (const trace::Access& a : accesses) {
    if (state[a.variable] == kOther) continue;
    state[a.variable] = kAccessed;
    restricted.push_back(a);
  }
  std::vector<VariableId> unused;
  for (const VariableId v : vars) {
    if (state[v] == kMember) unused.push_back(v);
  }
  std::sort(unused.begin(), unused.end());
  LocalWorkspace workspace(
      std::vector<std::uint32_t>(num_variables, kOutside));
  return OrderLocal(heuristic, workspace.Build(restricted), unused);
}

void ApplyIntra(IntraHeuristic heuristic, const trace::AccessSequence& seq,
                Placement& placement, std::uint32_t first, std::uint32_t end) {
  if (first > end || end > placement.num_dbcs()) {
    throw std::out_of_range("ApplyIntra: DBC range out of bounds");
  }
  if (heuristic == IntraHeuristic::kNone) return;

  // Counting sort of the accesses by DBC: bucket b holds, in sequence
  // order, the accesses of DBC first + b — exactly Restrict() of its
  // variable list. Reordering one DBC never changes another's members,
  // so the buckets stay valid while the loop below rewrites the range.
  const std::size_t buckets = end - first;
  std::vector<std::uint32_t> bucket_of(
      std::max(seq.num_variables(), placement.num_variables()), kOutside);
  for (std::uint32_t d = first; d < end; ++d) {
    for (const VariableId v : placement.dbc(d)) bucket_of[v] = d - first;
  }
  std::vector<std::size_t> bucket_begin(buckets + 1, 0);
  std::vector<char> accessed(bucket_of.size(), 0);
  std::vector<std::size_t> accessed_members(buckets, 0);
  for (const trace::Access& a : seq.accesses()) {
    const std::uint32_t b = bucket_of[a.variable];
    if (b == kOutside) continue;
    ++bucket_begin[b + 1];
    if (accessed[a.variable] == 0) {
      accessed[a.variable] = 1;
      ++accessed_members[b];
    }
  }
  for (std::size_t b = 1; b <= buckets; ++b) {
    bucket_begin[b] += bucket_begin[b - 1];
  }
  std::vector<trace::Access> bucketed(bucket_begin.back());
  std::vector<std::size_t> fill(bucket_begin.begin(), bucket_begin.end() - 1);
  for (const trace::Access& a : seq.accesses()) {
    const std::uint32_t b = bucket_of[a.variable];
    if (b != kOutside) bucketed[fill[b]++] = a;
  }

  // The never-accessed members, bucketed the same way by one ascending-id
  // sweep, so each DBC's come out sorted. The sweep also clears the bucket
  // map, which then becomes the workspace's global -> local map. A member
  // outside the sequence's variable space can only be a never-accessed
  // one; it is an error in a DBC the loop below would order.
  std::vector<std::size_t> unused_begin(buckets + 1, 0);
  for (std::uint32_t d = first; d < end; ++d) {
    const std::size_t b = d - first;
    unused_begin[b + 1] =
        unused_begin[b] + placement.dbc(d).size() - accessed_members[b];
  }
  std::vector<VariableId> unused(unused_begin.back());
  fill.assign(unused_begin.begin(), unused_begin.end() - 1);
  for (VariableId v = 0; v < bucket_of.size(); ++v) {
    const std::uint32_t b = bucket_of[v];
    if (b == kOutside) continue;
    bucket_of[v] = kOutside;
    if (accessed[v] != 0) continue;
    if (v >= seq.num_variables() && placement.dbc(first + b).size() >= 2) {
      throw std::out_of_range("ApplyIntra: variable id out of range");
    }
    unused[fill[b]++] = v;
  }

  LocalWorkspace workspace(std::move(bucket_of));
  for (std::uint32_t d = first; d < end; ++d) {
    if (placement.dbc(d).size() < 2) continue;
    const std::size_t b = d - first;
    const std::span<const trace::Access> accesses(
        bucketed.data() + bucket_begin[b],
        bucketed.data() + bucket_begin[b + 1]);
    const std::span<const VariableId> never_accessed(
        unused.data() + unused_begin[b], unused.data() + unused_begin[b + 1]);
    placement.Reorder(d, OrderLocal(heuristic, workspace.Build(accesses),
                                    never_accessed));
  }
}

}  // namespace rtmp::core

// serve-cache: multi-tenant hybrid-memory serving. The phased sequences
// are admitted as tenants of one PlacementService whose shards each run a
// cache tier over a settled (one re-seed per shard) engine, so cache miss
// resolution dominates and the online layer only serves. This is the
// bypass case for every re-seed optimisation.
//
// The traced pass also runs the same tenants with the cache tier off;
// the difference of the two Run() wall times is the cache tier's host
// time (cache.tier_s).
#include <exception>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "passes.h"
#include "serve/service.h"
#include "sim/experiment.h"

namespace rtmp::perfbench {

namespace {

/// A settled recipe: one re-seed per shard, then the placement is kept.
constexpr std::string_view kServeEnginePolicy = "online-static-dma-sr";

std::unique_ptr<serve::PlacementService> BuildService(
    const Knobs& knobs, const offsetstone::Benchmark& benchmark,
    bool cache_enabled) {
  std::size_t total_vars = 0;
  for (const trace::AccessSequence& seq : benchmark.sequences) {
    total_vars += seq.num_variables();
  }
  const rtm::RtmConfig device = sim::CellConfig(knobs.online_dbcs, total_vars);
  serve::ServeConfig config;
  config.num_shards = knobs.shards;
  config.engine =
      EngineConfig(knobs, kServeEnginePolicy, device, benchmark.name, 0);
  config.cache.enabled = cache_enabled;
  config.cache.eviction = knobs.eviction;
  config.cache.capacity_ratio = knobs.capacity_ratio;
  auto service = std::make_unique<serve::PlacementService>(config, device);
  for (std::size_t s = 0; s < benchmark.sequences.size(); ++s) {
    const trace::AccessSequence& seq = benchmark.sequences[s];
    if (seq.num_variables() == 0) continue;
    std::string tenant = "t";  // appended, not operator+: GCC 12 -Wrestrict
    tenant += std::to_string(s);
    (void)service->OpenSession(std::move(tenant), seq);
  }
  return service;
}

/// Attribution and conservation laws of one service run; returns the
/// first violation or an empty string.
std::string CheckRun(const serve::ServeResult& result,
                     std::uint64_t admitted_accesses) {
  const cache::CacheStats& cache = result.cache;
  if (result.service_shifts + result.migration_shifts + cache.fill_shifts !=
      result.total_shifts) {
    return "service + migration + fill shifts != total shifts";
  }
  std::uint64_t accesses = 0, service = 0, migration = 0, fill = 0;
  std::uint64_t hits = 0, misses = 0;
  obs::Histogram merged;
  for (const serve::TenantStats& tenant : result.tenants) {
    accesses += tenant.accesses;
    service += tenant.service_shifts;
    migration += tenant.migration_shifts;
    fill += tenant.cache.fill_shifts;
    hits += tenant.cache.hits;
    misses += tenant.cache.misses;
    merged.Merge(tenant.latency_hist);
  }
  if (accesses != admitted_accesses || service != result.service_shifts ||
      migration != result.migration_shifts || fill != cache.fill_shifts ||
      hits != cache.hits || misses != cache.misses) {
    return "tenant sums differ from the device totals";
  }
  if (!(merged == result.latency_hist)) {
    return "tenant latency histograms do not merge to the device histogram";
  }
  if (cache.hits + cache.misses != cache.accesses ||
      cache.fills != cache.misses) {
    return "cache hits + misses != accesses or fills != misses";
  }
  return {};
}

}  // namespace

PassOutput RunServeCachePass(const Knobs& knobs, SpanLog& log) {
  const std::uint32_t span_generate = log.Intern("workloads.generate");
  const std::uint32_t span_construct = log.Intern("serve.construct");
  const std::uint32_t span_run = log.Intern("serve.run");
  const std::uint32_t span_run_plain = log.Intern("serve.run_plain");

  PassOutput out;
  out.traced = log.enabled();

  const std::int64_t generate_begin = NowNs();
  offsetstone::Benchmark benchmark;
  {
    SpanLog::Scope span(log, span_generate);
    benchmark = GeneratePhased(knobs);
  }
  const std::int64_t construct_begin = NowNs();
  std::unique_ptr<serve::PlacementService> service;
  {
    SpanLog::Scope span(log, span_construct);
    service = BuildService(knobs, benchmark, true);
  }
  const std::int64_t run_begin = NowNs();
  out.generate_s = SecondsBetween(generate_begin, construct_begin);
  out.construct_s = SecondsBetween(construct_begin, run_begin);

  std::uint64_t admitted = 0;
  for (const trace::AccessSequence& seq : benchmark.sequences) {
    if (seq.num_variables() != 0) admitted += seq.size();
  }
  const std::uint64_t tenants = service->num_sessions();
  out.attempted = tenants;

  serve::ServeResult result;
  try {
    {
      SpanLog::Scope span(log, span_run);
      result = service->Run();
    }
    const std::int64_t run_end = NowNs();
    out.run_s = SecondsBetween(run_begin, run_end);
    out.ops.push_back({run_end - run_begin, 0});
  } catch (const std::exception& error) {
    Fail(out, std::string("serve Run: ") + error.what());
    out.failed = tenants;
    return out;
  }
  const std::string violation = CheckRun(result, admitted);
  if (!violation.empty()) {
    Fail(out, violation);
    out.failed = tenants;
  }

  out.accesses = admitted;
  out.shifts = result.total_shifts;
  out.sim_runtime_ns = result.makespan_ns + result.cache.backing_ns;
  out.energy_pj = result.energy.total_pj() + result.cache.backing_pj;
  double turns = 0;
  for (const serve::TenantStats& tenant : result.tenants) {
    turns += static_cast<double>(tenant.windows);
    out.unit_latency_ns.insert(out.unit_latency_ns.end(),
                               tenant.window_latencies.begin(),
                               tenant.window_latencies.end());
  }
  double windows = 0, phase_changes = 0, replacements = 0, accepted = 0;
  double requests = 0, exposed_ns = 0, hidden_ns = 0;
  for (const serve::ShardStats& shard : result.shards) {
    const online::OnlineResult& engine = shard.result;
    windows += static_cast<double>(engine.windows.size());
    for (const online::WindowRecord& record : engine.windows) {
      phase_changes += record.phase_change ? 1 : 0;
      replacements += record.replaced ? 1 : 0;
      accepted += record.phase_change && record.replaced ? 1 : 0;
    }
    requests += static_cast<double>(engine.stats.requests);
    exposed_ns += engine.stats.exposed_shift_ns;
    hidden_ns += engine.stats.hidden_shift_ns;
  }
  out.counters["serve.turns"] = turns;
  out.counters["serve.fairness"] = result.fairness;
  out.counters["online.windows"] = windows;
  out.counters["online.phase_changes"] = phase_changes;
  out.counters["online.replacements"] = replacements;
  out.counters["online.reseed_accepts"] = accepted;
  out.counters["online.migrated_vars"] =
      static_cast<double>(result.migrated_vars);
  out.counters["online.migration_shifts"] =
      static_cast<double>(result.migration_shifts);
  out.counters["online.service_shifts"] =
      static_cast<double>(result.service_shifts);
  out.counters["online.reseed_ms"] = result.placement_wall_ms;
  out.counters["rtm.requests"] = requests;
  out.counters["rtm.exposed_shift_ns"] = exposed_ns;
  out.counters["rtm.hidden_shift_ns"] = hidden_ns;
  out.counters["cache.hits"] = static_cast<double>(result.cache.hits);
  out.counters["cache.misses"] = static_cast<double>(result.cache.misses);
  out.counters["cache.writebacks"] =
      static_cast<double>(result.cache.writebacks);
  out.counters["cache.fill_shifts"] =
      static_cast<double>(result.cache.fill_shifts);

  if (out.traced) {
    // Same tenants, cache tier off: the reference for cache.tier_s. Built
    // outside every span; only its Run() is timed.
    auto plain = BuildService(knobs, benchmark, false);
    try {
      serve::ServeResult plain_result;
      {
        SpanLog::Scope span(log, span_run_plain);
        plain_result = plain->Run();
      }
      if (plain_result.cache.accesses != 0 ||
          plain_result.service_shifts + plain_result.migration_shifts !=
              plain_result.total_shifts) {
        Fail(out, "cache-off reference run breaks its shift decomposition");
      }
    } catch (const std::exception& error) {
      Fail(out, std::string("cache-off reference Run: ") + error.what());
    }
  }
  return out;
}

}  // namespace rtmp::perfbench

// online-phased: the adaptive path. Every phased sequence runs through
// its own OnlineEngine built from the registered online policy, fed one
// window per Feed(span) call, so each Feed decides and serves exactly
// one window and its wall time is that window's host latency. Re-seeding
// and migration planning dominate; the serve and cache layers stay idle.
#include <algorithm>
#include <cmath>
#include <exception>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "online/engine.h"
#include "passes.h"
#include "sim/experiment.h"

namespace rtmp::perfbench {

namespace {

/// The adaptive recipe: EWMA phase detection, dma-sr re-seeding.
constexpr std::string_view kOnlinePolicy = "online-ewma-dma-sr";

std::uint32_t FlagsOf(const online::WindowRecord& record) {
  return kWindowDecided | (record.begin == 0 ? kWindowInitial : 0u) |
         (record.phase_change ? kWindowPhaseChange : 0u) |
         (record.replaced ? kWindowReplaced : 0u);
}

/// Conservation laws of one engine session; returns the first violation
/// or an empty string.
std::string CheckSession(const online::OnlineResult& result,
                         std::size_t sequence_accesses) {
  const rtm::ControllerStats& stats = result.stats;
  if (result.service_shifts + result.migration_shifts != stats.shifts) {
    return "service + migration shifts " +
           std::to_string(result.service_shifts + result.migration_shifts) +
           " != device shifts " + std::to_string(stats.shifts);
  }
  const double split = stats.hidden_shift_ns + stats.exposed_shift_ns;
  if (std::abs(split - stats.shift_busy_ns) >
      1e-9 * std::max(1.0, stats.shift_busy_ns)) {
    return "hidden + exposed shift time " + std::to_string(split) +
           " != shift_busy " + std::to_string(stats.shift_busy_ns);
  }
  std::uint64_t window_accesses = 0;
  std::uint64_t window_service = 0;
  std::uint64_t window_migration = 0;
  for (const online::WindowRecord& record : result.windows) {
    window_accesses += record.accesses;
    window_service += record.service_shifts;
    window_migration += record.migration_shifts;
  }
  if (window_accesses != sequence_accesses ||
      window_service != result.service_shifts ||
      window_migration != result.migration_shifts) {
    return "window records do not sum to the session totals";
  }
  return {};
}

}  // namespace

PassOutput RunOnlinePhasedPass(const Knobs& knobs, SpanLog& log) {
  const std::uint32_t span_generate = log.Intern("workloads.generate");
  const std::uint32_t span_construct = log.Intern("online.construct");
  const std::uint32_t span_feed = log.Intern("online.feed");
  const std::uint32_t span_finish = log.Intern("online.finish");

  PassOutput out;
  out.traced = log.enabled();

  const std::int64_t generate_begin = NowNs();
  offsetstone::Benchmark benchmark;
  {
    SpanLog::Scope span(log, span_generate);
    benchmark = GeneratePhased(knobs);
  }
  out.generate_s = SecondsBetween(generate_begin, NowNs());

  double windows = 0, phase_changes = 0, replacements = 0, accepted = 0;
  double migrated_vars = 0, migration_shifts = 0, service_shifts = 0;
  double reseed_ms = 0, requests = 0, exposed_ns = 0, hidden_ns = 0;
  out.ops.reserve(1 << 13);

  for (std::size_t s = 0; s < benchmark.sequences.size(); ++s) {
    const trace::AccessSequence& seq = benchmark.sequences[s];
    if (seq.num_variables() == 0) continue;
    ++out.attempted;
    try {
      const std::int64_t construct_begin = NowNs();
      std::unique_ptr<online::OnlineEngine> engine;
      {
        SpanLog::Scope span(log, span_construct);
        const rtm::RtmConfig device =
            sim::CellConfig(knobs.online_dbcs, seq.num_variables());
        engine = std::make_unique<online::OnlineEngine>(
            EngineConfig(knobs, kOnlinePolicy, device, benchmark.name, s),
            device);
        for (trace::VariableId v = 0; v < seq.num_variables(); ++v) {
          (void)engine->RegisterVariable(seq.name_of(v));
        }
      }
      const std::int64_t run_begin = NowNs();
      out.construct_s += SecondsBetween(construct_begin, run_begin);

      // One op per Feed; `first_op` lets the window flags be filled in
      // once Finish() has returned the records.
      const std::size_t first_op = out.ops.size();
      std::vector<std::size_t> op_window;
      const std::span<const trace::Access> accesses(seq.accesses());
      for (std::size_t begin = 0; begin < accesses.size();
           begin += knobs.window) {
        const std::size_t length =
            std::min(knobs.window, accesses.size() - begin);
        const std::size_t windows_before = engine->Windows().size();
        const std::int64_t feed_begin = NowNs();
        {
          SpanLog::Scope span(log, span_feed);
          engine->Feed(accesses.subspan(begin, length));
        }
        out.ops.push_back({NowNs() - feed_begin, 0});
        op_window.push_back(engine->Windows().size() > windows_before
                                ? windows_before
                                : static_cast<std::size_t>(-1));
      }
      online::OnlineResult result;
      {
        SpanLog::Scope span(log, span_finish);
        result = engine->Finish();
      }
      out.run_s += SecondsBetween(run_begin, NowNs());

      for (std::size_t i = 0; i < op_window.size(); ++i) {
        if (op_window[i] < result.windows.size()) {
          out.ops[first_op + i].tag = FlagsOf(result.windows[op_window[i]]);
        }
      }
      const std::string violation = CheckSession(result, seq.size());
      if (!violation.empty()) {
        Fail(out, benchmark.name + "#" + std::to_string(s) + ": " +
                      violation);
      }

      out.accesses += seq.size();
      out.shifts += result.stats.shifts;
      out.sim_runtime_ns += result.stats.makespan_ns;
      out.energy_pj += result.energy.total_pj();
      for (const online::WindowRecord& record : result.windows) {
        out.unit_latency_ns.push_back(record.latency_ns);
        phase_changes += record.phase_change ? 1 : 0;
        replacements += record.replaced ? 1 : 0;
        accepted += record.phase_change && record.replaced ? 1 : 0;
      }
      windows += static_cast<double>(result.windows.size());
      migrated_vars += static_cast<double>(result.migrated_vars);
      migration_shifts += static_cast<double>(result.migration_shifts);
      service_shifts += static_cast<double>(result.service_shifts);
      reseed_ms += result.placement_wall_ms;
      requests += static_cast<double>(result.stats.requests);
      exposed_ns += result.stats.exposed_shift_ns;
      hidden_ns += result.stats.hidden_shift_ns;
    } catch (const std::exception& error) {
      Fail(out, benchmark.name + "#" + std::to_string(s) + ": " +
                    error.what());
    }
  }

  out.counters["online.windows"] = windows;
  out.counters["online.phase_changes"] = phase_changes;
  out.counters["online.replacements"] = replacements;
  out.counters["online.reseed_accepts"] = accepted;
  out.counters["online.migrated_vars"] = migrated_vars;
  out.counters["online.migration_shifts"] = migration_shifts;
  out.counters["online.service_shifts"] = service_shifts;
  out.counters["online.reseed_ms"] = reseed_ms;
  out.counters["rtm.requests"] = requests;
  out.counters["rtm.exposed_shift_ns"] = exposed_ns;
  out.counters["rtm.hidden_shift_ns"] = hidden_ns;
  return out;
}

}  // namespace rtmp::perfbench

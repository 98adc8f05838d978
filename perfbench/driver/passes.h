// One measured pass of a benchmark workload.
//
// A pass generates the workload from the seed, builds the engines or
// sessions it needs, runs the workload once through the library's public
// entry points, and checks the outputs. The driver repeats passes until
// the run's time is spent; run.py turns the per-pass records into
// medians and quantiles.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "offsetstone/suite.h"
#include "online/engine.h"
#include "rtm/config.h"
#include "span_log.h"

namespace rtmp::perfbench {

/// The settings a workload is tuned by. All of them arrive on the command
/// line; nothing is read from the environment. What defines a workload
/// (its input, scale, strategies and recipes) is fixed in its own file.
struct Knobs {
  std::uint64_t seed = 0;
  /// GA/RW search effort relative to the paper's parameters.
  double effort = 0.0;
  std::vector<unsigned> static_dbcs;
  /// DBCs of online-phased's engines and serve-cache's device.
  unsigned online_dbcs = 0;
  std::size_t window = 0;
  unsigned shards = 0;
  double capacity_ratio = 0.0;
  std::string eviction;
};

/// One timed unit call: its wall time and a workload-specific tag
/// (static-suite: strategy index; online-phased: WindowFlags of the
/// window the call decided).
struct OpSample {
  std::int64_t ns = 0;
  std::uint32_t tag = 0;
};

/// Raw WindowRecord bits of an online-phased Feed, filled in after the
/// run (the engine decides a window inside the Feed call that fills it).
/// run.py classifies them into steady / rejected / replaced windows.
enum WindowFlags : std::uint32_t {
  kWindowDecided = 1u << 0,  ///< the Feed completed a window
  kWindowInitial = 1u << 1,  ///< window 0 of a session
  kWindowPhaseChange = 1u << 2,
  kWindowReplaced = 1u << 3,
};

struct PassOutput {
  bool traced = false;
  double generate_s = 0.0;
  /// Engine / session / strategy-lookup construction.
  double construct_s = 0.0;
  /// Host time of the workload's work, set-up excluded.
  double run_s = 0.0;
  /// Trace accesses placed or served, and simulated.
  std::uint64_t accesses = 0;
  /// Simulated totals; identical on every pass of one seed.
  std::uint64_t shifts = 0;
  double sim_runtime_ns = 0.0;
  double energy_pj = 0.0;
  /// Raw simulated latencies of the workload's service unit.
  std::vector<double> unit_latency_ns;
  /// Correctness: checked operations and the ones that failed.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::vector<OpSample> ops;
  /// Layer counters and host times, by metric name.
  std::map<std::string, double> counters;
};

/// Records a failed check (keeps the first few messages).
void Fail(PassOutput& out, std::string message);

/// The phased input of online-phased and serve-cache, generated at the
/// seed.
[[nodiscard]] offsetstone::Benchmark GeneratePhased(const Knobs& knobs);

/// The engine recipe registered as `policy`, stamped with the search
/// effort and seeds by online::CellOnlineConfig and with the window size.
[[nodiscard]] online::OnlineConfig EngineConfig(
    const Knobs& knobs, std::string_view policy, const rtm::RtmConfig& device,
    std::string_view benchmark_name, std::size_t sequence_index);

/// One pass of each workload; spans go to `log` when it is enabled.
[[nodiscard]] PassOutput RunStaticSuitePass(const Knobs& knobs, SpanLog& log);
[[nodiscard]] PassOutput RunOnlinePhasedPass(const Knobs& knobs,
                                             SpanLog& log);
[[nodiscard]] PassOutput RunServeCachePass(const Knobs& knobs, SpanLog& log);

[[nodiscard]] inline double SecondsBetween(std::int64_t begin_ns,
                                           std::int64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) * 1e-9;
}

}  // namespace rtmp::perfbench

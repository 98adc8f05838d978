#include <stdexcept>
#include <string>
#include <utility>

#include "online/online_cell.h"
#include "online/policy.h"
#include "passes.h"
#include "sim/experiment.h"
#include "workloads/workload.h"

namespace rtmp::perfbench {

namespace {

/// online-phased and serve-cache share this input: four phases of
/// different shape, so the online detector has phase changes to find.
constexpr const char* kPhasedSpec = "phased(gzip,gemm-tiled,kv-churn,stencil)";
constexpr double kPhasedScale = 8.0;

}  // namespace

void Fail(PassOutput& out, std::string message) {
  ++out.failed;
  if (out.failures.size() < 8) out.failures.push_back(std::move(message));
}

offsetstone::Benchmark GeneratePhased(const Knobs& knobs) {
  const auto workload = workloads::ResolveWorkload(kPhasedSpec);
  if (!workload) {
    throw std::invalid_argument(std::string("unknown workload '") +
                                kPhasedSpec + "'");
  }
  return workload->Generate({knobs.seed, kPhasedScale});
}

online::OnlineConfig EngineConfig(const Knobs& knobs, std::string_view policy,
                                  const rtm::RtmConfig& device,
                                  std::string_view benchmark_name,
                                  std::size_t sequence_index) {
  const auto recipe =
      online::OnlinePolicyRegistry::Global().Find(std::string(policy));
  if (!recipe) {
    throw std::invalid_argument("unregistered online policy '" +
                                std::string(policy) + "'");
  }
  sim::ExperimentOptions options;
  options.search_effort = knobs.effort;
  online::OnlineConfig config =
      online::CellOnlineConfig(*recipe, device, options, benchmark_name,
                               sequence_index, knobs.online_dbcs);
  config.window_accesses = knobs.window;
  return config;
}

}  // namespace rtmp::perfbench

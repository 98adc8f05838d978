#include "online/policy.h"

#include <utility>

#include "core/strategy_registry.h"

namespace rtmp::online {

namespace {

class FixedPolicy final : public OnlinePolicy {
 public:
  FixedPolicy(OnlinePolicyInfo info, OnlineConfig config)
      : info_(std::move(info)), config_(std::move(config)) {}

  [[nodiscard]] const OnlinePolicyInfo& Describe() const noexcept override {
    return info_;
  }

  [[nodiscard]] OnlineConfig MakeConfig() const override { return config_; }

 private:
  OnlinePolicyInfo info_;
  OnlineConfig config_;
};

void RegisterFamily(OnlinePolicyRegistry& registry,
                    const std::string& reseed) {
  {
    OnlineConfig config;
    config.reseed_strategy = reseed;
    config.window_accesses = kWholeTraceWindow;
    config.detector.kind = DetectorKind::kNone;
    registry.Register(
        "online-static-" + reseed,
        [info = OnlinePolicyInfo{
             "online-static-" + reseed,
             "one whole-trace window, no re-placement: the oracle wrapper, "
             "bit-identical to " + reseed,
             reseed, "none"},
         config] { return MakeFixedPolicy(info, config); });
  }
  {
    OnlineConfig config;
    config.reseed_strategy = reseed;
    config.window_accesses = 256;
    config.detector.kind = DetectorKind::kFixedWindow;
    config.detector.period = 1;
    registry.Register(
        "online-fixed-" + reseed,
        [info = OnlinePolicyInfo{
             "online-fixed-" + reseed,
             "256-access windows, re-seed weighed at every boundary "
             "(period-1 epoch baseline) via " + reseed,
             reseed, "fixed"},
         config] { return MakeFixedPolicy(info, config); });
  }
  {
    OnlineConfig config;
    config.reseed_strategy = reseed;
    config.window_accesses = 256;
    config.detector.kind = DetectorKind::kEwmaDrift;
    config.detector.threshold = 0.35;
    config.detector.alpha = 0.3;
    config.refine = true;
    registry.Register(
        "online-ewma-" + reseed,
        [info = OnlinePolicyInfo{
             "online-ewma-" + reseed,
             "256-access windows, EWMA-drift phase detection + incremental "
             "refinement, re-seeded via " + reseed,
             reseed, "ewma"},
         config] { return MakeFixedPolicy(info, config); });
  }
  {
    OnlineConfig config;
    config.reseed_strategy = reseed;
    config.window_accesses = 256;
    config.detector.kind = DetectorKind::kCusum;
    config.detector.threshold = 0.6;
    config.detector.slack = 0.1;
    config.detector.alpha = 0.3;
    config.refine = true;
    registry.Register(
        "online-cusum-" + reseed,
        [info = OnlinePolicyInfo{
             "online-cusum-" + reseed,
             "256-access windows, CUSUM change-point detection (slack 0.1, "
             "threshold 0.6) + incremental refinement, re-seeded via " +
                 reseed,
             reseed, "cusum"},
         config] { return MakeFixedPolicy(info, config); });
  }
}

}  // namespace

std::shared_ptr<const OnlinePolicy> MakeFixedPolicy(OnlinePolicyInfo info,
                                                    OnlineConfig config) {
  return std::make_shared<const FixedPolicy>(std::move(info),
                                             std::move(config));
}

void RegisterBuiltinOnlinePolicies(OnlinePolicyRegistry& registry) {
  RegisterFamily(registry, "dma-sr");
  RegisterFamily(registry, "afd-ofu");
}

}  // namespace rtmp::online

namespace rtmp::core {
template <>
online::OnlinePolicyRegistry& online::OnlinePolicyRegistry::Global() {
  // The strategies claim their names first, so a policy registered under
  // a strategy's name is rejected at its registration.
  (void)StrategyRegistry::Global();
  static online::OnlinePolicyRegistry& registry = MakeGlobal(
      cell_kind::kOnlinePolicy, online::RegisterBuiltinOnlinePolicies);
  return registry;
}
}  // namespace rtmp::core

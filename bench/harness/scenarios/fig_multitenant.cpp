// fig_multitenant: the multi-tenant placement service (src/serve/) on
// one shared device — tenants x shards x migration budget.
//
// Tenant populations mt1/mt4/mt16 are built from registry workloads
// (each tenant one generated sequence, workloads cycling through a
// 4-entry mix, per-tenant generation seeds). Two views:
//
//  * matrix cells: the mt benchmarks through serve policies next to the
//    online oracle, so serve cells land in the same report/golden format
//    as every other cell. The serve-1s-static oracle must equal the
//    online-static cell exactly — a single tenant on a single shard is
//    the bare engine.
//  * service grid: {1,4,16} tenants x {1,2,4} shards x {tight,loose}
//    budgets at 8 DBCs, run through PlacementService directly for the
//    serve-only metrics — Jain fairness over per-tenant window
//    latencies, makespan, budget denials — plus the conservation check
//    that per-tenant shift attribution sums to the device totals.
//
// Only constructive strategies are involved (dma-sr re-seeds), so the
// scenario is effort-independent and fully golden-checked.
#include <cstdint>
#include <string>
#include <vector>

#include "harness/scenarios/scenarios.h"
#include "obs/metrics.h"
#include "serve/serve_cell.h"
#include "serve/serve_policy.h"
#include "serve/service.h"
#include "util/stats.h"
#include "util/strings.h"
#include "workloads/workload.h"

namespace rtmp::benchtool::scenarios {

namespace {

/// Workload mix the tenant population cycles through.
const std::vector<std::string> kTenantWorkloads = {
    "gemm-tiled",
    "kv-churn",
    "phased(stencil,stream-scan)",
    "phased(gemm-tiled,bfs-frontier)",
};

/// One sequence per tenant, generated with a per-tenant seed so equal
/// workloads still produce distinct streams.
offsetstone::Benchmark MakeTenantBenchmark(
    std::size_t tenants, const sim::ExperimentOptions& options) {
  offsetstone::Benchmark benchmark;
  benchmark.name = "mt" + std::to_string(tenants);
  for (std::size_t i = 0; i < tenants; ++i) {
    const auto workload = workloads::ResolveWorkload(
        kTenantWorkloads[i % kTenantWorkloads.size()]);
    offsetstone::Benchmark generated =
        workload->Generate({options.workload_seed + i, 0.5});
    benchmark.sequences.push_back(std::move(generated.sequences.at(0)));
  }
  return benchmark;
}

void Run(ScenarioContext& ctx) {
  using namespace rtmp;

  ctx.Print(
      "== fig_multitenant: sharded multi-tenant serving on one device "
      "==\n\n");

  sim::ExperimentOptions options;
  options.dbc_counts = {4, 8};
  options.strategies = {
      "online-static-dma-sr",    "serve-1s-static-dma-sr",
      "serve-1s-ewma-dma-sr",    "serve-2s-ewma-dma-sr",
      "serve-4s-ewma-dma-sr",
  };
  ctx.Configure(options);  // threads, progress (effort unused: no search)

  std::vector<offsetstone::Benchmark> suite;
  for (const std::size_t tenants : {1u, 4u, 16u}) {
    suite.push_back(MakeTenantBenchmark(tenants, options));
  }

  const auto results = sim::RunMatrix(suite, options);
  ctx.AddCells(results);
  const sim::ResultTable table(results);

  util::TextTable cells_out;
  cells_out.SetHeader({"benchmark", "dbcs", "policy", "total shifts"});
  cells_out.SetAlignments({util::Align::kLeft, util::Align::kRight,
                           util::Align::kLeft, util::Align::kRight});
  for (const offsetstone::Benchmark& benchmark : suite) {
    for (const unsigned dbcs : options.dbc_counts) {
      for (const std::string& name : options.strategies) {
        cells_out.AddRow(
            {benchmark.name, std::to_string(dbcs), name,
             std::to_string(table.At(benchmark.name, dbcs, name).shifts)});
      }
    }
  }
  ctx.PrintTable(cells_out);
  ctx.Print("(total shifts; serve cells INCLUDE migration traffic and "
            "shared-channel waits)\n\n");

  // A single tenant on a single shard IS the bare online engine.
  ctx.Check(
      "serve-1s-static-dma-sr equals online-static-dma-sr on mt1 (oracle)",
      table.At("mt1", 8, "serve-1s-static-dma-sr").shifts ==
              table.At("mt1", 8, "online-static-dma-sr").shifts &&
          table.At("mt1", 4, "serve-1s-static-dma-sr").shifts ==
              table.At("mt1", 4, "online-static-dma-sr").shifts);

  // The serve-only grid: tenants x shards x budget at 8 DBCs.
  constexpr unsigned kGridDbcs = 8;
  util::TextTable grid_out;
  grid_out.SetHeader({"tenants", "shards", "budget", "total shifts",
                      "makespan (us)", "fairness", "denials", "p50 (ns)",
                      "p99 (ns)"});
  grid_out.SetAlignments({util::Align::kRight, util::Align::kRight,
                          util::Align::kLeft, util::Align::kRight,
                          util::Align::kRight, util::Align::kRight,
                          util::Align::kRight, util::Align::kRight,
                          util::Align::kRight});
  bool fairness_in_range = true;
  bool budget_respected = true;
  bool attribution_exact = true;
  bool latency_hists_exact = true;
  for (const std::size_t tenants : {1u, 4u, 16u}) {
    const offsetstone::Benchmark benchmark =
        MakeTenantBenchmark(tenants, options);
    std::size_t total_vars = 0;
    for (const auto& seq : benchmark.sequences) {
      total_vars += seq.num_variables();
    }
    for (const unsigned shards : {1u, 2u, 4u}) {
      for (const std::string budget : {"tight", "loose"}) {
        const std::string policy_name = "serve-" + std::to_string(shards) +
                                        "s-" + budget + "-ewma-dma-sr";
        const auto policy =
            serve::ServePolicyRegistry::Global().Find(policy_name);
        const rtm::RtmConfig config =
            sim::CellConfig(kGridDbcs, total_vars);
        serve::PlacementService service(
            serve::CellServeConfig(*policy, config, options, benchmark.name,
                                   kGridDbcs),
            config);
        for (std::size_t i = 0; i < benchmark.sequences.size(); ++i) {
          (void)service.OpenSession(util::Concat({"t", std::to_string(i)}),
                                    benchmark.sequences[i]);
        }
        const serve::ServeResult result = service.Run();

        fairness_in_range &=
            result.fairness > 0.0 && result.fairness <= 1.0 + 1e-12;
        budget_respected &= result.budget_spent <= result.budget_granted;
        std::uint64_t tenant_shifts = 0;
        obs::Histogram tenant_sum;
        for (const serve::TenantStats& tenant : result.tenants) {
          tenant_shifts += tenant.service_shifts + tenant.migration_shifts;
          tenant_sum.Merge(tenant.latency_hist);
        }
        attribution_exact &= tenant_shifts == result.total_shifts;
        // Each turn's exposed latency is recorded once under its tenant
        // and once at device level — the merge must be bucket-exact.
        latency_hists_exact &= tenant_sum == result.latency_hist;

        const std::string tag = benchmark.name + "/" +
                                std::to_string(shards) + "s/" + budget;
        ctx.Scalar("fig_multitenant/total_shifts/" + tag,
                   static_cast<double>(result.total_shifts), "shifts");
        ctx.Scalar("fig_multitenant/makespan_ns/" + tag, result.makespan_ns,
                   "ns");
        ctx.Scalar("fig_multitenant/fairness/" + tag, result.fairness, "");
        ctx.Scalar("fig_multitenant/budget_denials/" + tag,
                   static_cast<double>(result.budget_denials), "");
        const obs::Histogram& device_hist = result.latency_hist;
        ctx.Scalar("fig_multitenant/latency_p50_ns/" + tag,
                   static_cast<double>(device_hist.Quantile(0.5)), "ns");
        ctx.Scalar("fig_multitenant/latency_p95_ns/" + tag,
                   static_cast<double>(device_hist.Quantile(0.95)), "ns");
        ctx.Scalar("fig_multitenant/latency_p99_ns/" + tag,
                   static_cast<double>(device_hist.Quantile(0.99)), "ns");
        ctx.Scalar("fig_multitenant/latency_p999_ns/" + tag,
                   static_cast<double>(device_hist.Quantile(0.999)), "ns");
        for (const serve::TenantStats& tenant : result.tenants) {
          ctx.Scalar("fig_multitenant/tenant_p99_ns/" + tag + "/" +
                         tenant.name,
                     static_cast<double>(tenant.latency_hist.Quantile(0.99)),
                     "ns");
        }
        grid_out.AddRow({std::to_string(tenants), std::to_string(shards),
                         budget, std::to_string(result.total_shifts),
                         util::FormatFixed(result.makespan_ns / 1000.0, 2),
                         util::FormatFixed(result.fairness, 4),
                         std::to_string(result.budget_denials),
                         std::to_string(device_hist.Quantile(0.5)),
                         std::to_string(device_hist.Quantile(0.99))});
      }
    }
  }
  ctx.PrintTable(grid_out);
  ctx.Print("(fairness = Jain index over per-tenant mean window latency; "
            "p50/p99 from the\ndevice's exposed-latency histogram, "
            "log2-bucket upper bounds)\n\n");

  ctx.Check("fairness indices within (0, 1]", fairness_in_range);
  ctx.Check("migration budget spending never exceeds the grant",
            budget_respected);
  ctx.Check("per-tenant shift attribution sums to the device totals",
            attribution_exact);
  ctx.Check("per-tenant latency histograms merge to the device histogram",
            latency_hists_exact);
}

}  // namespace

void RegisterFigMultitenant(ScenarioRegistry& registry) {
  registry.Register({"fig_multitenant",
                     "multi-tenant serving: tenants x shards x migration "
                     "budget on one shared device",
                     /*uses_search=*/false, Run});
}

}  // namespace rtmp::benchtool::scenarios

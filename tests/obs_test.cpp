// Observability layer: histogram bucket layout and quantiles against a
// sorted-vector oracle, Merge algebra, metrics-registry snapshots, the
// trace recorder's arena/drop behavior, Chrome trace-format pinning via
// util::JsonValue::Parse, and the determinism contract — bucket-exact
// registry and trace equality across reruns and worker-thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/trace_recorder.h"
#include "offsetstone/suite.h"
#include "serve/service.h"
#include "sim/experiment.h"
#include "trace/access_sequence.h"
#include "util/json.h"
#include "util/rng.h"
#include "workloads/workload.h"

namespace {

using namespace rtmp;

// ---- histogram: bucket layout ----------------------------------------------

TEST(ObsHistogram, BucketLayoutIsLogTwoExact) {
  EXPECT_EQ(obs::Histogram::BucketOf(0), 0u);
  EXPECT_EQ(obs::Histogram::BucketOf(1), 1u);
  EXPECT_EQ(obs::Histogram::BucketOf(2), 2u);
  EXPECT_EQ(obs::Histogram::BucketOf(3), 2u);
  EXPECT_EQ(obs::Histogram::BucketOf(4), 3u);
  EXPECT_EQ(obs::Histogram::BucketOf(std::numeric_limits<std::uint64_t>::max()),
            obs::Histogram::kNumBuckets - 1);
  // Every bucket covers [BucketLow, BucketHigh] and the bounds map back
  // to their own bucket — no value can straddle two buckets.
  for (std::size_t b = 0; b < obs::Histogram::kNumBuckets; ++b) {
    EXPECT_EQ(obs::Histogram::BucketOf(obs::Histogram::BucketLow(b)), b);
    EXPECT_EQ(obs::Histogram::BucketOf(obs::Histogram::BucketHigh(b)), b);
  }
}

TEST(ObsHistogram, RecordCountsIntoTheRightBucket) {
  obs::Histogram hist;
  hist.Record(0);
  hist.Record(1);
  hist.Record(1000);  // 2^9 <= 1000 < 2^10 -> bucket 10
  EXPECT_EQ(hist.total(), 3u);
  EXPECT_EQ(hist.count(0), 1u);
  EXPECT_EQ(hist.count(1), 1u);
  EXPECT_EQ(hist.count(10), 1u);
}

// ---- histogram: quantiles vs a sorted-vector oracle ------------------------

TEST(ObsHistogram, QuantilesMatchSortedVectorOracle) {
  util::Rng rng(0x0B5C0DE);
  std::vector<std::uint64_t> values;
  obs::Histogram hist;
  for (int i = 0; i < 5000; ++i) {
    // Spread over many orders of magnitude so every quantile exercises
    // a different bucket.
    const std::uint64_t magnitude = rng.NextBelow(40);
    const std::uint64_t value = rng.NextBelow(
        (std::uint64_t{1} << magnitude) + 1);
    values.push_back(value);
    hist.Record(value);
  }
  std::sort(values.begin(), values.end());
  for (const double q : {0.01, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    // The oracle's rank-th value (matching the histogram's rank rule).
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    rank = std::clamp<std::size_t>(rank, 1, values.size());
    const std::uint64_t exact = values[rank - 1];
    // A log2 histogram cannot beat bucket resolution: the reported
    // quantile must be the upper bound of the exact value's bucket.
    EXPECT_EQ(hist.Quantile(q),
              obs::Histogram::BucketHigh(obs::Histogram::BucketOf(exact)))
        << "q=" << q;
  }
  EXPECT_EQ(obs::Histogram{}.Quantile(0.5), 0u);  // empty -> 0
}

// ---- histogram: merge algebra ----------------------------------------------

obs::Histogram RandomHistogram(std::uint64_t seed) {
  util::Rng rng(seed);
  obs::Histogram hist;
  const std::size_t n = 1 + rng.NextBelow(200);
  for (std::size_t i = 0; i < n; ++i) {
    hist.Record(rng.NextBelow(std::uint64_t{1} << rng.NextBelow(50)) + 1);
  }
  return hist;
}

TEST(ObsHistogram, MergeIsAssociativeAndCommutative) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    const obs::Histogram a = RandomHistogram(seed * 3);
    const obs::Histogram b = RandomHistogram(seed * 3 + 1);
    const obs::Histogram c = RandomHistogram(seed * 3 + 2);

    obs::Histogram ab = a;
    ab.Merge(b);
    obs::Histogram ba = b;
    ba.Merge(a);
    EXPECT_TRUE(ab == ba) << "commutativity, seed " << seed;

    obs::Histogram ab_c = ab;
    ab_c.Merge(c);
    obs::Histogram bc = b;
    bc.Merge(c);
    obs::Histogram a_bc = a;
    a_bc.Merge(bc);
    EXPECT_TRUE(ab_c == a_bc) << "associativity, seed " << seed;
    EXPECT_EQ(ab_c.total(), a.total() + b.total() + c.total());
  }
}

// ---- metrics registry ------------------------------------------------------

TEST(ObsMetricsRegistry, ReferencesAreStableAndMergeAdds) {
  obs::MetricsRegistry registry;
  std::uint64_t& counter = registry.Counter("online/windows");
  counter += 3;
  // Unrelated insertions must not invalidate the resolved reference
  // (engines cache these at construction).
  for (int i = 0; i < 100; ++i) {
    registry.Counter("filler/" + std::to_string(i)) = 1;
  }
  counter += 2;
  EXPECT_EQ(registry.Counter("online/windows"), 5u);

  obs::MetricsRegistry other;
  other.Counter("online/windows") = 10;
  other.Gauge("serve/fairness") = 0.5;
  other.Hist("online/window_latency_ns").Record(1234);
  registry.Merge(other);
  EXPECT_EQ(registry.Counter("online/windows"), 15u);
  EXPECT_DOUBLE_EQ(registry.Gauge("serve/fairness"), 0.5);
  EXPECT_EQ(registry.Hist("online/window_latency_ns").total(), 1u);
}

TEST(ObsMetricsRegistry, SnapshotParsesAndCarriesQuantiles) {
  obs::MetricsRegistry registry;
  registry.Counter("cache/misses") = 7;
  for (std::uint64_t v = 1; v <= 100; ++v) {
    registry.Hist("serve/latency_ns").Record(v);
  }
  const util::JsonValue snapshot = util::JsonValue::Parse(registry.ToJson());
  EXPECT_EQ(snapshot.At("counters").At("cache/misses").AsUInt(), 7u);
  const util::JsonValue& hist =
      snapshot.At("histograms").At("serve/latency_ns");
  EXPECT_EQ(hist.At("count").AsUInt(), 100u);
  // p50 of 1..100 is 50, in bucket [32, 63].
  EXPECT_EQ(hist.At("p50").AsUInt(), 63u);
  EXPECT_EQ(hist.At("p99").AsUInt(), 127u);
}

// ---- trace recorder: arena + drop behavior ---------------------------------

TEST(ObsTraceRecorder, DropsBeyondCapacityAndReportsIt) {
  obs::TraceRecorder trace(/*capacity=*/2);
  const std::uint32_t name = trace.Intern("span");
  trace.Complete(name, 0, 0, 0.0, 10.0, {});
  trace.Instant(name, 0, 0, 5.0, {});
  trace.Complete(name, 0, 0, 20.0, 10.0, {});  // arena full -> dropped
  EXPECT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.dropped_events(), 1u);
  const util::JsonValue json = util::JsonValue::Parse(trace.ToJson());
  EXPECT_EQ(json.At("droppedEvents").AsUInt(), 1u);
  EXPECT_EQ(json.At("traceEvents").Items().size(), 2u);
}

TEST(ObsTraceRecorder, MergeRemapsInternedStrings) {
  obs::TraceRecorder a;
  obs::TraceRecorder b;
  // Interning in a different order forces a nontrivial remap.
  (void)a.Intern("alpha");
  const std::uint32_t a_span = a.Intern("span");
  const std::uint32_t b_span = b.Intern("span");
  const std::uint32_t b_key = b.Intern("tenant");
  const std::uint32_t b_value = b.Intern("t0");
  EXPECT_NE(a_span, b_span);
  a.Complete(a_span, 0, 0, 0.0, 1.0, {});
  const std::array<obs::TraceRecorder::Arg, 1> args{
      obs::TraceRecorder::Arg{b_key, true, b_value}};
  b.Instant(b_span, 1, 2, 3.0, args);
  a.Merge(b);
  const util::JsonValue json = util::JsonValue::Parse(a.ToJson());
  const auto& events = json.At("traceEvents").Items();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].At("name").AsString(), "span");
  EXPECT_EQ(events[1].At("args").At("tenant").AsString(), "t0");
}

// ---- serve: per-tenant latency histograms ----------------------------------

trace::AccessSequence WorkloadSequence(const std::string& name,
                                       std::size_t index = 0) {
  const auto workload = workloads::ResolveWorkload(name);
  EXPECT_NE(workload, nullptr) << name;
  auto benchmark = workload->Generate({});
  EXPECT_GT(benchmark.sequences.size(), index);
  return std::move(benchmark.sequences[index]);
}

TEST(ObsServe, TenantHistogramsMergeExactlyToTheDeviceHistogram) {
  const trace::AccessSequence seq0 = WorkloadSequence("gemm-tiled");
  const trace::AccessSequence seq1 = WorkloadSequence("kv-churn");
  const rtm::RtmConfig config =
      sim::CellConfig(4, seq0.num_variables() + seq1.num_variables());
  serve::ServeConfig serve_config;
  serve_config.num_shards = 2;
  serve_config.engine.reseed_strategy = "dma-sr";
  serve_config.engine.window_accesses = 128;
  serve_config.engine.strategy_options.cost.initial_alignment =
      config.initial_alignment;
  serve::PlacementService service(serve_config, config);
  (void)service.OpenSession("t0", seq0);
  (void)service.OpenSession("t1", seq1);
  const serve::ServeResult result = service.Run();

  ASSERT_EQ(result.tenants.size(), 2u);
  obs::Histogram merged;
  std::uint64_t turns = 0;
  for (const serve::TenantStats& tenant : result.tenants) {
    EXPECT_GT(tenant.latency_hist.total(), 0u) << tenant.name;
    merged.Merge(tenant.latency_hist);
    turns += tenant.windows;
  }
  // Each turn's exposed latency lands once in its tenant's histogram
  // and once in the device's: the merge must be bucket-exact, not
  // approximately equal.
  EXPECT_TRUE(merged == result.latency_hist);
  EXPECT_EQ(result.latency_hist.total(), turns);
  EXPECT_GE(result.latency_hist.Quantile(0.99),
            result.latency_hist.Quantile(0.5));
}

// ---- matrix: four-layer tracing + format pinning ---------------------------

offsetstone::Benchmark TinyBenchmark(const char* name, const char* text) {
  offsetstone::Benchmark b;
  b.name = name;
  b.sequences.push_back(trace::AccessSequence::FromCompactString(text));
  return b;
}

sim::ExperimentOptions ObsMatrixOptions() {
  sim::ExperimentOptions options;
  options.dbc_counts = {4};
  options.strategies = {"dma-sr", "online-ewma-dma-sr",
                        "serve-1s-ewma-dma-sr", "cache-lru-c50"};
  options.search_effort = 0.01;
  return options;
}

TEST(ObsMatrix, TraceIsValidChromeFormatWithSpansFromAllLayers) {
  const std::vector<offsetstone::Benchmark> suite = {
      TinyBenchmark("mix", "ababcdcdefefabab")};
  sim::ExperimentOptions options = ObsMatrixOptions();
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  options.obs.trace = &trace;
  options.obs.metrics = &metrics;
  const auto results = sim::RunMatrix(suite, options);
  ASSERT_EQ(results.size(), 4u);

  const util::JsonValue json = util::JsonValue::Parse(trace.ToJson());
  const auto& events = json.At("traceEvents").Items();
  ASSERT_GT(events.size(), 0u);
  std::set<std::string> names;
  for (const util::JsonValue& event : events) {
    const std::string ph = event.At("ph").AsString();
    // Chrome trace-event format: only phases we emit, complete events
    // carry a duration, instants their scope.
    EXPECT_TRUE(ph == "X" || ph == "i" || ph == "M") << ph;
    EXPECT_NE(event.Find("pid"), nullptr);
    EXPECT_NE(event.Find("tid"), nullptr);
    if (ph == "X") {
      EXPECT_NE(event.Find("ts"), nullptr);
      EXPECT_NE(event.Find("dur"), nullptr);
    }
    if (ph == "i") {
      EXPECT_EQ(event.At("s").AsString(), "t");
    }
    names.insert(event.At("name").AsString());
  }
  // Spans from all four instrumented layers: the matrix ("cell"), the
  // serve arbiter ("turn"), the online engine ("window" — also inside
  // serve shards and the cache's wrapped engine), and the cache tier.
  EXPECT_TRUE(names.count("cell")) << "sim layer missing";
  EXPECT_TRUE(names.count("turn")) << "serve layer missing";
  EXPECT_TRUE(names.count("window")) << "online layer missing";
  EXPECT_TRUE(names.count("cache-miss") || names.count("fill-sweep"))
      << "cache layer missing";

  EXPECT_EQ(metrics.Counter("sim/cells"), 4u);
  EXPECT_GT(metrics.Counter("online/windows"), 0u);
  EXPECT_GT(metrics.Counter("serve/turns"), 0u);
  EXPECT_GT(metrics.Hist("online/window_latency_ns").total(), 0u);
}

// ---- determinism: rerun and thread-count invariance -------------------------

struct ObsSnapshot {
  std::string metrics;
  std::string trace;
};

ObsSnapshot RunObsMatrix(unsigned num_threads) {
  const std::vector<offsetstone::Benchmark> suite = {
      TinyBenchmark("one", "ababcdcdefefabab"),
      TinyBenchmark("two", "aabbccddaabbccdd")};
  sim::ExperimentOptions options = ObsMatrixOptions();
  options.num_threads = num_threads;
  obs::TraceRecorder trace;
  obs::MetricsRegistry metrics;
  options.obs.trace = &trace;
  options.obs.metrics = &metrics;
  (void)sim::RunMatrix(suite, options);
  return {metrics.ToJson(), trace.ToJson()};
}

TEST(ObsDeterminism, SnapshotsAreByteIdenticalAcrossRerunsAndThreads) {
  const ObsSnapshot serial = RunObsMatrix(1);
  const ObsSnapshot serial_again = RunObsMatrix(1);
  const ObsSnapshot parallel = RunObsMatrix(4);
  // Bucket-exact and byte-exact: per-cell sinks merge in grid order, so
  // neither rerun nor RTMPLACE_THREADS may move a single count or event.
  EXPECT_EQ(serial.metrics, serial_again.metrics);
  EXPECT_EQ(serial.trace, serial_again.trace);
  EXPECT_EQ(serial.metrics, parallel.metrics);
  EXPECT_EQ(serial.trace, parallel.trace);
}

}  // namespace

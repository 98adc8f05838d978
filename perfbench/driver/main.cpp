// perfbench_driver: runs one benchmark workload in this (single-threaded)
// process for a given number of seconds and writes the raw records as
// JSON lines: one per pass, written as the pass ends, then one with the
// peak RSS and, in a traced run, the span log. run.py builds this binary,
// invokes it and turns the records into metrics.
//
//   perfbench_driver --workload static-suite --seed 1 --seconds 10
//       --trace 0 --effort 0.05 --static-dbcs 4,16 --online-dbcs 16
//       --window 256 --shards 4 --capacity-ratio 0.5
//       --eviction cache-shift-aware --out raw.jsonl
//
// With --trace 1 the passes alternate untraced / traced, so one process
// yields both the per-layer spans and the tracing overhead.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "passes.h"
#include "util/json.h"

namespace rtmp::perfbench {
namespace {

/// Passes run even when the seconds are spent earlier: enough for a
/// median, and for a traced run two untraced and two traced passes.
constexpr int kMinPasses = 4;

std::vector<std::string> SplitList(const std::string& text) {
  std::vector<std::string> items;
  std::string item;
  for (const char c : text) {
    if (c == ',') {
      items.push_back(item);
      item.clear();
    } else {
      item += c;
    }
  }
  items.push_back(item);
  for (const std::string& entry : items) {
    if (entry.empty()) throw std::invalid_argument("empty list item in '" +
                                                   text + "'");
  }
  return items;
}

double ParsePositive(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  const double value = std::stod(text, &used);
  if (used != text.size() || !std::isfinite(value) || value <= 0.0) {
    throw std::invalid_argument(flag + " must be a positive number, got '" +
                                text + "'");
  }
  return value;
}

unsigned ParseCount(const std::string& flag, const std::string& text) {
  const double value = ParsePositive(flag, text);
  if (value != std::floor(value) || value > 1e6) {
    throw std::invalid_argument(flag + " must be a whole number, got '" +
                                text + "'");
  }
  return static_cast<unsigned>(value);
}

struct Args {
  std::string workload;
  double seconds = 0.0;
  bool trace = false;
  std::string out;
  Knobs knobs;
};

Args ParseArgs(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::invalid_argument("expected '--flag value', got '" + flag +
                                  "'");
    }
    flags[flag.substr(2)] = argv[i + 1];
  }
  auto take = [&flags](const std::string& name) {
    const auto it = flags.find(name);
    if (it == flags.end()) {
      throw std::invalid_argument("missing --" + name);
    }
    std::string value = it->second;
    flags.erase(it);
    return value;
  };

  Args args;
  args.workload = take("workload");
  const std::string seed = take("seed");
  std::size_t used = 0;
  args.knobs.seed = std::stoull(seed, &used);
  if (used != seed.size()) throw std::invalid_argument("bad --seed");
  args.seconds = ParsePositive("--seconds", take("seconds"));
  const std::string trace = take("trace");
  if (trace != "0" && trace != "1") {
    throw std::invalid_argument("--trace must be 0 or 1");
  }
  args.trace = trace == "1";
  args.out = take("out");

  Knobs& knobs = args.knobs;
  knobs.effort = ParsePositive("--effort", take("effort"));
  for (const std::string& dbcs : SplitList(take("static-dbcs"))) {
    knobs.static_dbcs.push_back(ParseCount("--static-dbcs", dbcs));
  }
  knobs.online_dbcs = ParseCount("--online-dbcs", take("online-dbcs"));
  knobs.window = ParseCount("--window", take("window"));
  knobs.shards = ParseCount("--shards", take("shards"));
  knobs.capacity_ratio =
      ParsePositive("--capacity-ratio", take("capacity-ratio"));
  knobs.eviction = take("eviction");
  if (!flags.empty()) {
    throw std::invalid_argument("unknown flag --" + flags.begin()->first);
  }
  return args;
}

void WritePass(util::JsonWriter& json, const PassOutput& pass) {
  json.BeginObject();
  json.Member("traced", pass.traced);
  json.Member("generate_s", pass.generate_s);
  json.Member("construct_s", pass.construct_s);
  json.Member("run_s", pass.run_s);
  json.Member("accesses", pass.accesses);
  json.Member("shifts", pass.shifts);
  json.Member("sim_runtime_ns", pass.sim_runtime_ns);
  json.Member("energy_pj", pass.energy_pj);
  json.Member("attempted", pass.attempted);
  json.Member("failed", pass.failed);
  json.Key("failures");
  json.BeginArray();
  for (const std::string& failure : pass.failures) json.String(failure);
  json.EndArray();
  json.Key("counters");
  json.BeginObject();
  for (const auto& [name, value] : pass.counters) json.Member(name, value);
  json.EndObject();
  json.Key("ops_ns");
  json.BeginArray();
  for (const OpSample& op : pass.ops) json.Int(op.ns);
  json.EndArray();
  json.Key("ops_tag");
  json.BeginArray();
  for (const OpSample& op : pass.ops) json.UInt(op.tag);
  json.EndArray();
  json.Key("unit_latency_ns");
  json.BeginArray();
  for (const double latency : pass.unit_latency_ns) json.Double(latency);
  json.EndArray();
  json.EndObject();
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  std::function<PassOutput(const Knobs&, SpanLog&)> run_pass;
  if (args.workload == "static-suite") {
    run_pass = RunStaticSuitePass;
  } else if (args.workload == "online-phased") {
    run_pass = RunOnlinePhasedPass;
  } else if (args.workload == "serve-cache") {
    run_pass = RunServeCachePass;
  } else {
    throw std::invalid_argument("unknown workload '" + args.workload + "'");
  }

  std::ofstream file(args.out, std::ios::binary);
  if (!file) throw std::runtime_error("cannot open " + args.out);
  // Each pass's record is written, then dropped, before the next pass
  // starts, so peak RSS does not grow with the number of passes.
  auto write_line = [&file](const std::function<void(util::JsonWriter&)>&
                                body) {
    std::string text;
    util::JsonWriter json(&text, 0);
    body(json);
    file << text << '\n';
  };

  SpanLog spans;
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(args.seconds * 1e9);
  const std::uint32_t span_pass = spans.Intern("bench.pass");
  for (int pass = 0; pass < kMinPasses || NowNs() < deadline; ++pass) {
    spans.set_enabled(args.trace && pass % 2 == 1);
    spans.set_pass(static_cast<std::uint32_t>(pass));
    PassOutput output;
    {
      SpanLog::Scope span(spans, span_pass);
      output = run_pass(args.knobs, spans);
    }
    write_line([&output](util::JsonWriter& json) { WritePass(json, output); });
  }
  spans.set_enabled(false);

  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);

  write_line([&](util::JsonWriter& json) {
    json.BeginObject();
    json.Member("workload", args.workload);
    json.Member("peak_rss_kb", static_cast<std::int64_t>(usage.ru_maxrss));
    json.Key("span_names");
    json.BeginArray();
    for (const std::string& name : spans.names()) json.String(name);
    json.EndArray();
    // Flattened [pass, name, start_ns, end_ns] quadruples.
    json.Key("spans");
    json.BeginArray();
    for (const SpanLog::Span& span : spans.spans()) {
      json.UInt(span.pass);
      json.UInt(span.name);
      json.Int(span.start_ns);
      json.Int(span.end_ns);
    }
    json.EndArray();
    json.EndObject();
  });
  file.close();
  if (!file) throw std::runtime_error("cannot write " + args.out);
  return 0;
}

}  // namespace
}  // namespace rtmp::perfbench

int main(int argc, char** argv) {
  try {
    return rtmp::perfbench::Main(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_driver: %s\n", error.what());
    return 1;
  }
}

#!/usr/bin/env python3
"""End-to-end benchmark of rtmplace with a per-layer breakdown.

Run from the repository root:

  python3 perfbench/run.py --workload static-suite --seed 1 --seconds 10 \\
      --trace 0 --effort 0.05 ...   (knobs: see BENCHMARK.json)

Builds perfbench/ (the driver plus the library compiled from src/) into
.bench_build/perfbench, runs the workload in one single-threaded driver
process for --seconds, checks its outputs and prints every metric by name
with its unit. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones (untraced passes only); with --trace 1 they are
the per-layer ones, from traced passes that alternate with untraced ones
in the same process, plus a layer-share table printed before the JSON.
"""

import argparse
import collections
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave the checkout as it was

import stats  # noqa: E402

BUILD_DIR = os.path.join(".bench_build", "perfbench")
BUILD_TIMEOUT_S = 840
# The whole run must end within 180 s; the driver overshoots --seconds by
# at most one pass.
DRIVER_SLACK_S = 100
BUILD_JOBS = "4"

# Workload settings, passed through to the driver unchanged.
KNOBS = ("effort", "static-dbcs", "online-dbcs", "window", "shards",
         "capacity-ratio", "eviction")

# Counters that are host times, so they legitimately differ between passes.
HOST_COUNTERS = {"online.reseed_ms"}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_spec():
    """BENCHMARK.json: the workloads and every metric's name and unit."""
    path = os.path.join(HERE, os.pardir, "BENCHMARK.json")
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        fail("cannot read BENCHMARK.json: %s" % error)


SPEC = load_spec()


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    # The knobs are required so that BENCHMARK.json records every one.
    for knob in KNOBS:
        parser.add_argument("--" + knob, required=True)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must be in (0, 60]")
    return args


def build():
    """Configures once, then builds incrementally; all output to stderr."""
    if not os.path.isdir("src") or not os.path.isfile(
            os.path.join(HERE, "CMakeLists.txt")):
        fail("run from the repository root (src/ and perfbench/ needed)")
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--parallel", BUILD_JOBS])
    for step in steps:
        try:
            subprocess.run(step, check=True, stdout=sys.stderr,
                           stderr=sys.stderr,
                           timeout=max(1.0, deadline - time.monotonic()))
        except (subprocess.CalledProcessError,
                subprocess.TimeoutExpired, OSError) as error:
            fail("build failed: %s" % error)
    return os.path.join(BUILD_DIR, "perfbench_driver")


def run_driver(binary, args):
    out = os.path.join(BUILD_DIR, "raw-%s-%d-%s.jsonl" %
                       (args.workload, args.seed, args.trace))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--out", out]
    for knob in KNOBS:
        command += ["--" + knob, getattr(args, knob.replace("-", "_"))]
    # The library reads these only through helpers the driver never
    # calls; drop them anyway so no setting leaks in from outside.
    env = {k: v for k, v in os.environ.items()
           if k not in ("RTMPLACE_EFFORT", "RTMPLACE_THREADS")}
    try:
        subprocess.run(command, check=True, env=env, stdout=sys.stderr,
                       timeout=args.seconds + DRIVER_SLACK_S)
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired, OSError) as error:
        fail("driver failed: %s" % error)
    # One line per pass, then one with the process-wide records.
    with open(out) as handle:
        lines = [json.loads(line) for line in handle if line.strip()]
    if len(lines) < 2:
        fail("driver wrote no passes")
    raw = lines[-1]
    raw["passes"] = lines[:-1]
    return raw


# ---- correctness -----------------------------------------------------------

def simulated_signature(run_pass):
    """Everything a pass reports that must repeat bit for bit."""
    counters = {k: v for k, v in run_pass["counters"].items()
                if k not in HOST_COUNTERS}
    return (run_pass["accesses"], run_pass["shifts"],
            run_pass["sim_runtime_ns"], run_pass["energy_pj"],
            tuple(run_pass["unit_latency_ns"]), tuple(sorted(counters.items())))


def check(raw):
    """(attempted, failed, messages): the driver's own checks plus the
    repeat check (every pass of one seed yields identical simulated
    results; a pass that differs counts all its operations as failed)."""
    passes = raw["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    messages = [m for p in passes for m in p["failures"]]
    reference = simulated_signature(passes[0])
    for index, run_pass in enumerate(passes[1:], start=1):
        if simulated_signature(run_pass) != reference:
            failed += run_pass["attempted"] - run_pass["failed"]
            messages.append("pass %d: simulated results differ from pass 0"
                            % index)
    return attempted, min(failed, attempted), messages


# ---- end-to-end metrics ----------------------------------------------------

def unit_ops_us(workload, passes):
    """Host latencies (us) of the workload's unit calls, pooled."""
    values = []
    for run_pass in passes:
        for ns, tag in zip(run_pass["ops_ns"], run_pass["ops_tag"]):
            if workload == "online-phased" and \
                    stats.classify_window(tag) is None:
                continue  # a trailing partial window: nothing decided
            values.append(ns / 1e3)
    return values


def end_to_end(raw):
    """(values, samples): the end-to-end metrics, and for the host-time
    ones the samples their medians are taken over."""
    workload = raw["workload"]
    passes = [p for p in raw["passes"] if not p["traced"]]
    first = raw["passes"][0]
    latencies = first["unit_latency_ns"]
    if not stats.allows_percentile(len(latencies), 99.0):
        fail("window_latency_p99_ns needs >= 1000 samples, got %d"
             % len(latencies))
    samples = {
        "setup_s": [p["generate_s"] + p["construct_s"] for p in passes],
        "accesses_per_s": [p["accesses"] / p["run_s"] for p in passes],
        "op_p50_us": unit_ops_us(workload, passes),
    }
    values = {name: stats.median(v) for name, v in samples.items()}
    values.update({
        "peak_rss_mb": raw["peak_rss_kb"] / 1024.0,
        "shifts": first["shifts"],
        "sim_runtime_us": first["sim_runtime_ns"] / 1e3,
        "energy_uj": first["energy_pj"] / 1e6,
        "window_latency_p99_ns": stats.percentile(latencies, 99.0),
    })
    return values, samples


# ---- per-layer metrics -----------------------------------------------------

def span_totals(raw):
    """{pass index: {span name: [durations in s]}} of the traced passes."""
    names = raw["span_names"]
    flat = raw["spans"]
    totals = collections.defaultdict(lambda: collections.defaultdict(list))
    for i in range(0, len(flat), 4):
        pass_index, name, start, end = flat[i:i + 4]
        totals[pass_index][names[name]].append((end - start) / 1e9)
    return totals


def layer_times(workload, spans, run_pass):
    """Host seconds per layer in one traced pass, plus the pass's
    denominator. Only the benchmark's own spans and engine-reported
    counters are used: online-phased's core share is the re-seed time the
    engine reports inside Feed, serve-cache's cache share is cache.tier_s
    and its core share the engine-reported re-seed time."""
    def total(prefix):
        return sum(sum(v) for k, v in spans.items() if k.startswith(prefix))

    layers = dict.fromkeys(("workloads", "core", "sim", "online", "serve",
                            "cache"), 0.0)
    layers["workloads"] = total("workloads.")
    wall = total("bench.pass")
    reseed = run_pass["counters"].get("online.reseed_ms", 0.0) / 1e3
    if workload == "static-suite":
        layers["core"] = total("core.")
        layers["sim"] = total("sim.")
    elif workload == "online-phased":
        layers["core"] = reseed
        layers["online"] = total("online.") - reseed
    else:
        plain = total("serve.run_plain")
        cached = total("serve.run") - plain
        wall -= plain  # the cache-off reference run is measurement only
        layers["cache"] = cached - plain
        layers["core"] = reseed
        layers["serve"] = total("serve.construct") + plain - reseed
    layers["other"] = wall - sum(layers.values())
    return layers, wall


def per_layer(raw):
    workload = raw["workload"]
    traced = [(i, p) for i, p in enumerate(raw["passes"]) if p["traced"]]
    untraced = [p for p in raw["passes"] if not p["traced"]]
    if not traced or not untraced:
        fail("a traced run needs traced and untraced passes")
    spans = span_totals(raw)
    metrics = {m["name"]: 0.0 for m in SPEC["per_layer"]}
    counters = traced[0][1]["counters"]
    strategies = [name.split(".", 2)[2] for name in metrics
                  if name.startswith("core.place_us_p50.")]

    def med(fn):
        return stats.median([fn(spans[i], p) for i, p in traced])

    def pooled(name):
        return [d for i, _ in traced for d in spans[i].get(name, [])]

    metrics["workloads.generate_s"] = med(
        lambda s, p: sum(s["workloads.generate"]))

    if workload == "static-suite":
        placed = sorted(k.split(".", 2)[2] for k in counters
                        if k.startswith("core.shifts."))
        if placed != sorted(strategies):
            fail("the driver placed with %s, BENCHMARK.json names %s"
                 % (placed, sorted(strategies)))
        metrics["core.place_s"] = med(lambda s, p: sum(
            sum(v) for k, v in s.items() if k.startswith("core.place.")))
        for strategy in strategies:
            metrics["core.place_us_p50." + strategy] = \
                stats.median(pooled("core.place." + strategy)) * 1e6
            metrics["core.shifts." + strategy] = \
                counters["core.shifts." + strategy]
        metrics["core.ga_evals_per_s"] = med(
            lambda s, p: p["counters"]["core.evaluations.ga"] /
            sum(s["core.place.ga"]))
        metrics["sim.simulate_s"] = med(lambda s, p: sum(s["sim.simulate"]))

    for name in ("rtm.requests", "rtm.exposed_shift_ns",
                 "rtm.hidden_shift_ns", "online.windows",
                 "online.phase_changes", "online.replacements",
                 "online.migrated_vars", "online.migration_shifts",
                 "online.service_shifts", "serve.turns", "serve.fairness",
                 "cache.hits", "cache.misses", "cache.writebacks",
                 "cache.fill_shifts"):
        metrics[name] = counters.get(name, 0.0)
    if metrics["online.phase_changes"]:
        metrics["online.accept_ratio"] = (
            counters["online.reseed_accepts"] /
            metrics["online.phase_changes"])
    if "online.reseed_ms" in counters:
        metrics["online.reseed_s"] = med(
            lambda s, p: p["counters"]["online.reseed_ms"] / 1e3)

    if workload == "online-phased":
        metrics["online.reseed_share"] = med(
            lambda s, p: (p["counters"]["online.reseed_ms"] / 1e3) /
            (sum(s["online.feed"]) + sum(s["online.finish"])))
        by_class = collections.defaultdict(list)
        for _, p in traced:
            for ns, tag in zip(p["ops_ns"], p["ops_tag"]):
                by_class[stats.classify_window(tag)].append(ns / 1e3)
        for window_class in stats.WINDOW_CLASSES:
            if by_class[window_class]:
                metrics["online.window_us_p50." + window_class] = \
                    stats.median(by_class[window_class])

    if workload == "serve-cache":
        run_s = [sum(spans[i]["serve.run"]) for i, _ in traced]
        plain_s = [sum(spans[i]["serve.run_plain"]) for i, _ in traced]
        metrics["serve.run_s"] = stats.median(run_s)
        metrics["serve.host_us_per_turn"] = (
            metrics["serve.run_s"] / metrics["serve.turns"] * 1e6)
        accesses = metrics["cache.hits"] + metrics["cache.misses"]
        metrics["cache.hit_ratio"] = metrics["cache.hits"] / accesses
        metrics["cache.tier_s"] = stats.cache_tier_s(run_s, plain_s)
        metrics["cache.host_us_per_miss"] = (
            metrics["cache.tier_s"] / metrics["cache.misses"] * 1e6)

    ops = unit_ops_us(workload, [p for _, p in traced])
    if stats.allows_percentile(len(ops), 99.0):
        metrics["bench.op_p99_us"] = stats.percentile(ops, 99.0)

    traced_rate = stats.median([p["accesses"] / p["run_s"]
                                for _, p in traced])
    untraced_rate = stats.median([p["accesses"] / p["run_s"]
                                  for p in untraced])
    metrics["bench.trace_overhead"] = traced_rate / untraced_rate

    shares = collections.defaultdict(list)
    for i, p in traced:
        layers, wall = layer_times(workload, spans[i], p)
        for layer, seconds in layers.items():
            shares[layer].append(seconds / wall)
    for layer, values in shares.items():
        metrics["bench.share." + layer] = stats.median(values)
    return metrics


# What each share row holds where it is not the layer's own calls alone.
SHARE_NOTES = {
    ("online-phased", "core"): "re-seed strategy runs inside Feed",
    ("online-phased", "online"): "Feed/Finish minus re-seeding",
    ("serve-cache", "core"): "re-seed strategy runs inside Run",
    ("serve-cache", "serve"): "cache-off Run minus re-seeding: arbiter, "
                              "online window service, rtm",
    ("serve-cache", "cache"): "cache.tier_s",
}
# The layer each workload was built to load (see the workloads' `why` in
# BENCHMARK.json).
EXPECTED_DOMINANT = {"static-suite": "core", "online-phased": "core",
                     "serve-cache": "cache"}


def print_share_table(workload, metrics):
    print("layer shares of traced host wall time (%s):" % workload)
    rows = sorted(((k.split(".", 2)[2], v) for k, v in metrics.items()
                   if k.startswith("bench.share.")), key=lambda r: -r[1])
    for layer, share in rows:
        note = SHARE_NOTES.get((workload, layer), "")
        print("  %-10s %6.1f%%  %s" % (layer, 100.0 * share, note))
    dominant = next(layer for layer, _ in rows if layer != "other")
    expected = EXPECTED_DOMINANT[workload]
    print("  dominant layer: %s (expected %s%s)" %
          (dominant, expected, "" if dominant == expected else
           " -- MISMATCH"))
    print("  trace overhead (traced/untraced accesses_per_s): %.4f"
          % metrics["bench.trace_overhead"])


def main():
    args = parse_args()
    binary = build()
    raw = run_driver(binary, args)
    attempted, failed, messages = check(raw)
    for message in messages[:20]:
        print("perfbench: check failed: " + message, file=sys.stderr)

    if args.trace == "0":
        values, samples = end_to_end(raw)
        units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    else:
        values, samples = per_layer(raw), {}
        units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(values) == set(units), set(values) ^ set(units)

    for name in units:
        line = "%-34s %22.6f %s" % (name, values[name], units[name])
        if len(samples.get(name, ())) >= 2:
            q1, _, q3 = stats.quartiles(samples[name])
            line += "  (median; quartiles %.6g .. %.6g of %d samples)" % (
                q1, q3, len(samples[name]))
        print(line)
    if args.trace == "1":
        print_share_table(args.workload, values)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    sys.stdout.flush()
    print(json.dumps(result))


if __name__ == "__main__":
    main()

"""What each metric the benchmark reports means, and what it should move.

BENCHMARK.json holds every metric's name, unit, direction and bound; its
schema has no room for the rest, which is kept here. For each per-layer
metric, `moves` names the end-to-end metric it should move and on which
workload, so a change to one layer can be predicted before it is
measured. Layer metrics that do not apply to a workload are reported as
0 there.
"""

# Bounds (in BENCHMARK.json). Host-time bounds sit at the 0.25 cap: the
# machine's speed drifts over minutes (README.md, "Noise and bounds").
# Simulated metrics repeat exactly for one seed, but the inputs change
# with the seed; their bounds are 2.5-7 times the largest spread measured
# over ten seeds (static-suite: shifts 3.5-4.1%, window p99 4.9-10.6%;
# online-phased and serve-cache: 1.2-2.5%).

# name -> meaning.
END_TO_END = {
    "setup_s":
        "workload generation plus engine, session and strategy "
        "construction; median over passes",
    "accesses_per_s":
        "trace accesses placed or served, and simulated, per host second "
        "of the workload's work (set-up excluded); median over passes",
    "op_p50_us":
        "median host latency of the unit call: place + simulate one "
        "sequence (static-suite), one window Feed (online-phased), one "
        "PlacementService Run over every tenant (serve-cache)",
    "peak_rss_mb":
        "peak resident set of the single-threaded driver process",
    "shifts":
        "simulated device shifts, migration and cache fills included",
    "sim_runtime_us":
        "simulated runtime summed over sessions (serve-cache: the service "
        "makespan plus backing-store time)",
    "energy_uj":
        "simulated energy (serve-cache: backing-store transfers included)",
    "window_latency_p99_ns":
        "nearest-rank p99 of the simulated latency of the service unit, "
        "from raw values: WindowRecord::latency_ns (online-phased), "
        "TenantStats::window_latencies (serve-cache), the Simulate runtime "
        "of one placed sequence (static-suite)",
}

STRATEGIES = ("dma-sr", "afd-ofu", "dma-ge", "ga")

_STATIC = "static-suite"
_ONLINE = "online-phased"
_SERVE = "serve-cache"
_ALL = (_STATIC, _ONLINE, _SERVE)

# name -> (moves: [(end-to-end metric, workloads)], meaning).
PER_LAYER = {
    "workloads.generate_s": (
        [("setup_s", _ALL)],
        "host time generating the workload's sequences"),
    "core.place_s": (
        [("accesses_per_s", (_STATIC,)), ("op_p50_us", (_STATIC,))],
        "host time in RunTimed strategy calls per pass; a dma-sr gain also "
        "shows on online-phased through online.reseed_s; no change "
        "predicted on serve-cache"),
    **{"core.place_us_p50." + s: (
        [("op_p50_us", (_STATIC,)), ("accesses_per_s", (_STATIC,))],
        "median host time of one RunTimed call of " + s)
       for s in STRATEGIES},
    "core.ga_evals_per_s": (
        [("accesses_per_s", (_STATIC,))],
        "GA fitness evaluations per host second inside ga's RunTimed "
        "calls"),
    **{"core.shifts." + s: (
        [("shifts", (_STATIC,))],
        "simulated shifts of " + s + "'s placements")
       for s in STRATEGIES},
    "sim.simulate_s": (
        [("accesses_per_s", (_STATIC,)), ("sim_runtime_us", _ALL)],
        "host time in sim::Simulate per pass"),
    "rtm.requests": (
        [("sim_runtime_us", _ALL)],
        "device requests: service, migration and fill traffic"),
    "rtm.exposed_shift_ns": (
        [("sim_runtime_us", _ALL)],
        "controller shift stall the requests waited out (online-phased, "
        "serve-cache; Simulate reports no split)"),
    "rtm.hidden_shift_ns": (
        [("sim_runtime_us", _ALL)],
        "controller shifting overlapped with the channel"),
    "online.windows": (
        [("accesses_per_s", (_ONLINE,))], "windows decided"),
    "online.phase_changes": (
        [("accesses_per_s", (_ONLINE,)), ("op_p50_us", (_ONLINE,))],
        "windows whose detector declared a phase change (each one "
        "re-seeds)"),
    "online.replacements": (
        [("shifts", (_ONLINE,))],
        "windows whose placement was replaced (re-seed accepts and "
        "refinements)"),
    "online.accept_ratio": (
        [("accesses_per_s", (_ONLINE,))],
        "re-seeds accepted / phase changes declared: useful over "
        "attempted"),
    **{"online.window_us_p50." + c: (
        [("op_p50_us", (_ONLINE,))],
        "median host time of a Feed whose window was " + c)
       for c in ("steady", "rejected", "replaced")},
    "online.reseed_s": (
        [("accesses_per_s", (_ONLINE,)), ("op_p50_us", (_ONLINE,))],
        "engine-reported re-seed wall time "
        "(OnlineResult::placement_wall_ms)"),
    "online.reseed_share": (
        [("accesses_per_s", (_ONLINE,))],
        "online.reseed_s / host time inside OnlineEngine Feed and Finish"),
    "online.migrated_vars": (
        [("shifts", (_ONLINE,))], "variables moved by accepted migrations"),
    "online.migration_shifts": (
        [("shifts", (_ONLINE,))], "device shifts spent migrating"),
    "online.service_shifts": (
        [("shifts", (_ONLINE, _SERVE))], "device shifts spent serving"),
    "serve.run_s": (
        [("accesses_per_s", (_SERVE,))],
        "host time of PlacementService::Run per pass"),
    "serve.turns": (
        [("accesses_per_s", (_SERVE,))],
        "arbitration turns (one tenant window each)"),
    "serve.host_us_per_turn": (
        [("accesses_per_s", (_SERVE,))], "serve.run_s / serve.turns"),
    "serve.fairness": (
        [("window_latency_p99_ns", (_SERVE,))],
        "Jain index over tenants' mean exposed window latency"),
    "cache.hits": (
        [("shifts", (_SERVE,))], "cache-tier hits"),
    "cache.misses": (
        [("accesses_per_s", (_SERVE,)), ("shifts", (_SERVE,)),
         ("energy_uj", (_SERVE,))],
        "cache-tier misses (each one fills)"),
    "cache.hit_ratio": (
        [("shifts", (_SERVE,)), ("energy_uj", (_SERVE,))],
        "hits / accesses"),
    "cache.writebacks": (
        [("energy_uj", (_SERVE,))], "dirty victims written back"),
    "cache.fill_shifts": (
        [("shifts", (_SERVE,)), ("energy_uj", (_SERVE,))],
        "device shifts of evict/fill sweeps"),
    "cache.tier_s": (
        [("accesses_per_s", (_SERVE,))],
        "serve Run wall time minus that of the same tenants with the cache "
        "tier off, paired per traced pass"),
    "cache.host_us_per_miss": (
        [("accesses_per_s", (_SERVE,))], "cache.tier_s / cache.misses"),
    "bench.trace_overhead": (
        [], "traced / untraced accesses_per_s in the same process"),
    "bench.op_p99_us": (
        [("op_p50_us", (_STATIC, _ONLINE))],
        "nearest-rank p99 host latency of the unit call (needs 1000 calls; "
        "0 on serve-cache, which has one call per pass)"),
    **{"bench.share." + layer: (
        [], "share of traced-pass host wall time spent in the " + layer +
        " layer's timed calls")
       for layer in ("workloads", "core", "sim", "online", "serve", "cache",
                     "other")},
}

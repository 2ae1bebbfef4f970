#!/usr/bin/env python
"""Sustained-load serving benchmark — emits ``BENCH_serving.json``.

Measures the serving layer (:class:`repro.serve.FlowServer`) the way a
service is measured, in the standup → run → analysis → report shape:

1. **Standup** — build the benchmark graphs and servers (the one-time
   approximator build the serve-many economics amortize).
2. **Run** —
   * *batch throughput*: route ``Q`` fresh demands at ``n`` through
     ``server.route_batch`` (accelerated solver, one one-shot solve per
     column) and compare aggregate throughput against ``Q`` sequential
     one-shot ``almost_route`` calls on the **same approximator** — the
     pre-serving workflow — plus a solver-matched control of ``Q``
     sequential ``accelerated_almost_route`` calls, so the report
     separates the solver's contribution from the serving layer's.
   * *sustained load*: an open-loop arrival process (Poisson, rate set
     as a fraction of the server's measured capacity, arrival times
     fixed in advance so queueing delay is charged to latency) over a
     mixed stream of single and batched queries with a popular-query
     repeat fraction that exercises the result cache.
   * *update latency*: repeated small capacity deltas (~1% of edges)
     against two identically-built servers, one ``refresh="rebuild"``
     and one ``refresh="incremental"``; the measured quantity is the
     latency of the first re-route after each mutation — full
     approximator rebuild + cold solve vs exact cut refresh +
     warm-started solve.
3. **Analysis** — p50/p95/p99/mean latency, throughput, speedups,
   cache counters.
4. **Report** — written to ``--out`` (default ``BENCH_serving.json``),
   consumed by ``tools/bench_regression.py`` (which enforces floors on
   ``batch_q64_speedup`` and the incremental-vs-rebuild update
   speedup).

Run from the repository root::

    PYTHONPATH=src python tools/bench_serving.py            # full (~3 min)
    PYTHONPATH=src python tools/bench_serving.py --quick    # CI smoke

Latencies are measured on a virtual clock driven by real service
times: the driver is single-threaded, so request i starts at
``max(arrival_i, finish_{i-1})`` and its open-loop latency is
``finish_i − arrival_i`` (service + queueing).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core import (  # noqa: E402
    accelerated_almost_route,
    almost_route,
    build_congestion_approximator,
)
from repro.graphs.generators import random_connected  # noqa: E402
from repro.serve import FlowServer  # noqa: E402

#: (n, edge probability, Q, epsilon) of the batch-throughput experiment
#: per profile. The full profile is the acceptance row: Q=64 at n=1024.
THROUGHPUT_PROFILES = {
    "full": (1024, 0.012, 64, 0.2),
    "quick": (256, 0.05, 16, 0.25),
}
#: (n, edge probability, requests, epsilon) of the sustained-load run.
LOAD_PROFILES = {
    "full": (256, 0.05, 300, 0.25),
    "quick": (256, 0.05, 60, 0.25),
}
#: (n, edge probability, update cycles, epsilon) of the update-latency
#: experiment. Each cycle degrades ~UPDATE_FRACTION of the edges and
#: measures the first re-route on each refresh policy.
UPDATE_PROFILES = {
    "full": (512, 0.025, 5, 0.25),
    "quick": (192, 0.06, 3, 0.25),
}
#: Fraction of edges each update cycle touches (the "small delta"
#: regime the incremental policy targets) and the capacity multiplier.
UPDATE_FRACTION = 0.01
UPDATE_FACTOR = 0.9
#: Offered load as a fraction of measured single-query capacity.
OFFERED_LOAD = 0.7
#: Request mix: fraction of batch requests, columns per batch request,
#: and the fraction of single queries drawn from a small popular set
#: (repeats — the cache-hit path of a production demand stream).
BATCH_FRACTION = 0.25
BATCH_COLUMNS = 8
REPEAT_FRACTION = 0.3
POPULAR_SET = 6
GRAPH_SEED = 940
BUILD_SEED = 941
DEMAND_SEED = 77


def _demand_plane(n: int, num_queries: int, rng: np.random.Generator):
    plane = rng.normal(size=(num_queries, n))
    plane -= plane.mean(axis=1, keepdims=True)
    return plane


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return float("nan")
    idx = min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1))))
    return sorted_values[idx]


def run_batch_throughput(profile: str) -> dict:
    """Aggregate throughput: chunked batch serving vs sequential
    one-shot calls on one shared approximator."""
    n, p, num_queries, epsilon = THROUGHPUT_PROFILES[profile]
    print(f"[standup] building n={n} graph + approximator ...")
    graph = random_connected(n, p, rng=GRAPH_SEED)
    t0 = time.perf_counter()
    approximator = build_congestion_approximator(
        graph, rng=BUILD_SEED, alpha=1.0
    )
    build_s = time.perf_counter() - t0
    rng = np.random.default_rng(DEMAND_SEED)
    plane = _demand_plane(n, num_queries, rng)

    print(f"[run] sequential baseline: {num_queries} one-shot almost_route ...")
    t0 = time.perf_counter()
    plain_iters = [
        almost_route(graph, approximator, plane[q], epsilon).iterations
        for q in range(num_queries)
    ]
    sequential_plain_s = time.perf_counter() - t0

    print(f"[run] solver-matched control: {num_queries} accelerated calls ...")
    t0 = time.perf_counter()
    for q in range(num_queries):
        accelerated_almost_route(graph, approximator, plane[q], epsilon)
    sequential_accelerated_s = time.perf_counter() - t0

    print("[run] batched serving path ...")
    server = FlowServer(
        graph,
        approximator=approximator,
        epsilon=epsilon,
        solver="accelerated",
    )
    t0 = time.perf_counter()
    results = server.route_batch(plane, use_cache=False)
    batched_s = time.perf_counter() - t0
    batch_iters = [r.iterations for r in results]

    return {
        "n": n,
        "num_edges": graph.num_edges,
        "num_queries": num_queries,
        "epsilon": epsilon,
        "solver": "accelerated",
        "approximator_build_s": round(build_s, 4),
        "sequential_plain_s": round(sequential_plain_s, 4),
        "sequential_plain_qps": round(num_queries / sequential_plain_s, 3),
        "sequential_accelerated_s": round(sequential_accelerated_s, 4),
        "batched_s": round(batched_s, 4),
        "batched_qps": round(num_queries / batched_s, 3),
        f"batch_q{num_queries}_speedup": round(
            sequential_plain_s / batched_s, 2
        ),
        f"batch_q{num_queries}_speedup_vs_accelerated": round(
            sequential_accelerated_s / batched_s, 2
        ),
        "plain_iterations_median": int(np.median(plain_iters)),
        "batched_iterations_median": int(np.median(batch_iters)),
    }


def run_sustained_load(profile: str) -> dict:
    """Open-loop mixed single/batch stream against one warm server."""
    n, p, num_requests, epsilon = LOAD_PROFILES[profile]
    print(f"[standup] load server: n={n} graph + approximator ...")
    graph = random_connected(n, p, rng=GRAPH_SEED + 1)
    server = FlowServer(
        graph, epsilon=epsilon, solver="accelerated", rng=BUILD_SEED + 1
    )
    rng = np.random.default_rng(DEMAND_SEED + 1)
    popular = _demand_plane(n, POPULAR_SET, rng)

    # Calibrate: median single-query service time sets the arrival rate.
    calib = _demand_plane(n, 5, rng)
    service = []
    for q in range(calib.shape[0]):
        t0 = time.perf_counter()
        server.route(calib[q], use_cache=False)
        service.append(time.perf_counter() - t0)
    service.sort()
    # A batch request costs up to BATCH_COLUMNS single-query services
    # (less after caching), so offered load is calibrated on
    # expected columns per request — otherwise the queue is unstable
    # by construction and latency measures backlog, not the server.
    expected_columns = (1 - BATCH_FRACTION) + BATCH_FRACTION * BATCH_COLUMNS
    arrival_rate = OFFERED_LOAD / (
        service[len(service) // 2] * expected_columns
    )

    # Pre-generate the open-loop schedule: arrival times are fixed in
    # advance, so a slow server pays queueing delay in latency instead
    # of silently slowing the workload down (closed-loop would).
    arrivals = np.cumsum(rng.exponential(1.0 / arrival_rate, num_requests))
    kinds = rng.random(num_requests)
    requests = []
    for i in range(num_requests):
        if kinds[i] < BATCH_FRACTION:
            requests.append(("batch", _demand_plane(n, BATCH_COLUMNS, rng)))
        elif kinds[i] < BATCH_FRACTION + (1 - BATCH_FRACTION) * REPEAT_FRACTION:
            requests.append(("single", popular[rng.integers(POPULAR_SET)]))
        else:
            requests.append(("single", _demand_plane(n, 1, rng)[0]))

    print(f"[run] {num_requests} open-loop requests "
          f"(rate {arrival_rate:.1f}/s, {BATCH_FRACTION:.0%} batches) ...")
    latencies: list[float] = []
    queries = 0
    busy_until = 0.0
    wall0 = time.perf_counter()
    for arrival, (kind, demand) in zip(arrivals, requests):
        t0 = time.perf_counter()
        if kind == "batch":
            served = server.route_batch(demand)
            queries += len(served)
        else:
            server.route(demand)
            queries += 1
        service_s = time.perf_counter() - t0
        start = max(busy_until, float(arrival))
        busy_until = start + service_s
        latencies.append(busy_until - float(arrival))
    wall_s = time.perf_counter() - wall0

    latencies.sort()
    cache = server.cache_stats()
    span = max(busy_until, float(arrivals[-1]))
    return {
        "n": n,
        "num_requests": num_requests,
        "num_queries": queries,
        "epsilon": epsilon,
        "arrival": "poisson-open-loop",
        "offered_load": OFFERED_LOAD,
        "arrival_rate_per_s": round(arrival_rate, 2),
        "mix": {
            "batch_fraction": BATCH_FRACTION,
            "batch_columns": BATCH_COLUMNS,
            "repeat_fraction": REPEAT_FRACTION,
        },
        "latency_ms": {
            "p50": round(_percentile(latencies, 0.50) * 1e3, 2),
            "p95": round(_percentile(latencies, 0.95) * 1e3, 2),
            "p99": round(_percentile(latencies, 0.99) * 1e3, 2),
            "mean": round(float(np.mean(latencies)) * 1e3, 2),
        },
        "throughput_qps": round(queries / span, 2),
        "service_wall_s": round(wall_s, 3),
        "cache": {
            "hits": cache.hits,
            "misses": cache.misses,
            "hit_rate": round(cache.hits / max(1, cache.hits + cache.misses), 3),
        },
    }


def run_update_latency(profile: str) -> dict:
    """First-re-route latency after a small capacity delta:
    ``refresh="rebuild"`` vs ``refresh="incremental"``.

    Two servers are built over identically-seeded graphs and warmed on
    the same demand. Each cycle applies the same ~1% capacity
    degradation to both graphs and times the next ``route`` call for
    the same demand — which pays the policy's full sync cost (cold
    approximator rebuild vs exact cut refresh + warm start) plus
    the solve. The speedup row is the gated acceptance metric.
    """
    n, p, cycles, epsilon = UPDATE_PROFILES[profile]
    print(f"[standup] update-latency servers: two n={n} graphs ...")
    servers = {}
    for policy in ("rebuild", "incremental"):
        graph = random_connected(n, p, rng=GRAPH_SEED + 2)
        servers[policy] = FlowServer(
            graph,
            epsilon=epsilon,
            solver="accelerated",
            rng=BUILD_SEED + 2,
            refresh=policy,
        )
    rng = np.random.default_rng(DEMAND_SEED + 2)
    demand = _demand_plane(n, 1, rng)[0]
    for server in servers.values():
        server.route(demand)  # warm: build + populate the cache

    num_edges = servers["rebuild"].graph.num_edges
    touched = max(1, int(num_edges * UPDATE_FRACTION))
    print(f"[run] {cycles} update cycles, {touched} edges each ...")
    latencies: dict[str, list[float]] = {name: [] for name in servers}
    for _ in range(cycles):
        edges = rng.choice(num_edges, size=touched, replace=False)
        for name, server in servers.items():
            for eid in edges.tolist():
                server.graph.set_capacity(
                    int(eid), server.graph.capacity(int(eid)) * UPDATE_FACTOR
                )
            t0 = time.perf_counter()
            server.route(demand)
            latencies[name].append(time.perf_counter() - t0)

    stats = servers["incremental"].stats()
    rebuild_s = float(np.median(latencies["rebuild"]))
    incremental_s = float(np.median(latencies["incremental"]))
    return {
        "n": n,
        "num_edges": num_edges,
        "cycles": cycles,
        "edges_touched_per_cycle": touched,
        "update_fraction": UPDATE_FRACTION,
        "epsilon": epsilon,
        "solver": "accelerated",
        "rebuild_update_s_median": round(rebuild_s, 4),
        "incremental_update_s_median": round(incremental_s, 4),
        "update_latency_speedup": round(rebuild_s / incremental_s, 2),
        "incremental_refreshes": stats.incremental_refreshes,
        "warm_starts": stats.warm_starts,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small CI-smoke profile (n=256, Q=16) instead of the full "
        "acceptance profile (n=1024, Q=64)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_serving.json",
        help="output JSON path",
    )
    args = parser.parse_args(argv)
    profile = "quick" if args.quick else "full"

    throughput = run_batch_throughput(profile)
    load = run_sustained_load(profile)
    update = run_update_latency(profile)

    report = {
        "description": (
            "Serving-layer benchmark (FlowServer). throughput: aggregate "
            "time to route Q fresh demands — sequential one-shot "
            "almost_route calls on a shared approximator (the pre-serving "
            "workflow) vs sequential accelerated calls (solver-matched "
            "control) vs the server's chunked accelerated batch; "
            "batch_qN_speedup = sequential_plain_s / batched_s. "
            "sustained_load: open-loop Poisson arrivals of mixed "
            "single/batch queries with a popular-repeat fraction; "
            "latency = finish - arrival on a virtual clock driven by "
            "real service times, so queueing delay is included. "
            "All served results are bit-identical per column to the "
            "corresponding one-shot solver calls. "
            "update_latency_incremental_vs_rebuild: first-re-route "
            "latency after repeated ~1% capacity deltas — full "
            "approximator rebuild + cold solve (refresh='rebuild') vs "
            "exact cut refresh + warm-started solve "
            "(refresh='incremental'); update_latency_speedup = "
            "rebuild_median / incremental_median."
        ),
        "profile": profile,
        "throughput": throughput,
        "sustained_load": load,
        "update_latency_incremental_vs_rebuild": update,
    }
    args.out.write_text(json.dumps(report, indent=2) + "\n")

    q = throughput["num_queries"]
    speedup = throughput[f"batch_q{q}_speedup"]
    print(
        f"[report] wrote {args.out.name}: batch_q{q}_speedup={speedup}x, "
        f"load p50={load['latency_ms']['p50']}ms "
        f"p99={load['latency_ms']['p99']}ms "
        f"throughput={load['throughput_qps']} q/s, "
        f"update_latency_speedup={update['update_latency_speedup']}x "
        f"({update['warm_starts']} warm starts)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Shared fixtures for the benchmark/experiment harness.

Run with::

    pytest benchmarks/ --benchmark-only

Each ``test_bench_*.py`` file regenerates one experiment from
EXPERIMENTS.md (the measurable form of one of the paper's claims) and
asserts its qualitative shape, while pytest-benchmark times the
representative core operation.

After a benchmark session this conftest also emits
``BENCH_graphcore.json`` at the repo root: best-of-N timings of the
graph-substrate hot paths (BFS, contraction, tree decomposition, AKPW,
approximator build) measured on the standard generator graphs, next to
the same timings measured at the pre-CSR seed commit, so substrate
regressions show up as a ratio < 1 in one glance.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core import build_congestion_approximator
from repro.core.almost_route import almost_route
from repro.graphs.generators import grid, path, random_connected, torus, weighted_variant


@pytest.fixture(scope="session")
def bench_graph():
    """The standard benchmark instance: 48-node connected random graph."""
    return random_connected(48, 0.1, rng=901)


@pytest.fixture(scope="session")
def bench_grid():
    return grid(8, 8, rng=902)


@pytest.fixture(scope="session")
def bench_approximator(bench_graph):
    return build_congestion_approximator(bench_graph, rng=903)


# ----------------------------------------------------------------------
# BENCH_graphcore.json — substrate before/after evidence
# ----------------------------------------------------------------------
#: Best-of-N seconds at the seed commit (pure-Python adjacency-list
#: substrate), measured with the same harness as `_measure_current`
#: (best-of is robust to the noisy-neighbor jitter of shared runners).
SEED_BASELINES = {
    "bfs_distances_path900": 1.4747e-04,
    "bfs_distances_grid64": 1.2269e-05,
    "connected_components_path900": 1.4970e-04,
    "contract_keep_parallel_path900": 8.4155e-04,
    "contract_merged_path900": 9.5443e-04,
    "diameter_grid64": 7.4485e-04,
    "decompose_tree_path400": 2.6393e-04,
    "decompose_tree_path900": 5.9255e-04,
    "akpw_torus81": 9.2411e-04,
    "akpw_weighted_torus64": 1.1083e-03,
    "approximator_build_n12": 1.1606e-02,
}

#: Median-of-N seconds at the PR 1 commit (array-native substrate, but
#: each sample copied its level-0 core and finished every MWU iteration)
#: for the approximator_build_n* rows added
#: in PR 2 — `build_congestion_approximator` at the scales the j-tree
#: recursion actually runs multi-level. Medians (not best-of) because
#: the CI regression gate compares medians.
PR1_BASELINES = {
    "approximator_build_n256": 1.41128e-01,
    "approximator_build_n1024": 5.19323e-01,
    "approximator_build_n4096": 2.434165e00,
}

#: (nodes, edge probability, generator seed, rng seed, reps) per
#: approximator benchmark row — shared with tools/bench_regression.py
#: so the CI gate measures exactly what the baseline records.
APPROXIMATOR_BENCH_CONFIG = {
    "approximator_build_n256": (256, 0.05, 940, 941, 5),
    "approximator_build_n1024": (1024, 0.012, 940, 941, 3),
    "approximator_build_n4096": (4096, 0.003, 940, 941, 3),
}

#: Median-of-N seconds at the PR 2 commit (per-tree operator loop with
#: np.add.at, allocating AlmostRoute inner loop) for the apply-path
#: rows added in PR 3 — R·b / Rᵀ·g products and one AlmostRoute solve
#: at the same instances the build rows use.
PR2_BASELINES = {
    "approximator_apply_n256": 5.5612e-05,
    "approximator_apply_transpose_n256": 6.3878e-05,
    "almost_route_n256": 5.255766e-02,
    "approximator_apply_n1024": 1.440910e-04,
    "approximator_apply_transpose_n1024": 1.5913e-04,
    "almost_route_n1024": 1.363081e-01,
}

#: nodes -> (edge probability, generator seed, build rng seed,
#: data seed, operator reps, route reps) per apply-path benchmark
#: scale — shared with tools/bench_regression.py and
#: benchmarks/test_bench_almost_route.py.
APPLY_BENCH_CONFIG = {
    256: (0.05, 940, 941, 77, 200, 7),
    1024: (0.012, 940, 941, 77, 100, 5),
}

#: nodes -> (edge probability, generator seed, data seed, bfs reps,
#: hop reps, mwu reps) for the construction-kernel rows: medians of
#: frontier BFS, multi-source hop distances and the stacked MWU length
#: evaluation (n + 2m >> SMALL_GRAPH_LIMIT, so the whole-array kernels
#: run).
KERNEL_BENCH_CONFIG = {4096: (0.003, 940, 77, 20, 5, 40)}
#: Source count for the hop_distances_n* rows and row count for the
#: mwu_lengths_n* rows (an O(log n) stack of potential vectors, over
#: which the kernel is elementwise).
KERNEL_BENCH_HOP_SOURCES = 64
KERNEL_BENCH_MWU_SAMPLES = 12
#: AlmostRoute solve parameters for the almost_route_n* rows (a fixed
#: iteration budget keeps the timed workload deterministic).
APPLY_BENCH_ROUTE_EPSILON = 0.5
APPLY_BENCH_ROUTE_MAX_ITERATIONS = 200

#: name -> (nodes, query count, reps) for the serving rows: Q
#: sequential one-shot `almost_route` calls vs one `almost_route_batch`
#: call (itself Q one-shot solves, one per column, on one reused
#: workspace) on the same instance the apply rows use. These are live
#: pairs — both columns measured in one session, plain solver, fixed
#: iteration budget — so the ratio sits near 1 and the row tracks the
#: per-column routing cost trend.
#: The headline serving speedup (accelerated solver, ≥3x at Q=64) lives
#: in BENCH_serving.json instead, since it compares across solvers.
SERVING_BENCH_CONFIG = {
    "route_batch_q8_n1024": (1024, 8, 3),
    "route_batch_q64_n1024": (1024, 64, 3),
}
SERVING_BENCH_EPSILON = 0.5
SERVING_BENCH_MAX_ITERATIONS = 60


def _best_time(fn, reps: int) -> float:
    values = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        values.append(time.perf_counter() - start)
    return min(values)


def _median_time(fn, reps: int) -> float:
    values = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        values.append(time.perf_counter() - start)
    values.sort()
    return values[len(values) // 2]


def measure_approximator_benchmarks() -> dict[str, float]:
    """Median build_congestion_approximator wall-clock per config row
    (also invoked by tools/bench_regression.py for the CI gate)."""
    out = {}
    for name, (n, p, gseed, rseed, reps) in APPROXIMATOR_BENCH_CONFIG.items():
        g = random_connected(n, p, rng=gseed)
        out[name] = _median_time(
            lambda: build_congestion_approximator(g, rng=rseed, alpha=1.0),
            reps,
        )
    return out


def apply_bench_instance(n: int):
    """The (graph, approximator, demand, row_values) tuple every
    apply-path benchmark row is measured on."""
    p, gseed, rseed, dseed, _, _ = APPLY_BENCH_CONFIG[n]
    g = random_connected(n, p, rng=gseed)
    approx = build_congestion_approximator(g, rng=rseed, alpha=1.0)
    rng = np.random.default_rng(dseed)
    demand = rng.normal(size=n)
    demand -= demand.mean()
    row_values = rng.normal(size=approx.num_rows)
    return g, approx, demand, row_values


def measure_apply_benchmarks() -> dict[str, float]:
    """Median R·b / Rᵀ·g product and AlmostRoute-solve wall-clock per
    scale (also invoked by tools/bench_regression.py for the CI gate),
    measured on the flat stacked pass every product runs through.
    """
    out = {}
    for n, (_, _, _, _, op_reps, route_reps) in APPLY_BENCH_CONFIG.items():
        g, approx, demand, row_values = apply_bench_instance(n)
        out[f"approximator_apply_n{n}"] = _median_time(
            lambda: approx.apply(demand), op_reps
        )
        out[f"approximator_apply_transpose_n{n}"] = _median_time(
            lambda: approx.apply_transpose(row_values), op_reps
        )
        out[f"almost_route_n{n}"] = _median_time(
            lambda: almost_route(
                g,
                approx,
                demand,
                APPLY_BENCH_ROUTE_EPSILON,
                max_iterations=APPLY_BENCH_ROUTE_MAX_ITERATIONS,
            ),
            route_reps,
        )
    return out


def measure_kernel_benchmarks() -> dict[str, float]:
    """Median wall-clock of the construction kernels — frontier BFS,
    multi-source hop distances and the stacked MWU length evaluation —
    per scale (also invoked by tools/bench_regression.py for the CI
    gate)."""
    from repro.graphs import kernels
    from repro.jtree.mwu import mwu_lengths

    out = {}
    for n, (p, gseed, dseed, bfs_reps, hop_reps, mwu_reps) in (
        KERNEL_BENCH_CONFIG.items()
    ):
        g = random_connected(n, p, rng=gseed)
        csr = g.csr()
        out[f"bfs_levels_n{n}"] = _median_time(
            lambda: kernels.bfs_levels(csr, 0), bfs_reps
        )
        sources = np.arange(
            0, n, max(1, n // KERNEL_BENCH_HOP_SOURCES), dtype=np.int64
        )[:KERNEL_BENCH_HOP_SOURCES]
        out[f"hop_distances_n{n}"] = _median_time(
            lambda: kernels.multi_source_hop_distances(csr, sources),
            hop_reps,
        )
        caps = g.capacities()
        stack = np.random.default_rng(dseed + 1).uniform(
            0.0, 60.0, size=(KERNEL_BENCH_MWU_SAMPLES, g.num_edges)
        )
        out[f"mwu_lengths_n{n}"] = _median_time(
            lambda: mwu_lengths(stack, caps), mwu_reps
        )
    return out


def measure_serving_benchmarks() -> dict[str, dict[str, float]]:
    """Sequential vs batched medians for the multi-demand routing rows.

    Returns ``name -> {"sequential_s": ..., "batched_s": ...}`` where
    sequential is Q one-shot ``almost_route`` calls and batched is one
    ``almost_route_batch`` call over the same ``(Q, n)`` demand plane —
    Q one-shot solves sharing one workspace (also invoked by
    tools/bench_regression.py for the CI gate). Both run the plain
    solver with a fixed iteration budget on the apply-bench instance.
    """
    from repro.core.almost_route import almost_route_batch

    out: dict[str, dict[str, float]] = {}
    instances: dict[int, tuple] = {}
    for name, (n, num_queries, reps) in SERVING_BENCH_CONFIG.items():
        if n not in instances:
            instances[n] = apply_bench_instance(n)
        g, approx, _, _ = instances[n]
        _, _, _, dseed, _, _ = APPLY_BENCH_CONFIG[n]
        rng = np.random.default_rng(dseed)
        plane = rng.normal(size=(num_queries, n))
        plane -= plane.mean(axis=1, keepdims=True)

        def run_sequential():
            for q in range(num_queries):
                almost_route(
                    g,
                    approx,
                    plane[q],
                    SERVING_BENCH_EPSILON,
                    max_iterations=SERVING_BENCH_MAX_ITERATIONS,
                )

        out[name] = {
            "sequential_s": _median_time(run_sequential, reps),
            "batched_s": _median_time(
                lambda: almost_route_batch(
                    g,
                    approx,
                    plane,
                    SERVING_BENCH_EPSILON,
                    max_iterations=SERVING_BENCH_MAX_ITERATIONS,
                ),
                reps,
            ),
        }
    return out


def _measure_current() -> dict[str, float]:
    from repro.cluster import decompose_tree
    from repro.graphs.trees import bfs_tree
    from repro.lsst import akpw_spanning_tree

    p900 = path(900, rng=975)
    tree400 = bfs_tree(path(400, rng=974), root=0)
    tree900 = bfs_tree(p900, root=0)
    g8 = grid(8, 8, rng=902)
    t99 = torus(9, 9, rng=921)
    gw = weighted_variant(torus(8, 8, rng=923), spread=10_000.0, rng=924)
    weighted_lengths = 1.0 / gw.capacities()
    g12 = random_connected(12, 0.3, rng=931)
    labels = [v % 30 for v in range(p900.num_nodes)]
    return {
        "bfs_distances_path900": _best_time(lambda: p900.bfs_distances(0), 30),
        "bfs_distances_grid64": _best_time(lambda: g8.bfs_distances(0), 30),
        "connected_components_path900": _best_time(
            p900.connected_components, 30
        ),
        "contract_keep_parallel_path900": _best_time(
            lambda: p900.contract(labels, keep_parallel=True), 20
        ),
        "contract_merged_path900": _best_time(
            lambda: p900.contract(labels, keep_parallel=False), 20
        ),
        "diameter_grid64": _best_time(g8.diameter, 5),
        "decompose_tree_path400": _best_time(
            lambda: decompose_tree(tree400, rng=0).num_components, 30
        ),
        "decompose_tree_path900": _best_time(
            lambda: decompose_tree(tree900, rng=1).max_depth, 30
        ),
        "akpw_torus81": _best_time(
            lambda: akpw_spanning_tree(t99, rng=0), 40
        ),
        "akpw_weighted_torus64": _best_time(
            lambda: akpw_spanning_tree(gw, lengths=weighted_lengths, rng=1), 40
        ),
        "approximator_build_n12": _best_time(
            lambda: build_congestion_approximator(
                g12, num_trees=5, rng=935, alpha=1.0
            ),
            5,
        ),
    }


def pytest_sessionfinish(session, exitstatus):
    """Emit BENCH_graphcore.json after a green benchmark session.

    Opt-in via ``BENCH_GRAPHCORE_WRITE=1``: the measurement pass costs
    ~10 s (it includes the n=4096 approximator builds) and rewrites a
    checked-in file, which a casual ``pytest benchmarks -k ...`` run —
    or the CI regression gate's own baseline — must not pay or clobber
    as a side effect.
    """
    if exitstatus != 0:
        return
    if os.environ.get("BENCH_GRAPHCORE_WRITE") != "1":
        return
    try:
        current = _measure_current()
    except Exception:  # measurement must never fail the session
        return
    try:
        approx = measure_approximator_benchmarks()
    except Exception:
        approx = {}
    try:
        apply_rows = measure_apply_benchmarks()
    except Exception:
        apply_rows = {}
    try:
        kernel_rows = measure_kernel_benchmarks()
    except Exception:
        kernel_rows = {}
    try:
        serving_rows = measure_serving_benchmarks()
    except Exception:
        serving_rows = {}
    metrics = {
        name: {
            "before_s": SEED_BASELINES[name],
            "after_s": current[name],
            "speedup": round(SEED_BASELINES[name] / current[name], 2),
        }
        for name in SEED_BASELINES
    }
    for name, measured in approx.items():
        metrics[name] = {
            "before_s": PR1_BASELINES[name],
            "after_s": measured,
            "speedup": round(PR1_BASELINES[name] / measured, 2),
        }
    for name, measured in apply_rows.items():
        metrics[name] = {
            "before_s": PR2_BASELINES[name],
            "after_s": measured,
            "speedup": round(PR2_BASELINES[name] / measured, 2),
        }
    for name, measured in kernel_rows.items():
        # No earlier implementation to compare against: the row is the
        # kernel's own median, which the CI gate tracks.
        metrics[name] = {"after_s": measured}
    for name, pair in serving_rows.items():
        # before = Q sequential one-shot solves, after = one batch call
        # (the same solves on one workspace), both from this session.
        metrics[name] = {
            "before_s": pair["sequential_s"],
            "after_s": pair["batched_s"],
            "speedup": round(pair["sequential_s"] / pair["batched_s"], 2),
        }
    report = {
        "description": (
            "Graph-substrate hot-path timings (seconds). bfs/contract/"
            "decompose/akpw rows: best-of-N, seed commit (pure-Python "
            "adjacency lists) vs current. approximator_build_n{256,1024,"
            "4096} rows: median-of-N, PR 1 (per-sample hierarchy "
            "recursion that copied each level-0 core and finished every "
            "MWU iteration) vs current (the same recursion on a shared "
            "level-0 core, finishing only the sampled MWU iteration, "
            "persistent quotient CSR + int32 indices). "
            "approximator_apply*/almost_route rows: median-of-N, PR 2 "
            "(per-tree operator loop with np.add.at, allocating "
            "AlmostRoute inner loop) vs current (flat stacked operator "
            "+ workspace-buffered AlmostRoute). {bfs_levels,"
            "hop_distances,mwu_lengths}_n4096 rows: median-of-N of the "
            "construction kernel (after_s only; the CI gate tracks it "
            "against itself). "
            "route_batch_q{8,64}_n1024 rows: median-of-N, Q sequential "
            "one-shot plain almost_route solves vs one "
            "almost_route_batch call over the same (Q, n) plane (the "
            "same Q one-shot solves, one per column, on one reused "
            "workspace), fixed 60-iteration budget — "
            "per-column bit-identical by contract, so the ratio sits "
            "near 1 and tracks the per-column routing cost (the gate "
            "tracks the batched column against itself; the "
            "cross-solver serving speedup is recorded in "
            "BENCH_serving.json)."
        ),
        "metrics": metrics,
    }
    out = Path(__file__).resolve().parent.parent / "BENCH_graphcore.json"
    out.write_text(json.dumps(report, indent=2) + "\n")

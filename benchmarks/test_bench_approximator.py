"""E4 — Theorem 8.10 + Lemma 3.3: congestion-approximator quality.

Regenerates the α-quality table: for random and s-t demands, the ratio
opt(b) / ‖Rb‖∞ (≥ 1 by soundness, ≤ α by the sampling argument). Also
compares the three constructions (paper hierarchy, flat Räcke MWU,
naive BFS+MST).
"""

from __future__ import annotations

import numpy as np

from repro.core import build_congestion_approximator
from repro.graphs.cuts import sparsest_cut_brute_force
from repro.graphs.generators import random_connected
from repro.util.validation import st_demand


def _quality_ratios(graph, approx, rng, trials=12):
    """opt / estimate over random demands (brute-force opt)."""
    ratios = []
    for _ in range(trials):
        demand = rng.normal(size=graph.num_nodes)
        demand -= demand.mean()
        _, opt = sparsest_cut_brute_force(graph, demand)
        estimate = approx.estimate(demand)
        if estimate > 0:
            ratios.append(opt / estimate)
    return np.asarray(ratios)


def test_e4_quality_table(benchmark):
    g = random_connected(12, 0.3, rng=931)
    rng = np.random.default_rng(932)
    print("\nE4: opt(b)/|Rb|_inf by construction method (n=12, brute-force opt)")
    results = {}
    for method in ("hierarchy", "mwu", "bfs"):
        approx = build_congestion_approximator(
            g, num_trees=5, rng=933, method=method, alpha=1.0
        )
        ratios = _quality_ratios(g, approx, np.random.default_rng(934))
        results[method] = ratios
        print(
            f"    {method:>9}: mean={ratios.mean():.3f} "
            f"max={ratios.max():.3f} (soundness: min={ratios.min():.3f})"
        )
        # Soundness: estimate never exceeds opt.
        assert ratios.min() >= 1.0 - 1e-9
        # Quality: alpha stays modest at this scale.
        assert ratios.max() < 25.0

    benchmark(
        lambda: build_congestion_approximator(
            g, num_trees=5, rng=935, alpha=1.0
        ).num_rows
    )


def test_e4_st_demand_quality(benchmark, bench_graph, bench_approximator):
    """s-t demands: opt = 1/maxflow exactly; measure the ratio on the
    standard benchmark instance."""
    from repro.flow import dinic_max_flow

    worst = 1.0
    for s, t in [(0, 47), (3, 31), (9, 20)]:
        demand = st_demand(bench_graph, s, t)
        opt = 1.0 / dinic_max_flow(bench_graph, s, t).value
        estimate = bench_approximator.estimate(demand)
        worst = max(worst, opt / estimate)
        assert estimate <= opt + 1e-12
    print(f"\nE4st: worst opt/estimate on s-t demands = {worst:.3f}")
    assert worst <= bench_approximator.alpha * 1.05

    demand = st_demand(bench_graph, 0, 47)
    benchmark(lambda: bench_approximator.estimate(demand))


def test_e4_more_trees_weakly_better(benchmark):
    """Lemma 3.3: more samples can only help the upper bound."""
    g = random_connected(12, 0.3, rng=936)
    rng = np.random.default_rng(937)
    few = build_congestion_approximator(g, num_trees=2, rng=938, alpha=1.0)
    many = build_congestion_approximator(g, num_trees=10, rng=938, alpha=1.0)
    ratios_few = _quality_ratios(g, few, rng)
    ratios_many = _quality_ratios(g, many, np.random.default_rng(937))
    print(
        f"\nE4trees: max ratio 2 trees={ratios_few.max():.3f}, "
        f"10 trees={ratios_many.max():.3f}"
    )
    assert ratios_many.max() <= ratios_few.max() * 1.25
    benchmark(lambda: many.estimate(st_demand(g, 0, 11)))

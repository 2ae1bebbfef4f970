"""E1 — Theorem 1.1: round complexity vs baselines.

Regenerates the headline comparison: estimated CONGEST rounds of the
paper's pipeline (per-lemma charges driven by measured operation
counts) against (a) measured distributed push-relabel rounds and (b)
the trivial O(m) collect-everything bound, on a family of constant-
diameter barbells where the separation is starkest.
"""

from __future__ import annotations

from repro.congest import CostModel, distributed_push_relabel
from repro.core import estimate_rounds, max_flow
from repro.core.approximator import TreeCongestionApproximator
from repro.graphs.generators import barbell
from repro.jtree import sample_virtual_tree
from repro.util.rng import as_generator, spawn


def _pipeline_rounds(graph, source, sink, epsilon=0.5, seed=904):
    rng = as_generator(seed)
    samples = [sample_virtual_tree(graph, rng=r) for r in spawn(rng, 3)]
    approx = TreeCongestionApproximator(
        graph, [s.tree for s in samples], alpha=2.5
    )
    result = max_flow(graph, source, sink, epsilon=epsilon, approximator=approx)
    return estimate_rounds(
        graph, samples, result.congestion_result, epsilon
    )


def test_e1_round_complexity_table(benchmark):
    """Prints the E1 table and asserts the scaling shape: push-relabel
    rounds grow ~n at constant D while the paper's (D + √n) base grows
    ~√n; the trivial bound grows with m."""
    rows = []
    for k in (6, 10, 14):
        g = barbell(k, bridge_capacity=1.0, rng=905, max_capacity=10)
        pr = distributed_push_relabel(g, 0, k)
        model = CostModel.for_graph(g)
        est = _pipeline_rounds(g, 0, k)
        rows.append(
            {
                "n": g.num_nodes,
                "m": g.num_edges,
                "D": g.diameter(),
                "push_relabel_rounds": pr.rounds,
                "trivial_rounds": model.trivial_upper_bound(g.num_edges),
                "base_D_sqrt_n": round(model.base, 1),
                "pipeline_estimate": round(est.total, 0),
                "theorem_bound": round(model.theorem_1_1_bound(0.5), 0),
            }
        )
    print("\nE1: rounds vs baselines (constant-diameter barbells)")
    for row in rows:
        print("   ", row)
    # Shape assertions: PR grows at least ~linearly in n, base ~sqrt n.
    n_growth = rows[-1]["n"] / rows[0]["n"]
    pr_growth = rows[-1]["push_relabel_rounds"] / rows[0]["push_relabel_rounds"]
    base_growth = rows[-1]["base_D_sqrt_n"] / rows[0]["base_D_sqrt_n"]
    assert pr_growth > base_growth
    assert pr_growth > 0.6 * n_growth

    # Benchmark the measured-baseline run on the middle instance.
    g = barbell(10, bridge_capacity=1.0, rng=905, max_capacity=10)
    benchmark(lambda: distributed_push_relabel(g, 0, 10).rounds)


def test_e1_trivial_bound_dominates_base(benchmark, bench_graph):
    """On any dense-enough instance, m exceeds D + √n — the paper's
    point that collecting the topology is wasteful."""
    model = CostModel.for_graph(bench_graph)
    assert model.trivial_upper_bound(bench_graph.num_edges) > model.base
    benchmark(lambda: CostModel.for_graph(bench_graph).base)

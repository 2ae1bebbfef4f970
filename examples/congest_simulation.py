#!/usr/bin/env python3
"""The distributed story: simulate the CONGEST model directly.

Runs the message-level simulator on a low-diameter network: BFS-tree
construction, pipelined aggregation (the D + k lemma), the distributed
push-relabel baseline whose rounds blow up even at D = 3, and the
round estimate for the paper's pipeline on the same instance.

Run:  python examples/congest_simulation.py
"""

from __future__ import annotations

from repro import estimate_rounds, max_flow
from repro.congest import (
    CostModel,
    build_bfs_tree,
    distributed_push_relabel,
    pipelined_aggregate,
)
from repro.core.approximator import TreeCongestionApproximator
from repro.graphs.generators import barbell
from repro.jtree import sample_virtual_tree
from repro.util.rng import as_generator, spawn


def main() -> None:
    network = barbell(10, bridge_capacity=1.0, rng=41, max_capacity=10)
    source, sink = 0, 10
    diameter = network.diameter()
    print(f"network: n={network.num_nodes}, m={network.num_edges}, "
          f"D={diameter}")

    # --- primitives, measured on the simulator ------------------------
    tree, bfs_rounds = build_bfs_tree(network, root=0)
    print(f"\nBFS tree built in {bfs_rounds} rounds "
          f"(bound: D + 2 = {diameter + 2})")

    k = 10
    values = [[1.0] * k for _ in network.nodes()]
    _, pipe_rounds = pipelined_aggregate(network, tree, values)
    print(f"pipelined {k}-aggregation: {pipe_rounds} rounds "
          f"(bound: height + k + 2 = {tree.height() + k + 2})")

    # --- the baseline the paper wants to beat ------------------------
    pr = distributed_push_relabel(network, source, sink)
    print(f"\ndistributed push-relabel: value {pr.value:.0f} in "
          f"{pr.rounds} rounds ({pr.pushes} pushes, {pr.relabels} relabels)")
    model = CostModel.for_graph(network)
    print(f"  vs D + sqrt(n) = {model.base:.1f}: "
          f"{pr.rounds / model.base:.1f}x over the paper's base term")

    # --- the paper's pipeline, with measured round accounting --------
    rng = as_generator(42)
    samples = [sample_virtual_tree(network, rng=r) for r in spawn(rng, 3)]
    approximator = TreeCongestionApproximator(
        network, [s.tree for s in samples], alpha=2.5
    )
    result = max_flow(network, source, sink, epsilon=0.5,
                      approximator=approximator)
    estimate = estimate_rounds(network, samples,
                               result.congestion_result, 0.5)
    print(f"\npaper pipeline: value {result.value:.2f}")
    print(f"  estimated rounds: {estimate.total:,.0f} "
          f"(construction {estimate.construction:,.0f} + "
          f"descent {estimate.descent:,.0f})")
    print(f"  Theorem 1.1 closed form: {estimate.theorem_bound:,.0f}")
    print(f"  trivial O(m) baseline : {estimate.trivial_bound:,.0f}")
    print("\nAt this toy scale the constants dominate; the benchmarks "
          "(benchmarks/test_bench_rounds.py) track the *growth shapes*, "
          "which is where the paper's separation shows.")


if __name__ == "__main__":
    main()

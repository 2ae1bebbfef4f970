"""End-to-end round accounting (Theorem 1.1's shape, Experiment E1).

Combines *measured* operation counts from an actual pipeline run — the
SplitGraph phases inside every sampled virtual tree, the sparsifier
invocations, the gradient-descent iteration count — with the per-lemma
round charges of :class:`repro.congest.cost.CostModel`. The result is
an itemized estimate of the CONGEST rounds the distributed algorithm of
the paper would spend on this instance, which the benchmarks compare
against the measured rounds of distributed push-relabel and the trivial
O(m) collect-at-one-node bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.congest.cost import CostModel
from repro.core.maxflow import ApproxFlow
from repro.graphs.graph import Graph
from repro.jtree.hierarchy import VirtualTree

__all__ = ["RoundEstimate", "estimate_rounds"]


@dataclass
class RoundEstimate:
    """Itemized round estimate for one max-flow computation.

    Attributes:
        total: Total estimated CONGEST rounds.
        construction: Rounds spent building the approximator.
        descent: Rounds spent in gradient descent.
        breakdown: Per-label round totals (from the cost ledger).
        theorem_bound: The closed-form Theorem 1.1 bound for reference.
        trivial_bound: The O(m) collect-everything baseline.
    """

    total: float
    construction: float
    descent: float
    breakdown: dict[str, float]
    theorem_bound: float
    trivial_bound: float


def estimate_rounds(
    graph: Graph,
    samples: list[VirtualTree],
    flow_result: ApproxFlow,
    epsilon: float,
    diameter: int | None = None,
) -> RoundEstimate:
    """Charge the full pipeline to a :class:`CostModel`.

    Args:
        graph: The instance.
        samples: The virtual trees the approximator was built from
            (their ``phases`` / ``sparsifier_rounds`` fields are the
            measured construction effort).
        flow_result: The routed flow (its ``iterations`` and
            ``almost_route_calls`` fields are the measured descent
            effort).
        epsilon: Accuracy used (for the closed-form reference bound).
        diameter: Pass the diameter if already known (it is Θ(n·BFS)
            work to compute exactly).

    Returns:
        A :class:`RoundEstimate`.
    """
    model = (
        CostModel(graph.num_nodes, diameter)
        if diameter is not None
        else CostModel.for_graph(graph)
    )
    # --- construction -------------------------------------------------
    model.bfs_tree()
    for sample in samples:
        # Every SplitGraph phase is one simulated cluster-graph round
        # (Lemma 5.1 charges (D + √n) per simulated round).
        model.lsst(sample.phases)
        if sample.sparsifier_rounds:
            for _ in range(sample.sparsifier_rounds):
                model.sparsifier()
        for _ in range(max(sample.levels, 1)):
            model.tree_flow_aggregation()  # Lemma 8.3
            model.skeleton_construction()  # Lemma 8.8
            model.tree_decomposition()  # Lemma 8.2
    construction = model.ledger.total
    # --- gradient descent (§9.1 cost per step) ------------------------
    # Algorithm 1 runs the accelerated loop: R·b at f and at the
    # look-ahead point, then Rᵀ·g, per iteration.
    model.gradient_step(len(samples), 3, flow_result.iterations)
    # Every round routes its residual over the one spanning tree and
    # convergecasts the fix-up's maximum congestion for the stop test.
    model.mst_and_residual_routing(flow_result.almost_route_calls)
    for _ in range(flow_result.almost_route_calls):
        model.convergecast()
    total = model.ledger.total
    return RoundEstimate(
        total=total,
        construction=construction,
        descent=total - construction,
        breakdown=model.ledger.by_label(),
        theorem_bound=model.theorem_1_1_bound(epsilon),
        trivial_bound=model.trivial_upper_bound(graph.num_edges),
    )

"""The paper's literal max-flow formulation: binary search over F.

Section 3 ("Recall that the problem of approximating a max flow was
translated to minimizing congestion for demands F and −F at s and t and
performing binary search over F"). The scaling shortcut used by
:func:`repro.core.maxflow.max_flow` is equivalent for the s-t case (the
optimal congestion of the unit demand is exactly 1/maxflow); this
module implements the binary search anyway — it is the form that
generalizes to the "undirected cut-based minimization problems" Madry's
sampling argument needs, and it cross-checks the scaling path in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.almost_route import RouteWorkspace
from repro.core.approximator import (
    TreeCongestionApproximator,
    build_congestion_approximator,
)
from repro.core.maxflow import ApproxFlow, min_congestion_flow
from repro.errors import ConvergenceError, InvalidDemandError
from repro.graphs.graph import Graph
from repro.util.rng import as_generator
from repro.util.validation import st_demand

__all__ = ["BinarySearchMaxFlow", "max_flow_binary_search"]


@dataclass
class BinarySearchMaxFlow:
    """Result of the binary-search formulation.

    Attributes:
        value: Largest F whose routing was (1+ε)-feasible, scaled to
            exact feasibility.
        flow: The feasible flow achieving ``value``.
        search_steps: Binary-search iterations performed.
        bracket: Final (low, high) bracket on F.
        final_routing: The :class:`ApproxFlow` of the accepted F.
    """

    value: float
    flow: np.ndarray
    search_steps: int
    bracket: tuple[float, float]
    final_routing: ApproxFlow


def max_flow_binary_search(
    graph: Graph,
    source: int,
    sink: int,
    epsilon: float = 0.25,
    approximator: TreeCongestionApproximator | None = None,
    rng: np.random.Generator | int | None = None,
    tolerance: float = 0.05,
    max_steps: int = 30,
) -> BinarySearchMaxFlow:
    """Approximate max flow by binary search over the demand value F.

    The search brackets the largest F routable with congestion ≤ 1.
    The initial bracket comes from the approximator itself:
    ``1/‖Rb₁‖∞`` upper-bounds maxflow (cut rows are true cuts), and
    that bound divided by the approximator's α lower-bounds it.

    Args:
        graph: Connected capacitated graph.
        source / sink: Terminals.
        epsilon: Accuracy handed to the congestion routing.
        approximator: Optional prebuilt R.
        rng: Randomness for approximator construction.
        tolerance: Relative bracket width at which the search stops.
        max_steps: Hard cap on bisection steps.

    Returns:
        A :class:`BinarySearchMaxFlow`; ``value`` matches the scaling
        method within the bracket tolerance (asserted in tests).
    """
    if source == sink:
        raise InvalidDemandError("source and sink must differ")
    rng = as_generator(rng)
    if approximator is None:
        approximator = build_congestion_approximator(graph, rng=rng)
    # One AlmostRoute workspace serves the entire bisection sweep.
    workspace = RouteWorkspace(graph, approximator)
    unit = st_demand(graph, source, sink, 1.0)
    unit_estimate = approximator.estimate(unit)
    if unit_estimate <= 0:
        raise InvalidDemandError("degenerate instance: zero cut estimate")
    high = 1.0 / unit_estimate  # certified upper bound on maxflow
    low = high / max(approximator.alpha, 1.0) / 2.0

    best_flow: np.ndarray | None = None
    best_value = 0.0
    best_routing: ApproxFlow | None = None
    steps = 0
    while steps < max_steps and (high - low) > tolerance * max(high, 1e-12):
        middle = math.sqrt(low * high) if low > 0 else high / 2.0
        routing = min_congestion_flow(
            graph,
            st_demand(graph, source, sink, middle),
            epsilon=epsilon,
            approximator=approximator,
            rng=rng,
            workspace=workspace,
        )
        steps += 1
        if routing.congestion <= 1.0 + 1e-12:
            # F = middle is routable: feasible as-is.
            low = middle
            best_flow = routing.flow
            best_value = middle
            best_routing = routing
        else:
            # Infeasible at congestion 1; but scaling down by the
            # achieved congestion still yields a feasible witness.
            scaled_value = middle / routing.congestion
            if scaled_value > best_value:
                best_value = scaled_value
                best_flow = routing.flow / routing.congestion
                best_routing = routing
            high = middle
    if best_flow is None:
        # No accepted step: fall back to scaling the last (or a fresh)
        # unit routing.
        routing = min_congestion_flow(
            graph,
            unit,
            epsilon=epsilon,
            approximator=approximator,
            rng=rng,
            workspace=workspace,
        )
        best_value = 1.0 / routing.congestion
        best_flow = routing.flow / routing.congestion
        best_routing = routing
    if best_routing is None:
        raise ConvergenceError(
            "binary search finished without a feasible routing"
        )
    return BinarySearchMaxFlow(
        value=best_value,
        flow=best_flow,
        search_steps=steps,
        bracket=(low, high),
        final_routing=best_routing,
    )

"""Algorithm 1 — the top-level approximate max-flow algorithm.

Pipeline (paper §9, Algorithm 1):

1. call AlmostRoute on the demand with accuracy ε;
2. repeat AlmostRoute on the *residual* demand (with constant accuracy)
   until routing that residual over a maximum-capacity spanning tree
   (Lemma 9.1) costs at most ``ε/64 · ‖Rb‖∞`` congestion, or after at
   most ``ceil(log2 m) + 1`` residual rounds. The residual rounds exist
   only to make that fix-up cheap, so its congestion, measured after
   every round, is the stop certificate;
3. add the fix-up that passed the test — conservation becomes exact;
4. for max flow: run the above on the unit s-t demand and scale the
   result by its own max congestion. By max-flow min-cut, the optimal
   congestion of the unit demand is 1/maxflow, so the scaled value is
   ≥ maxflow/(1 + ε′) where 1 + ε′ is the descent's congestion
   sub-optimality (this replaces the paper's equivalent outer binary
   search over F).

Every AlmostRoute call is the momentum-accelerated loop of footnote 3
(:func:`~repro.core.accelerated.accelerated_almost_route`). Every
returned flow is exactly conserving and exactly feasible
(capacity-respecting). Its ratio to the lower bound ‖Rb‖∞ is measured,
not assumed, so the stop is sound whenever it fires; quality is
measured against the Dinic oracle in tests and benchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.accelerated import accelerated_almost_route
from repro.core.approximator import (
    TreeCongestionApproximator,
    build_congestion_approximator,
)
from repro.errors import InvalidDemandError
from repro.flow.mst import maximum_spanning_tree
from repro.graphs.graph import Graph
from repro.graphs.trees import tree_route_demand
from repro.util.rng import as_generator
from repro.util.validation import check_demand, st_demand

__all__ = ["ApproxFlow", "ApproxMaxFlow", "min_congestion_flow", "max_flow"]


@dataclass
class ApproxFlow:
    """A routed demand with congestion statistics.

    Attributes:
        flow: Signed flow per edge; routes ``demand`` exactly.
        demand: The demand vector that was routed.
        congestion: ``‖C⁻¹f‖_∞`` of the returned flow.
        lower_bound: The approximator's congestion lower bound ‖Rb‖∞
            (any feasible routing of ``demand`` has congestion at least
            this, since every row of R is a true cut of G).
        iterations: Total gradient steps across AlmostRoute calls.
        almost_route_calls: Number of AlmostRoute invocations.
        residual_mass: ℓ1 mass of demand routed via the spanning tree
            in the final fix-up step.
        fixup_congestion: ``‖C⁻¹f‖_∞`` of that spanning-tree fix-up
            alone — the stop certificate; at most
            ``ε/64 · lower_bound`` unless the round cap was reached.
        converged: Whether every AlmostRoute call converged.
    """

    flow: np.ndarray
    demand: np.ndarray
    congestion: float
    lower_bound: float
    iterations: int = 0
    almost_route_calls: int = 0
    residual_mass: float = 0.0
    fixup_congestion: float = 0.0
    converged: bool = True

    @property
    def approximation_ratio_bound(self) -> float:
        """congestion / lower_bound — a certified upper bound on how far
        the flow is from the optimal congestion (≥ 1; finite only when
        the lower bound is positive)."""
        if self.lower_bound <= 0:
            return float("inf") if self.congestion > 0 else 1.0
        return self.congestion / self.lower_bound


@dataclass
class ApproxMaxFlow:
    """Approximate max-flow result.

    Attributes:
        value: Flow value (≥ maxflow / achieved approximation ratio).
        flow: Feasible s-t flow achieving ``value``.
        source / sink: The terminals.
        congestion_result: The underlying min-congestion routing.
        certified_upper_bound: ``value · approximation_ratio_bound`` —
            a certified upper bound on the true max flow derived from
            the approximator's cut rows.
    """

    value: float
    flow: np.ndarray
    source: int
    sink: int
    congestion_result: ApproxFlow
    certified_upper_bound: float = field(default=float("inf"))


def min_congestion_flow(
    graph: Graph,
    demand: np.ndarray,
    epsilon: float = 0.25,
    approximator: TreeCongestionApproximator | None = None,
    rng: np.random.Generator | int | None = None,
    max_iterations: int | None = None,
    initial_flow: np.ndarray | None = None,
) -> ApproxFlow:
    """Route ``demand`` with approximately minimal congestion.

    Runs accelerated AlmostRoute rounds on the demand, then on its
    residual, and stops after the first round whose residual routes
    over the maximum spanning tree at congestion at most
    ``ε/64 · ‖Rb‖∞`` (at most ``ceil(log2 m) + 1`` residual rounds).
    That fix-up completes the flow, so the result routes ``demand``
    exactly whenever the loop stops.

    Args:
        graph: Connected capacitated graph.
        demand: Demand vector (sums to zero).
        epsilon: Accuracy of the first AlmostRoute call; the fix-up may
            spend ``1/64`` of it.
        approximator: Reuse a prebuilt R (recommended when routing many
            demands on one graph); built fresh otherwise.
        rng: Randomness for approximator construction.
        max_iterations: Per-call gradient budget override.
        initial_flow: Optional warm-start seed for the *first*
            AlmostRoute round (a previous epoch's flow for this demand,
            rescaled via :func:`repro.graphs.journal.rescale_flow`);
            residual rounds refine from the achieved residual as usual,
            so the exit guarantees are unchanged.

    Returns:
        An :class:`ApproxFlow` whose flow routes ``demand`` exactly.
    """
    demand = check_demand(graph, demand)
    rng = as_generator(rng)
    if approximator is None:
        approximator = build_congestion_approximator(graph, rng=rng)
    m = graph.num_edges
    residual_rounds = int(math.ceil(math.log2(max(m, 2)))) + 1

    lower_bound = approximator.estimate(demand)
    limit = epsilon / 64.0 * lower_bound
    tree = maximum_spanning_tree(graph)
    total_flow = np.zeros(m)
    iterations = 0
    calls = 0
    converged = True
    residual = demand

    for round_index in range(residual_rounds + 1):
        result = accelerated_almost_route(
            graph,
            approximator,
            residual,
            epsilon if round_index == 0 else 0.5,
            max_iterations=max_iterations,
            initial_flow=initial_flow if round_index == 0 else None,
        )
        total_flow += result.flow
        iterations += result.iterations
        calls += 1
        converged = converged and result.converged
        residual = demand + graph.excess(total_flow)
        fixup = tree_route_demand(graph, tree, residual)
        fixup_congestion = float(graph.congestion(fixup).max(initial=0.0))
        if fixup_congestion <= limit:
            break

    total_flow += fixup
    congestion = float(graph.congestion(total_flow).max(initial=0.0))
    return ApproxFlow(
        flow=total_flow,
        demand=demand,
        congestion=congestion,
        lower_bound=lower_bound,
        iterations=iterations,
        almost_route_calls=calls,
        residual_mass=float(np.abs(residual).sum()),
        fixup_congestion=fixup_congestion,
        converged=converged,
    )


def max_flow(
    graph: Graph,
    source: int,
    sink: int,
    epsilon: float = 0.25,
    approximator: TreeCongestionApproximator | None = None,
    rng: np.random.Generator | int | None = None,
    max_iterations: int | None = None,
) -> ApproxMaxFlow:
    """Compute a (1 + ε′)-approximate maximum s-t flow (Theorem 1.1).

    Args:
        graph: Connected undirected capacitated graph.
        source: Source node s.
        sink: Sink node t (distinct from s).
        epsilon: Accuracy parameter of the congestion minimization.
        approximator: Optional prebuilt congestion approximator.
        rng: Randomness for approximator construction.
        max_iterations: Per-AlmostRoute gradient budget override.

    Returns:
        An :class:`ApproxMaxFlow` whose ``flow`` is exactly feasible and
        conserving for the returned ``value``.

    Raises:
        InvalidDemandError: If source == sink.
    """
    if source == sink:
        raise InvalidDemandError("source and sink must differ")
    graph.require_connected()
    rng = as_generator(rng)
    if approximator is None:
        approximator = build_congestion_approximator(graph, rng=rng)
    demand = st_demand(graph, source, sink, 1.0)
    routed = min_congestion_flow(
        graph,
        demand,
        epsilon=epsilon,
        approximator=approximator,
        rng=rng,
        max_iterations=max_iterations,
    )
    congestion = routed.congestion
    if congestion <= 0:
        raise InvalidDemandError(
            "unit demand routed with zero congestion; graph degenerate"
        )
    # Scaling: the unit-demand routing has congestion ρ; dividing by ρ
    # yields a feasible s-t flow of value 1/ρ. Optimal congestion is
    # exactly 1/maxflow (max-flow min-cut), so value ≥ maxflow / ratio.
    value = 1.0 / congestion
    flow = routed.flow / congestion
    # Certified upper bound from the approximator's cut rows:
    # lower_bound ≤ opt-congestion = 1/maxflow  ⇒  maxflow ≤ 1/lower.
    upper = 1.0 / routed.lower_bound if routed.lower_bound > 0 else float("inf")
    return ApproxMaxFlow(
        value=value,
        flow=flow,
        source=source,
        sink=sink,
        congestion_result=routed,
        certified_upper_bound=upper,
    )

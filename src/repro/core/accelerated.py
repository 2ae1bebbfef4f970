"""Accelerated AlmostRoute (paper footnote 3).

Sherman notes that Nesterov's accelerated gradient method improves the
iteration count of AlmostRoute from O(ε⁻³ α² log² n) to
O(ε⁻² α log² n). This module implements the momentum variant: the
gradient is evaluated at the look-ahead point
``z_k = f_k + (k-1)/(k+2) · (f_k − f_{k-1})`` and the step is applied
from ``z_k``, with the classical restart-on-increase safeguard (momentum
is reset whenever the potential rises, which keeps the method robust on
this non-Euclidean geometry).

This is the loop Algorithm 1 runs: every round of
:func:`repro.core.maxflow.min_congestion_flow` (so also ``max_flow`` and
``max_flow_binary_search``) calls it. The plain loop stays as the
paper's Algorithm 2 reference and ``FlowServer``'s default solver.

The scaled-potential bookkeeping (17/16 re-scalings, kb/kf factors) is
identical to :func:`repro.core.almost_route.almost_route`; benchmarks
compare the two head-to-head (the ablation bench E6a2). Like the plain
variant, the inner loop is allocation free: all per-iteration vectors
live in a reusable :class:`~repro.core.almost_route.RouteWorkspace`
(plus the f/f_prev/z triple, which rotates by buffer swap), products
run through the flat stacked operator with ``out=``, and re-scaling
steps rescale the cached soft-max arguments instead of re-evaluating
the residual and the R product.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.almost_route import (
    MAX_SCALINGS_PER_STEP,
    SCALE_STEP,
    TARGET_FACTOR,
    AlmostRouteResult,
    BatchAlmostRouteResult,
    RouteWorkspace,
    _evaluate,
    _gradient_delta,
    _rescale_cached,
    _route_columns,
    _sign_step,
)
from repro.core.approximator import TreeCongestionApproximator
from repro.errors import ConvergenceError, GraphError
from repro.graphs.graph import Graph
from repro.util.validation import check_demand

__all__ = ["accelerated_almost_route", "accelerated_almost_route_batch"]


def accelerated_almost_route(
    graph: Graph,
    approximator: TreeCongestionApproximator,
    demand: np.ndarray,
    epsilon: float,
    max_iterations: int | None = None,
    raise_on_budget: bool = False,
    workspace: RouteWorkspace | None = None,
    initial_flow: np.ndarray | None = None,
) -> AlmostRouteResult:
    """Momentum-accelerated Algorithm 2.

    Same contract as :func:`repro.core.almost_route.almost_route`
    (including the ``initial_flow=`` warm start — the seed primes both
    the iterate and the momentum anchor ``f_prev``, so the first step
    is plain gradient descent from the seed, zero momentum); on
    well-conditioned instances it converges in noticeably fewer
    iterations (the footnote-3 α²→α improvement shows up as a smaller
    effective step-count constant).
    """
    demand = check_demand(graph, demand)
    n = graph.num_nodes
    m = graph.num_edges
    alpha = max(1.0, float(approximator.alpha))
    eps = float(epsilon)
    if not 0 < eps <= 1:
        raise GraphError(f"epsilon must be in (0, 1], got {epsilon}")
    ln_n = math.log(max(n, 3))
    target = TARGET_FACTOR * ln_n / eps
    if max_iterations is None:
        max_iterations = int(min(300_000, 200 + 40 * alpha * ln_n / eps**2))

    caps = graph.capacities()
    tails, heads = graph.edge_index_arrays()
    norm_rb = approximator.estimate(demand)
    if norm_rb <= 0:
        return AlmostRouteResult(
            flow=np.zeros(m),
            residual=demand.copy(),
            iterations=0,
            scalings=0,
            potential=0.0,
            delta=0.0,
            converged=True,
        )
    ws = RouteWorkspace.ensure(workspace, graph, approximator)
    two_alpha = 2.0 * alpha
    kb = two_alpha * norm_rb / target
    b = demand / kb
    f = ws.flow
    f_prev = ws.flow_prev
    z = ws.lookahead
    if initial_flow is None:
        f[:] = 0.0
    else:
        seed = np.asarray(initial_flow, dtype=float)
        if seed.shape != (m,):
            raise GraphError(
                f"initial_flow has shape {seed.shape}, expected ({m},)"
            )
        np.divide(seed, kb, out=f)
    f_prev[:] = f
    kf = 1.0
    scalings = 0
    iterations = 0
    momentum_age = 0
    last_potential = float("inf")
    potential = 0.0
    delta = float("inf")
    converged = False

    while iterations < max_iterations:
        potential = _evaluate(ws, graph, approximator, caps, two_alpha, b, f)
        inner_guard = 0
        while potential < target and inner_guard < MAX_SCALINGS_PER_STEP:
            np.multiply(f, SCALE_STEP, out=f)
            np.multiply(f_prev, SCALE_STEP, out=f_prev)
            np.multiply(b, SCALE_STEP, out=b)
            kf *= SCALE_STEP
            scalings += 1
            inner_guard += 1
            potential = _rescale_cached(ws)
        # Momentum restart when the potential went up.
        if potential > last_potential:
            momentum_age = 0
            f_prev[:] = f
        last_potential = potential
        beta = momentum_age / (momentum_age + 3.0)
        np.subtract(f, f_prev, out=z)
        np.multiply(z, beta, out=z)
        np.add(z, f, out=z)
        _evaluate(ws, graph, approximator, caps, two_alpha, b, z)
        delta = _gradient_delta(ws, approximator, caps, tails, heads, two_alpha)
        if delta < eps / 4.0:
            converged = True
            break
        _sign_step(ws, caps, delta / (1.0 + 4.0 * alpha**2))
        # f_prev ← f, f ← z − step: rotate the buffer triple so the
        # discarded previous-previous iterate receives the new point.
        np.subtract(z, ws.step, out=f_prev)
        f, f_prev = f_prev, f
        momentum_age += 1
        iterations += 1

    if not converged and raise_on_budget:
        raise ConvergenceError(
            f"accelerated AlmostRoute did not converge in "
            f"{max_iterations} iterations (delta={delta:.3g})"
        )
    unscale = kb / kf
    flow_out = f * unscale
    return AlmostRouteResult(
        flow=flow_out,
        residual=demand + graph.excess(flow_out),
        iterations=iterations,
        scalings=scalings,
        potential=potential,
        delta=delta,
        converged=converged,
    )


def accelerated_almost_route_batch(
    graph: Graph,
    approximator: TreeCongestionApproximator,
    demands: np.ndarray,
    epsilon: float,
    max_iterations: int | None = None,
    raise_on_budget: bool = False,
    workspace: RouteWorkspace | None = None,
    initial_flows: np.ndarray | None = None,
) -> BatchAlmostRouteResult:
    """Momentum-accelerated Algorithm 2 on ``Q`` stacked demands.

    Same contract as
    :func:`repro.core.almost_route.almost_route_batch`: each column is
    its own :func:`accelerated_almost_route` call (one workspace reused
    for every column), so every column matches the one-shot result bit
    for bit.
    """
    return _route_columns(
        accelerated_almost_route,
        graph,
        approximator,
        demands,
        epsilon,
        max_iterations,
        raise_on_budget,
        workspace,
        initial_flows,
    )

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
:func:`repro.core.maxflow.min_congestion_flow` (so also ``max_flow``)
calls it. The plain loop stays as the paper's Algorithm 2 reference and
``FlowServer``'s default solver.

Validation, the line-1 scaling and the final unscale are
:func:`repro.core.almost_route._route`, shared with
:func:`repro.core.almost_route.almost_route`; only the budget and the
iteration below are this loop's own. Benchmarks compare the two
head-to-head
(``benchmarks/test_bench_ablations.py::test_ablation_accelerated_descent``).

Per iteration the loop runs two products with R, as the plain loop
does:

* at the iterate f, ``Graph.excess``, one ``R·b`` for
  ``y(f) = 2α·R(b + Bf)`` and both soft-maxes, values only: the
  potential decides the 17/16 steps and the momentum restart, and
  nothing reads its gradient;
* at the look-ahead z, ``c1 = z/caps``, y(z), both soft-maxes with
  their gradients, and one ``Rᵀ·g`` (:func:`_gradient_delta`). y is
  affine in the iterate, so ``y(z) = y(f) + β(y(f) − y(f_prev))``, and
  the workspace keeps ``y(f_prev)`` beside ``f_prev``: scaled with it
  on every 17/16 step, reset with it on a restart, rotated with it
  after the step. The look-ahead runs no excess and no ``R·b``. In
  the paper's CONGEST terms (§9.1, Corollary 9.3) row (T, v) of y
  lives at the subtree root v, so the combination is local there.

y(f) is recomputed at every iteration, so the combination's rounding
does not accumulate; the accelerated answers differ from a direct
``R·b`` at z by rounding only.

Like the plain variant, the inner loop is allocation free: all
per-iteration vectors live in the call's own
:class:`~repro.core.almost_route.RouteWorkspace` (plus the f/f_prev/z
triple, which rotates by buffer swap), products run through the flat
stacked operator with ``out=``, and re-scaling steps rescale the
cached soft-max arguments instead of re-evaluating the residual and
the R product.
"""

from __future__ import annotations

import numpy as np

from repro.core.almost_route import (
    MAX_SCALINGS_PER_STEP,
    SCALE_STEP,
    AlmostRouteResult,
    BatchAlmostRouteResult,
    RouteWorkspace,
    _Descent,
    _evaluate,
    _gradient_delta,
    _rescale_cached,
    _route,
    _route_columns,
    _sign_step,
)
from repro.core.approximator import TreeCongestionApproximator
from repro.core.softmax import smax_and_gradient
from repro.graphs.graph import Graph
from repro.hotpath import hot_kernel

__all__ = ["accelerated_almost_route", "accelerated_almost_route_batch"]


@hot_kernel
def _evaluate_lookahead(
    ws: RouteWorkspace,
    caps: np.ndarray,
    f: np.ndarray,
    f_prev: np.ndarray,
    z: np.ndarray,
    beta: float,
) -> None:
    """Soft-max gradients at ``z = f + β(f − f_prev)`` into ws.g1/g2.

    ``y(f) = 2α·R(b + Bf)`` is affine in f, so the look-ahead's cut
    loads are ``y(z) = y(f) + β(y(f) − y(f_prev))``, combined from
    ws.y and ws.y_prev into ws.y_lookahead with the same three ops as
    z: no excess and no R product. ws.y is exact at every iteration
    (:func:`~repro.core.almost_route._evaluate`), so the rounding of
    the combination does not accumulate.
    """
    for cur, prev, out in ((f, f_prev, z), (ws.y, ws.y_prev, ws.y_lookahead)):
        np.subtract(cur, prev, out=out)
        np.multiply(out, beta, out=out)
        np.add(out, cur, out=out)
    np.divide(z, caps, out=ws.c1)
    smax_and_gradient(ws.c1, out=ws.g1, scratch=ws.m_scratch)
    smax_and_gradient(ws.y_lookahead, out=ws.g2, scratch=ws.r_scratch)


def accelerated_almost_route(
    graph: Graph,
    approximator: TreeCongestionApproximator,
    demand: np.ndarray,
    epsilon: float,
    max_iterations: int | None = None,
    initial_flow: np.ndarray | None = None,
) -> AlmostRouteResult:
    """Momentum-accelerated Algorithm 2.

    Same contract as :func:`repro.core.almost_route.almost_route`
    (including the ``initial_flow=`` warm start — the seed primes both
    the iterate and the momentum anchor ``f_prev``, so the first step
    is plain gradient descent from the seed, zero momentum); the
    default budget has the O(α ε⁻² log n) shape, and an exhausted
    budget returns ``converged=False``. On well-conditioned instances
    it converges in noticeably fewer iterations (the footnote-3 α²→α
    improvement shows up as a smaller effective step-count constant).
    """

    def descend(
        ws: RouteWorkspace,
        b: np.ndarray,
        alpha: float,
        eps: float,
        ln_n: float,
        target: float,
    ) -> _Descent:
        budget = max_iterations
        if budget is None:
            budget = int(min(300_000, 200 + 40 * alpha * ln_n / eps**2))
        caps = graph.capacities()
        two_alpha = 2.0 * alpha
        f = ws.flow
        f_prev = ws.flow_prev
        z = ws.lookahead
        f_prev[:] = f
        kf = 1.0
        scalings = 0
        iterations = 0
        momentum_age = 0
        last_potential = float("inf")
        potential = 0.0
        delta = float("inf")
        converged = False

        while iterations < budget:
            potential = _evaluate(
                ws, graph, approximator, caps, two_alpha, b, f
            )
            inner_guard = 0
            while potential < target and inner_guard < MAX_SCALINGS_PER_STEP:
                np.multiply(f, SCALE_STEP, out=f)
                np.multiply(f_prev, SCALE_STEP, out=f_prev)
                np.multiply(ws.y_prev, SCALE_STEP, out=ws.y_prev)
                np.multiply(b, SCALE_STEP, out=b)
                kf *= SCALE_STEP
                scalings += 1
                inner_guard += 1
                potential = _rescale_cached(
                    ws, target, last=inner_guard == MAX_SCALINGS_PER_STEP
                )
            # Momentum restart when the potential went up.
            if potential > last_potential:
                momentum_age = 0
                f_prev[:] = f
                ws.y_prev[:] = ws.y
            last_potential = potential
            beta = momentum_age / (momentum_age + 3.0)
            _evaluate_lookahead(ws, caps, f, f_prev, z, beta)
            delta = _gradient_delta(
                ws, approximator, caps, ws.tails, ws.heads, two_alpha
            )
            if delta < eps / 4.0:
                converged = True
                break
            _sign_step(ws, caps, delta / (1.0 + 4.0 * alpha**2))
            # f_prev ← f, f ← z − step: rotate the buffer triple so the
            # discarded previous-previous iterate receives the new point.
            np.subtract(z, ws.step, out=f_prev)
            f, f_prev = f_prev, f
            # y(f) becomes the anchor's y; the next _evaluate writes
            # y at the new iterate over the old anchor's.
            ws.y, ws.y_prev = ws.y_prev, ws.y
            momentum_age += 1
            iterations += 1
        return f, kf, iterations, scalings, potential, delta, converged

    return _route(graph, approximator, demand, epsilon, initial_flow, descend)


def accelerated_almost_route_batch(
    graph: Graph,
    approximator: TreeCongestionApproximator,
    demands: np.ndarray,
    epsilon: float,
    max_iterations: int | None = None,
    initial_flows: np.ndarray | None = None,
) -> BatchAlmostRouteResult:
    """Momentum-accelerated Algorithm 2 on ``Q`` stacked demands.

    Same contract as
    :func:`repro.core.almost_route.almost_route_batch`: each column is
    its own :func:`accelerated_almost_route` call, so every column
    matches the one-shot result bit for bit.
    """
    return _route_columns(
        accelerated_almost_route,
        graph,
        approximator,
        demands,
        epsilon,
        max_iterations,
        initial_flows,
    )

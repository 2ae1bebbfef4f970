"""Algorithm 2 — AlmostRoute, Sherman's scaled gradient descent (§9.1).

Minimizes the potential

    φ(f) = smax(C⁻¹ f) + smax(2α · R · r(f)),   r(f) = b + B f,

where ``r(f)`` is the *residual demand* (the library's convention: a
flow routes b when the net outflow of every node equals b_v, i.e.
``b + Bf = 0`` with ``Bf`` the net-inflow operator).

The demand is pre-scaled so φ starts at Θ(ε⁻¹ log n) and is re-scaled
by 17/16 whenever the potential drops below that sharpness threshold
(Algorithm 2 lines 4–5); each iteration moves every edge by
``cap(e) · δ / (1 + 4α²)`` against the gradient sign, where
``δ = Σ_e cap(e) · |∂φ/∂f_e|``; termination once δ < ε/4.

Gradient structure (paper Eqs. (3)–(4)): the φ₂ part needs one R
product (for y) and one Rᵀ product (for the node potentials π); then
``∂φ₂/∂f_e = 2α (π_head − π_tail)``. Distributedly these are the
convergecast/downcast of Corollary 9.3; here they are one flat stacked
pass over all virtual trees
(:class:`~repro.core.stacked.StackedTreeOperator`). The soft-max
gradients g1 and g2 enter only through that Rᵀ product and the
per-edge combination (:func:`_gradient_delta`), once per iteration, so
every soft-max that only decides whether to rescale computes its value
alone (:func:`_potential`). The plain loop then finishes g1 and g2
from the exponentials its last fully evaluated step left in the pair
scratches (:func:`_finish_gradients`), with the same subtract and
divide :func:`~repro.core.softmax.smax_and_gradient` runs, so its
answers are bit-identical to computing every gradient.

The inner loop is **allocation free**: every per-iteration vector
(residual, y, gradients, sign-step) lives in the call's own
:class:`RouteWorkspace`, built once per AlmostRoute call and never
shared with another call, and every NumPy step writes through
``out=``. The 17/16 re-scaling sub-loop exploits
linearity — ``C⁻¹(sf)`` and ``R(b + Bf)`` both scale by ``s`` — so a
scaling step re-evaluates only the two value-only soft-maxes instead of
paying a full residual + R product evaluation. Most steps skip even
those. Each
exponential a soft-max computes is at most 1, so
``smax(x) ≤ max|x| + ln(2·len(x))``, and the potential is at most
``max|c1| + max|y| + ln(2m) + ln(2·rows)``. While that bound plus 1
(for rounding) is below the target, the step cannot reach it, so the
loop would take the next step whatever the exact potential is; the
step returns the bound and skips both soft-maxes. The step that reaches
the target, and the last step ``MAX_SCALINGS_PER_STEP`` allows, are
always evaluated in full, so every potential, gradient, iteration and
scaling count that leaves the loop is the one a full evaluation of
every step gives, bit for bit.

The accelerated loop (:mod:`repro.core.accelerated`) shares all of it
but the iteration itself: :func:`_route` validates, scales (line 1) and
unscales for both. :func:`almost_route_batch` routes a ``(Q, n)``
demand plane column by column through :func:`almost_route`, so each
column is the one-shot result bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.approximator import TreeCongestionApproximator
from repro.core.softmax import _pair_gradient, _smax_pair
from repro.errors import GraphError
from repro.graphs.csr import WIDE_DTYPE
from repro.graphs.graph import Graph
from repro.hotpath import hot_kernel
from repro.util.validation import check_demand, check_demand_batch

__all__ = [
    "AlmostRouteResult",
    "BatchAlmostRouteResult",
    "RouteWorkspace",
    "almost_route",
    "almost_route_batch",
]

#: Scale-up factor of Algorithm 2 line 5.
SCALE_STEP = 17.0 / 16.0
#: Sharpness target multiplier: φ is kept at >= TARGET_FACTOR·ln(n)/ε.
TARGET_FACTOR = 16.0
#: Hard cap on consecutive 17/16 re-scalings per outer iteration.
MAX_SCALINGS_PER_STEP = 4096
#: A 17/16 step skips its soft-maxes only while its potential bound is
#: below this too: there the bound's +1 slack outweighs every rounding
#: error of the bound and of both soft-maxes (see _rescale_cached).
_SKIP_LIMIT = 2.0**50


def _smax_slack(m: int, rows: int) -> float:
    """``ln(2m) + ln(2·rows) + 1``: the most the two soft-maxes of the
    potential can exceed ``max|c1| + max|y|`` (an empty half counts
    as ``ln 1``)."""
    return math.log(max(2 * m, 1)) + math.log(max(2 * rows, 1)) + 1.0


class RouteWorkspace:
    """Preallocated buffers for the AlmostRoute inner loop.

    One workspace holds the m-, n- and num_rows-shaped vectors of one
    AlmostRoute call on one (graph, approximator) pair. The call builds
    it and reuses it across its own gradient steps; no other call sees
    it, so two calls can never share per-solve state.
    """

    def __init__(
        self, graph: Graph, approximator: TreeCongestionApproximator
    ) -> None:
        m = graph.num_edges
        n = graph.num_nodes
        rows = approximator.num_rows
        # m-shaped
        self.flow = np.empty(m)
        self.flow_prev = np.empty(m)
        self.lookahead = np.empty(m)
        self.c1 = np.empty(m)
        self.g1 = np.empty(m)
        self.grad = np.empty(m)
        self.step = np.empty(m)
        # Edge endpoints as intp copies: np.take converts an int32 index
        # array on every call.
        tails, heads = graph.edge_index_arrays()
        self.tails = tails.astype(WIDE_DTYPE)
        self.heads = heads.astype(WIDE_DTYPE)
        # n-shaped
        self.excess = np.empty(n)
        self.residual = np.empty(n)
        self.pi = np.empty(n)
        # row-shaped: y at the iterate, y at the accelerated loop's
        # momentum anchor, and y at its look-ahead point. The anchor's
        # y is first set when the first step rotates it in; until then
        # β = 0 weights it, and zeros keep that product finite.
        self.y = np.empty(rows)
        self.y_prev = np.zeros(rows)
        self.y_lookahead = np.empty(rows)
        self.g2 = np.empty(rows)
        # Soft-max pair scratches (2×-shaped): both exponential halves
        # of a soft-max live in one contiguous buffer so a single
        # np.exp evaluates them (see repro.core.softmax). After a
        # value-only soft-max they still hold its exponentials, and
        # m_total / r_total their sums, for _finish_gradients.
        self.m_scratch = np.empty(2 * m)
        self.r_scratch = np.empty(2 * rows)
        self.m_total = 0.0
        self.r_total = 0.0
        # The log terms of _rescale_cached's potential bound.
        self.smax_slack = _smax_slack(m, rows)


@hot_kernel
def _potential(ws: RouteWorkspace) -> float:
    """φ at the cached soft-max arguments ws.c1 and ws.y, values only.

    Both soft-maxes leave their exponentials in the pair scratches and
    their sums in ws.m_total / ws.r_total; no gradient is written.
    """
    phi1, ws.m_total = _smax_pair(ws.c1, ws.m_scratch)
    phi2, ws.r_total = _smax_pair(ws.y, ws.r_scratch)
    return phi1 + phi2


@hot_kernel
def _finish_gradients(ws: RouteWorkspace) -> None:
    """ws.g1 and ws.g2 of the last :func:`_potential` call, from the
    exponentials and sums it left in ws: the subtract and divide
    :func:`~repro.core.softmax.smax_and_gradient` ends with."""
    _pair_gradient(ws.m_scratch, ws.m_total, ws.g1)
    _pair_gradient(ws.r_scratch, ws.r_total, ws.g2)


@hot_kernel
def _evaluate(
    ws: RouteWorkspace,
    graph: Graph,
    approximator: TreeCongestionApproximator,
    caps: np.ndarray,
    two_alpha: float,
    b: np.ndarray,
    flow: np.ndarray,
) -> float:
    """Full potential evaluation at ``flow``; fills ws.c1 and ws.y.

    Shared verbatim by :func:`almost_route` and
    :func:`~repro.core.accelerated.accelerated_almost_route` so the two
    solvers can never diverge in fold order. The soft-maxes are
    value-only (:func:`_potential`).
    """
    graph.excess(flow, out=ws.excess)
    np.add(b, ws.excess, out=ws.residual)
    np.divide(flow, caps, out=ws.c1)
    approximator.apply(ws.residual, out=ws.y)
    np.multiply(ws.y, two_alpha, out=ws.y)
    return _potential(ws)


@hot_kernel
def _rescale_cached(ws: RouteWorkspace, target: float, last: bool) -> float:
    """One 17/16 sharpening step on the cached soft-max arguments.

    Both potential halves are linear in (f, b) — ``C⁻¹(sf)`` and
    ``R(s·(b + Bf))`` scale by s — so a scaling step only rescales the
    cached arguments and re-runs the two value-only soft-maxes: no
    residual recomputation, no R product. Returns the new potential.

    Unless this is the ``last`` step the loop allows, the soft-maxes
    are skipped when ``max|c1| + max|y| + ln(2m) + ln(2·rows) + 1``
    is below ``target`` (and below ``_SKIP_LIMIT``), and that bound is
    returned instead. Every exponential a soft-max computes
    is at most 1, so each soft-max is at most its ``max|·|`` plus
    ln(2·length), and the +1 covers rounding: the exact potential is
    below ``target`` too, and the loop would have taken the next step
    anyway. So the loop only ever stops on a fully evaluated step,
    with the same potential, gradients and counts as without the skip.
    """
    np.multiply(ws.c1, SCALE_STEP, out=ws.c1)
    np.multiply(ws.y, SCALE_STEP, out=ws.y)
    if not last:
        bound = (
            max(ws.c1.max(initial=0.0), -ws.c1.min(initial=0.0))
            + max(ws.y.max(initial=0.0), -ws.y.min(initial=0.0))
            + ws.smax_slack
        )
        if bound < target and bound < _SKIP_LIMIT:
            return float(bound)
    return _potential(ws)


@hot_kernel
def _gradient_delta(
    ws: RouteWorkspace,
    approximator: TreeCongestionApproximator,
    caps: np.ndarray,
    tails: np.ndarray,
    heads: np.ndarray,
    two_alpha: float,
) -> float:
    """Gradient (Eqs. (3)–(4)) into ws.grad; returns δ = Σ cap·|grad|.

    ``grad = g1/caps + 2α(π_head − π_tail)``. mode="clip": endpoint
    indices are in-bounds by construction, so take can skip its
    per-element bounds check.
    """
    approximator.apply_transpose(ws.g2, out=ws.pi)
    np.take(ws.pi, heads, out=ws.grad, mode="clip")
    np.take(ws.pi, tails, out=ws.step, mode="clip")
    np.subtract(ws.grad, ws.step, out=ws.grad)
    np.multiply(ws.grad, two_alpha, out=ws.grad)
    np.divide(ws.g1, caps, out=ws.step)
    np.add(ws.step, ws.grad, out=ws.grad)
    np.abs(ws.grad, out=ws.step)
    np.multiply(ws.step, caps, out=ws.step)
    return float(ws.step.sum())


@hot_kernel
def _sign_step(ws: RouteWorkspace, caps: np.ndarray, scale: float) -> None:
    """Fill ws.step with the movement ``sign(grad)·cap·scale``."""
    np.sign(ws.grad, out=ws.step)
    np.multiply(ws.step, caps, out=ws.step)
    np.multiply(ws.step, scale, out=ws.step)


@dataclass
class AlmostRouteResult:
    """Outcome of one AlmostRoute call.

    Attributes:
        flow: Flow for the *original* (unscaled) demand.
        residual: Remaining demand ``b + B f`` (original scale).
        iterations: Gradient steps taken.
        scalings: 17/16 re-scalings performed.
        potential: Final potential value (scaled problem).
        delta: Final gradient norm δ.
        converged: Whether δ < ε/4 was reached within the budget.
    """

    flow: np.ndarray
    residual: np.ndarray
    iterations: int
    scalings: int
    potential: float
    delta: float
    converged: bool


#: What a descent loop hands back to :func:`_route`: the scaled flow,
#: the accumulated 17/16 factor kf, iterations, scalings, the final
#: potential and δ, and whether δ < ε/4 was reached.
_Descent = tuple[np.ndarray, float, int, int, float, float, bool]


def _route(
    graph: Graph,
    approximator: TreeCongestionApproximator,
    demand: np.ndarray,
    epsilon: float,
    initial_flow: np.ndarray | None,
    descend: Callable[..., _Descent],
) -> AlmostRouteResult:
    """Run one AlmostRoute loop: all of it but its budget and iteration.

    Validates, sets the sharpness target, returns early for a demand R
    cannot see (‖Rb‖∞ = 0), builds the call's :class:`RouteWorkspace`,
    scales the demand and the warm-start seed into ``ws.flow`` (line
    1), calls ``descend(ws, b, α, ε, ln n, target)``, then unscales its
    flow and adds the residual.
    """
    demand = check_demand(graph, demand)
    m = graph.num_edges
    alpha = max(1.0, float(approximator.alpha))
    eps = float(epsilon)
    if not 0 < eps <= 1:
        raise GraphError(f"epsilon must be in (0, 1], got {epsilon}")
    ln_n = math.log(max(graph.num_nodes, 3))
    target = TARGET_FACTOR * ln_n / eps

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
    ws = RouteWorkspace(graph, approximator)
    # Line 1: scale so that 2α‖Rb‖∞ = target.
    kb = 2.0 * alpha * norm_rb / target
    b = demand / kb
    if initial_flow is None:
        ws.flow[:] = 0.0
    else:
        seed = np.asarray(initial_flow, dtype=float)
        if seed.shape != (m,):
            raise GraphError(
                f"initial_flow has shape {seed.shape}, expected ({m},)"
            )
        np.divide(seed, kb, out=ws.flow)
    f, kf, iterations, scalings, potential, delta, converged = descend(
        ws, b, alpha, eps, ln_n, target
    )
    flow_out = f * (kb / kf)
    return AlmostRouteResult(
        flow=flow_out,
        residual=demand + graph.excess(flow_out),
        iterations=iterations,
        scalings=scalings,
        potential=potential,
        delta=delta,
        converged=converged,
    )


def almost_route(
    graph: Graph,
    approximator: TreeCongestionApproximator,
    demand: np.ndarray,
    epsilon: float,
    max_iterations: int | None = None,
    initial_flow: np.ndarray | None = None,
) -> AlmostRouteResult:
    """Run Algorithm 2.

    Args:
        graph: The capacitated graph.
        approximator: The congestion approximator R (with its α).
        demand: Demand vector b (must sum to zero).
        epsilon: Target accuracy ε of the potential minimization.
        max_iterations: Gradient-step budget; defaults to the theory's
            O(α² ε⁻³ log n) shape with a pragmatic constant. An
            exhausted budget returns the last iterate with
            ``converged=False``.
        initial_flow: Optional warm-start seed in *original* (unscaled)
            units — typically a previous epoch's flow for the same
            demand, rescaled to the current capacities via
            :func:`repro.graphs.journal.rescale_flow`. The descent
            starts from this point instead of zero; every exit bound
            (the δ < ε/4 certificate and the soft capacity potential)
            is checked on the iterate itself, so the result satisfies
            exactly the guarantees of a cold start — a good seed only
            shortens the path there.

    Returns:
        An :class:`AlmostRouteResult`. ``flow`` is *not* necessarily
        feasible (soft capacity constraint); Algorithm 1 rescales.
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
            budget = int(min(300_000, 200 + 40 * alpha**2 * ln_n / eps**3))
        caps = graph.capacities()
        two_alpha = 2.0 * alpha
        f = ws.flow
        kf = 1.0
        scalings = 0
        iterations = 0
        potential = 0.0
        delta = float("inf")
        converged = False

        while iterations < budget:
            potential = _evaluate(
                ws, graph, approximator, caps, two_alpha, b, f
            )
            # Lines 4–5: keep the soft-max sharp (linearity: only the
            # cached soft-max arguments are rescaled; _rescale_cached).
            inner_guard = 0
            while potential < target and inner_guard < MAX_SCALINGS_PER_STEP:
                np.multiply(f, SCALE_STEP, out=f)
                np.multiply(b, SCALE_STEP, out=b)
                kf *= SCALE_STEP
                scalings += 1
                inner_guard += 1
                potential = _rescale_cached(
                    ws, target, last=inner_guard == MAX_SCALINGS_PER_STEP
                )
            # The sub-loop leaves on a fully evaluated step, whose
            # gradients are finished here.
            _finish_gradients(ws)
            delta = _gradient_delta(
                ws, approximator, caps, ws.tails, ws.heads, two_alpha
            )
            if delta < eps / 4.0:
                converged = True
                break
            _sign_step(ws, caps, delta / (1.0 + 4.0 * alpha**2))
            np.subtract(f, ws.step, out=f)
            iterations += 1
        return f, kf, iterations, scalings, potential, delta, converged

    return _route(graph, approximator, demand, epsilon, initial_flow, descend)


@dataclass
class BatchAlmostRouteResult:
    """Outcome of one batched AlmostRoute call over ``Q`` demands.

    Column ``q`` holds the :class:`AlmostRouteResult` of the one-shot
    :func:`almost_route` call on demand ``q`` — the batch solvers route
    column by column through that call, so every column is the
    one-shot result bit for bit (golden-tested in
    ``tests/test_batch_route.py``).

    Attributes:
        flows: ``(Q, m)`` flows for the original (unscaled) demands.
        residuals: ``(Q, n)`` remaining demands ``b_q + B f_q``.
        iterations: ``(Q,)`` gradient steps per query.
        scalings: ``(Q,)`` 17/16 re-scalings per query.
        potentials: ``(Q,)`` final potential values (scaled problem).
        deltas: ``(Q,)`` final gradient norms δ.
        converged: ``(Q,)`` whether δ < ε/4 was reached per query.
    """

    flows: np.ndarray
    residuals: np.ndarray
    iterations: np.ndarray
    scalings: np.ndarray
    potentials: np.ndarray
    deltas: np.ndarray
    converged: np.ndarray

    @property
    def num_queries(self) -> int:
        return self.flows.shape[0]

    def query(self, q: int) -> AlmostRouteResult:
        """Extract query ``q`` as an independent one-shot result
        (arrays are copied, so the extracted result outlives the
        batch's planes)."""
        return AlmostRouteResult(
            flow=self.flows[q].copy(),
            residual=self.residuals[q].copy(),
            iterations=int(self.iterations[q]),
            scalings=int(self.scalings[q]),
            potential=float(self.potentials[q]),
            delta=float(self.deltas[q]),
            converged=bool(self.converged[q]),
        )


def _route_columns(
    solver: Callable[..., AlmostRouteResult],
    graph: Graph,
    approximator: TreeCongestionApproximator,
    demands: np.ndarray,
    epsilon: float,
    max_iterations: int | None,
    initial_flows: np.ndarray | None,
) -> BatchAlmostRouteResult:
    """Route each row of ``demands`` with the one-shot ``solver`` and
    stack the columns (shared by both batch solvers)."""
    demands = check_demand_batch(graph, demands)
    num_queries = demands.shape[0]
    n = graph.num_nodes
    m = graph.num_edges
    seeds = None
    if initial_flows is not None:
        seeds = np.asarray(initial_flows, dtype=float)
        if seeds.shape != (num_queries, m):
            raise GraphError(
                f"initial_flows has shape {seeds.shape}, expected "
                f"({num_queries}, {m})"
            )
    results = [
        solver(
            graph,
            approximator,
            demands[q],
            epsilon,
            max_iterations=max_iterations,
            initial_flow=None if seeds is None else seeds[q],
        )
        for q in range(num_queries)
    ]
    flows = np.empty((num_queries, m))
    residuals = np.empty((num_queries, n))
    for q, result in enumerate(results):
        flows[q] = result.flow
        residuals[q] = result.residual
    return BatchAlmostRouteResult(
        flows=flows,
        residuals=residuals,
        iterations=np.array(
            [r.iterations for r in results], dtype=WIDE_DTYPE
        ),
        scalings=np.array([r.scalings for r in results], dtype=WIDE_DTYPE),
        potentials=np.array([r.potential for r in results], dtype=float),
        deltas=np.array([r.delta for r in results], dtype=float),
        converged=np.array([r.converged for r in results], dtype=bool),
    )


def almost_route_batch(
    graph: Graph,
    approximator: TreeCongestionApproximator,
    demands: np.ndarray,
    epsilon: float,
    max_iterations: int | None = None,
    initial_flows: np.ndarray | None = None,
) -> BatchAlmostRouteResult:
    """Run Algorithm 2 on ``Q`` stacked demands, one column at a time.

    Each column is its own :func:`almost_route` call, so column ``q``
    is the one-shot result for ``demands[q]`` bit for bit. (A descent
    over stacked ``(Q, ·)`` planes was no faster on a 2-vCPU host —
    converged columns keep paying for full-plane work; ROADMAP
    direction 2(b) has the numbers.)

    Args:
        graph: The capacitated graph.
        approximator: The congestion approximator R (with its α).
        demands: ``(Q, n)`` plane of demand vectors (each sums to zero;
            the first offending row is named).
        epsilon: Target accuracy ε (shared by the batch).
        max_iterations: Per-query gradient-step budget (shared); a
            column that exhausts it has ``converged[q] = False``.
        initial_flows: Optional ``(Q, m)`` plane of warm-start seeds in
            original units; row ``q`` is column ``q``'s
            ``initial_flow`` (see :func:`almost_route`).

    Returns:
        A :class:`BatchAlmostRouteResult` with one column per query.
    """
    return _route_columns(
        almost_route,
        graph,
        approximator,
        demands,
        epsilon,
        max_iterations,
        initial_flows,
    )

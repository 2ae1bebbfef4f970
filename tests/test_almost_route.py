"""Tests for AlmostRoute (Algorithm 2) including a finite-difference
verification of the potential gradient (paper Eqs. (3)–(4))."""

from __future__ import annotations

import importlib
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.accelerated import accelerated_almost_route
from repro.core.almost_route import (
    TARGET_FACTOR,
    _rescale_cached,
    _smax_slack,
    almost_route,
)
from repro.core.approximator import build_congestion_approximator
from repro.core.softmax import smax, smax_and_gradient
from repro.errors import GraphError
from repro.graphs.generators import random_connected
from repro.util.validation import st_demand


@pytest.fixture(scope="module")
def setup():
    g = random_connected(16, 0.25, rng=111)
    approx = build_congestion_approximator(g, rng=112)
    return g, approx


def potential(graph, approx, flow, demand):
    residual = demand + graph.excess(flow)
    phi1 = smax(flow / graph.capacities())
    phi2 = smax(2.0 * approx.alpha * approx.apply(residual))
    return phi1 + phi2


class TestGradient:
    def test_gradient_matches_finite_differences(self, setup):
        """The π-based gradient equals the numeric gradient of φ."""
        g, approx = setup
        rng = np.random.default_rng(1)
        flow = rng.normal(size=g.num_edges) * 0.3
        demand = st_demand(g, 0, 15, 2.0)
        caps = g.capacities()
        tails, heads = g.edge_index_arrays()

        from repro.core.softmax import smax_and_gradient

        residual = demand + g.excess(flow)
        _, g1 = smax_and_gradient(flow / caps)
        y = 2.0 * approx.alpha * approx.apply(residual)
        _, g2 = smax_and_gradient(y)
        pi = approx.apply_transpose(g2)
        grad = g1 / caps + 2.0 * approx.alpha * (pi[heads] - pi[tails])

        h = 1e-6
        base = potential(g, approx, flow, demand)
        for eid in range(0, g.num_edges, max(1, g.num_edges // 10)):
            bump = flow.copy()
            bump[eid] += h
            numeric = (potential(g, approx, bump, demand) - base) / h
            assert grad[eid] == pytest.approx(numeric, abs=5e-4)


class TestAlmostRoute:
    def test_zero_demand_returns_zero_flow(self, setup):
        g, approx = setup
        result = almost_route(g, approx, np.zeros(g.num_nodes), 0.5)
        assert result.converged
        np.testing.assert_allclose(result.flow, 0.0)

    def test_routes_most_of_the_demand(self, setup):
        g, approx = setup
        demand = st_demand(g, 0, 15, 1.0)
        result = almost_route(g, approx, demand, 0.3)
        assert result.converged
        # Residual much smaller than the demand.
        assert np.abs(result.residual).max() < 0.5

    def test_residual_consistency(self, setup):
        g, approx = setup
        demand = st_demand(g, 0, 15, 1.0)
        result = almost_route(g, approx, demand, 0.5)
        np.testing.assert_allclose(
            result.residual, demand + g.excess(result.flow), atol=1e-9
        )

    def test_congestion_near_optimal(self, setup):
        """Routed congestion ≤ (1 + ~ε) opt after rescaling to exact
        feasibility via Algorithm 1's machinery is tested in
        test_maxflow_core; here we check the raw descent respects the
        approximator's lower bound within a modest factor."""
        g, approx = setup
        demand = st_demand(g, 0, 15, 1.0)
        result = almost_route(g, approx, demand, 0.2)
        lower = approx.estimate(demand)
        routed_fraction = 1.0 - np.abs(result.residual).max()
        congestion = float(np.abs(result.flow / g.capacities()).max())
        assert congestion <= 3.0 * approx.alpha * lower + 1e-9
        assert routed_fraction > 0.5

    def test_invalid_epsilon_rejected(self, setup):
        g, approx = setup
        with pytest.raises(GraphError):
            almost_route(g, approx, st_demand(g, 0, 15), epsilon=0.0)

    def test_parallel_option_rejected(self, setup):
        """Routing runs on the calling thread: there is no per-call
        execution config to pass."""
        g, approx = setup
        with pytest.raises(TypeError):
            almost_route(
                g,
                approx,
                st_demand(g, 0, 15),
                0.5,
                parallel=2,
            )

    def test_budget_exhaustion_flagged(self, setup):
        g, approx = setup
        demand = st_demand(g, 0, 15, 1.0)
        result = almost_route(g, approx, demand, 0.2, max_iterations=3)
        assert not result.converged

    def test_iterations_increase_with_accuracy(self, setup):
        g, approx = setup
        demand = st_demand(g, 0, 15, 1.0)
        loose = almost_route(g, approx, demand, 0.9)
        tight = almost_route(g, approx, demand, 0.25)
        assert tight.iterations >= loose.iterations

    def test_scalings_reported(self, setup):
        g, approx = setup
        demand = st_demand(g, 0, 15, 1.0)
        result = almost_route(g, approx, demand, 0.5)
        assert result.scalings >= 0
        assert result.potential > 0


# ----------------------------------------------------------------------
# 17/16 steps that skip their soft-maxes
# ----------------------------------------------------------------------
def _rescale_state(c1, y):
    """A workspace holding only what ``_rescale_cached`` reads and
    writes."""
    return SimpleNamespace(
        c1=c1.copy(),
        y=y.copy(),
        g1=np.empty_like(c1),
        g2=np.empty_like(y),
        m_scratch=np.empty(2 * c1.size),
        r_scratch=np.empty(2 * y.size),
        smax_slack=_smax_slack(c1.size, y.size),
    )


@st.composite
def soft_max_arguments(draw):
    """A c1- or y-like vector: length 0 to 24, entries up to ±60 times a
    scale of 0 (all zero), 1, 1e12 or 1e300 (large magnitude)."""
    size = draw(st.integers(0, 24))
    scale = draw(st.sampled_from([0.0, 1.0, 1e12, 1e300]))
    base = draw(
        st.lists(st.floats(-60.0, 60.0), min_size=size, max_size=size)
    )
    return np.array(base, dtype=float) * scale


class TestRescaleSkip:
    @settings(max_examples=300, deadline=None)
    @given(
        c1=soft_max_arguments(),
        y=soft_max_arguments(),
        target=st.one_of(st.floats(1.0, 1e4), st.floats(1e4, 1e300)),
    )
    @example(c1=np.zeros(5), y=np.zeros(7), target=100.0)
    @example(c1=np.zeros(0), y=np.full(3, 2.0), target=100.0)
    @example(c1=np.full(4, 1e300), y=np.full(2, -1e300), target=1e300)
    def test_skipped_step_bounds_the_potential(self, c1, y, target):
        """A step either returns the soft-maxes' potential exactly, or
        a value below target that is at least that potential, so the
        loop takes the next step whichever one it sees."""
        skipping = _rescale_state(c1, y)
        full = _rescale_state(c1, y)
        got = _rescale_cached(skipping, target, last=False)
        exact = _rescale_cached(full, target, last=True)
        assert np.array_equal(skipping.c1, full.c1)
        assert np.array_equal(skipping.y, full.y)
        assert got == exact or exact <= got < target

    @pytest.mark.parametrize(
        "solver", [almost_route, accelerated_almost_route]
    )
    def test_last_allowed_step_is_evaluated_in_full(
        self, setup, monkeypatch, solver
    ):
        """With 3 steps allowed, a warm start whose bound stays below
        target leaves the sub-loop on the guard. Its first two steps
        skip their soft-maxes and the third is evaluated in full, so
        the potential and the step taken from its gradients match a
        run that skips nothing, bit for bit. Every soft-max counts: the
        value-only ones of the evaluation and the 17/16 steps, and the
        accelerated look-ahead's."""
        g, approx = setup
        eps = 0.3
        demand = st_demand(g, 0, 15, 1.0)
        seed = solver(g, approx, demand, eps).flow
        modules = [
            importlib.import_module("repro.core.almost_route"),
            importlib.import_module("repro.core.accelerated"),
        ]
        for module in modules:
            monkeypatch.setattr(module, "MAX_SCALINGS_PER_STEP", 3)
        calls = []
        for module, name in (
            (modules[0], "_smax_pair"),
            (modules[1], "smax_and_gradient"),
        ):

            def counted(*args, _original=getattr(module, name), **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        def run():
            del calls[:]
            result = solver(
                g, approx, demand, eps, max_iterations=1, initial_flow=seed
            )
            return result, len(calls)

        skipping, skipping_calls = run()
        monkeypatch.setattr(modules[0], "_SKIP_LIMIT", -math.inf)
        full, full_calls = run()
        target = TARGET_FACTOR * math.log(g.num_nodes) / eps
        assert full.scalings == skipping.scalings == 3
        assert full.potential < target
        assert skipping_calls == full_calls - 4
        assert skipping.potential == full.potential
        assert skipping.delta == full.delta
        assert np.array_equal(skipping.flow, full.flow)


# ----------------------------------------------------------------------
# Value-only soft-maxes
# ----------------------------------------------------------------------
class TestValueOnlySoftmax:
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_plain_loop_matches_gradients_at_every_softmax(
        self, setup, monkeypatch, warm
    ):
        """The plain loop computes soft-max values only and finishes the
        gradients from the pair buffers of its last fully evaluated
        step. That is, bit for bit, a run in which every soft-max
        computes its gradient with ``smax_and_gradient``."""
        g, approx = setup
        eps = 0.3
        demand = st_demand(g, 0, 15, 1.0)
        seed = 0.7 * almost_route(g, approx, demand, eps).flow if warm else None
        value_only = almost_route(g, approx, demand, eps, initial_flow=seed)
        module = importlib.import_module("repro.core.almost_route")

        def potential_with_gradients(ws):
            phi1, _ = smax_and_gradient(ws.c1, out=ws.g1, scratch=ws.m_scratch)
            phi2, _ = smax_and_gradient(ws.y, out=ws.g2, scratch=ws.r_scratch)
            return phi1 + phi2

        monkeypatch.setattr(module, "_potential", potential_with_gradients)
        monkeypatch.setattr(module, "_finish_gradients", lambda ws: None)
        full = almost_route(g, approx, demand, eps, initial_flow=seed)
        assert value_only.scalings > 0
        assert (value_only.iterations, value_only.scalings) == (
            full.iterations,
            full.scalings,
        )
        assert value_only.potential == full.potential
        assert value_only.delta == full.delta
        assert np.array_equal(value_only.flow, full.flow)

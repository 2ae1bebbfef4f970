"""Tests for AlmostRoute (Algorithm 2) including a finite-difference
verification of the potential gradient (paper Eqs. (3)–(4))."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.almost_route import almost_route
from repro.core.approximator import build_congestion_approximator
from repro.core.softmax import smax
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

"""Tests for the accelerated AlmostRoute (paper footnote 3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import accelerated_almost_route, build_congestion_approximator
from repro.core.almost_route import almost_route
from repro.errors import GraphError
from repro.graphs.generators import random_connected
from repro.util.validation import st_demand


@pytest.fixture(scope="module")
def setup():
    g = random_connected(20, 0.2, rng=401)
    approx = build_congestion_approximator(g, rng=402)
    return g, approx


class TestAccelerated:
    def test_routes_demand(self, setup):
        g, approx = setup
        demand = st_demand(g, 0, 19)
        result = accelerated_almost_route(g, approx, demand, 0.4)
        assert result.converged
        assert np.abs(result.residual).max() < 0.5

    def test_zero_demand(self, setup):
        g, approx = setup
        result = accelerated_almost_route(
            g, approx, np.zeros(g.num_nodes), 0.5
        )
        np.testing.assert_allclose(result.flow, 0.0)

    def test_fewer_iterations_than_plain(self, setup):
        """The footnote-3 speedup: momentum should not be slower, and
        is usually meaningfully faster at tight epsilon."""
        g, approx = setup
        demand = st_demand(g, 0, 19)
        plain = almost_route(g, approx, demand, 0.2)
        fast = accelerated_almost_route(g, approx, demand, 0.2)
        assert fast.converged
        assert fast.iterations <= plain.iterations * 1.1

    def test_residual_consistency(self, setup):
        g, approx = setup
        demand = st_demand(g, 0, 19, 3.0)
        result = accelerated_almost_route(g, approx, demand, 0.5)
        np.testing.assert_allclose(
            result.residual, demand + g.excess(result.flow), atol=1e-9
        )

    def test_invalid_epsilon(self, setup):
        g, approx = setup
        with pytest.raises(GraphError):
            accelerated_almost_route(g, approx, st_demand(g, 0, 19), 2.0)

    def test_budget_flagged(self, setup):
        g, approx = setup
        result = accelerated_almost_route(
            g, approx, st_demand(g, 0, 19), 0.2, max_iterations=2
        )
        assert not result.converged

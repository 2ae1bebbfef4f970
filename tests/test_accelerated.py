"""Tests for the accelerated AlmostRoute (paper footnote 3)."""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.core import accelerated_almost_route, build_congestion_approximator
from repro.core.almost_route import almost_route
from repro.errors import GraphError
from repro.graphs.generators import random_connected
from repro.graphs.graph import Graph
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


def _seed(g, approx, demand, warm):
    """None for a cold start; for a warm one, a cold flow at 70%, whose
    potential starts below target, so the first step rescales."""
    if not warm:
        return None
    return 0.7 * accelerated_almost_route(g, approx, demand, 0.2).flow


class TestLookaheadByLinearity:
    """The look-ahead's cut loads are ``y(f) + β(y(f) − y(f_prev))``:
    no excess and no R product at the look-ahead point."""

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_combined_loads_match_a_direct_product(
        self, setup, monkeypatch, warm
    ):
        """At every iteration, through 17/16 steps and momentum
        restarts, the combined y(z) is a direct ``2α·R(b + Bz)`` up to
        rounding: y(f) is recomputed every iteration, so the
        combination's error cannot accumulate."""
        g, approx = setup
        demand = st_demand(g, 0, 19)
        seed = _seed(g, approx, demand, warm)
        module = importlib.import_module("repro.core.accelerated")
        evaluate, lookahead = module._evaluate, module._evaluate_lookahead
        seen = {}
        gaps = []
        betas = []

        def spy_evaluate(ws, graph, approximator, caps, two_alpha, b, flow):
            # b is scaled in place by every 17/16 step: keep the array.
            seen.update(b=b, two_alpha=two_alpha)
            return evaluate(ws, graph, approximator, caps, two_alpha, b, flow)

        def spy_lookahead(ws, caps, f, f_prev, z, beta):
            lookahead(ws, caps, f, f_prev, z, beta)
            direct = seen["two_alpha"] * approx.apply(seen["b"] + g.excess(z))
            gaps.append(
                np.abs(ws.y_lookahead - direct).max() / np.abs(direct).max()
            )
            betas.append(beta)

        monkeypatch.setattr(module, "_evaluate", spy_evaluate)
        monkeypatch.setattr(module, "_evaluate_lookahead", spy_lookahead)
        result = accelerated_almost_route(
            g, approx, demand, 0.2, initial_flow=seed
        )
        assert result.converged
        assert result.scalings > 0
        # β = 0 after the first iteration: a momentum restart.
        assert betas[0] == 0.0 and 0.0 in betas[1:]
        assert len(gaps) == result.iterations + 1
        assert max(gaps) <= 1e-12

    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_one_excess_and_one_product_per_iteration(
        self, setup, monkeypatch, warm
    ):
        """Only the evaluation at the iterate runs ``Graph.excess`` and
        R·b, so a call runs each at most iterations + 3 times (the
        final evaluation and the residual of the result are extra)."""
        g, approx = setup
        demand = st_demand(g, 0, 19)
        seed = _seed(g, approx, demand, warm)
        counts = {"excess": 0, "apply": 0}
        for cls, name in ((Graph, "excess"), (type(approx), "apply")):

            def counted(self, *args, _original=getattr(cls, name),
                        _name=name, **kwargs):
                counts[_name] += 1
                return _original(self, *args, **kwargs)

            monkeypatch.setattr(cls, name, counted)
        result = accelerated_almost_route(
            g, approx, demand, 0.2, initial_flow=seed
        )
        assert result.iterations >= 10
        assert counts["excess"] <= result.iterations + 3
        assert counts["apply"] <= result.iterations + 3

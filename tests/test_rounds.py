"""Tests for the end-to-end round estimation (Theorem 1.1 shape)."""

from __future__ import annotations

import pytest

from repro.congest import CostModel
from repro.core import (
    build_congestion_approximator,
    estimate_rounds,
    max_flow,
)
from repro.core.approximator import TreeCongestionApproximator, TreeOperator
from repro.graphs.generators import random_connected
from repro.jtree import sample_virtual_tree
from repro.util.rng import as_generator, spawn


@pytest.fixture(scope="module")
def pipeline_run():
    g = random_connected(36, 0.12, rng=121)
    rng = as_generator(122)
    samples = [sample_virtual_tree(g, rng=r) for r in spawn(rng, 3)]
    approx = TreeCongestionApproximator(
        g, [TreeOperator(s.tree) for s in samples], alpha=2.5
    )
    result = max_flow(g, 0, 35, epsilon=0.5, approximator=approx)
    return g, samples, result


class TestEstimate:
    def test_total_is_sum_of_parts(self, pipeline_run):
        g, samples, result = pipeline_run
        est = estimate_rounds(g, samples, result.congestion_result, 0.5)
        assert est.total == pytest.approx(est.construction + est.descent)

    def test_breakdown_covers_all_stages(self, pipeline_run):
        g, samples, result = pipeline_run
        est = estimate_rounds(g, samples, result.congestion_result, 0.5)
        for label in (
            "bfs_tree",
            "low_stretch_spanning_tree",
            "tree_flow_aggregation",
            "skeleton",
            "gradient_step",
            "mst_residual_routing",
        ):
            assert label in est.breakdown

    def test_descent_scales_with_iterations(self, pipeline_run):
        g, samples, result = pipeline_run
        est = estimate_rounds(g, samples, result.congestion_result, 0.5)
        assert est.descent > 0
        per_iter = est.breakdown["gradient_step"] / max(
            result.congestion_result.iterations, 1
        )
        assert per_iter > 0

    def test_gradient_step_charges_three_products(self, pipeline_run):
        """An accelerated iteration does R·b at f, R·b at the look-ahead
        point and Rᵀ·g: three products per sampled tree, plus 4D."""
        g, samples, result = pipeline_run
        diameter = g.diameter()
        routed = result.congestion_result
        est = estimate_rounds(g, samples, routed, 0.5, diameter=diameter)
        model = CostModel(g.num_nodes, diameter)
        three_products = (
            3 * len(samples) * model.base * model.log_n + 4 * diameter
        )
        per_iter = est.breakdown["gradient_step"] / routed.iterations
        assert per_iter == pytest.approx(three_products)
        assert model.gradient_step(len(samples), 3) == pytest.approx(
            three_products
        )

    def test_fixup_charged_once_per_round(self, pipeline_run):
        g, samples, result = pipeline_run
        diameter = g.diameter()
        rounds = result.congestion_result.almost_route_calls
        est = estimate_rounds(
            g, samples, result.congestion_result, 0.5, diameter=diameter
        )
        model = CostModel(g.num_nodes, diameter)
        route = model.base * model.log_n
        assert est.breakdown["mst_residual_routing"] == pytest.approx(
            (1 + rounds) * route
        )
        assert est.breakdown["convergecast"] == pytest.approx(
            rounds * (diameter + 1)
        )

    def test_reference_bounds_present(self, pipeline_run):
        g, samples, result = pipeline_run
        est = estimate_rounds(g, samples, result.congestion_result, 0.5)
        assert est.theorem_bound > 0
        assert est.trivial_bound >= g.num_edges

    def test_diameter_override(self, pipeline_run):
        g, samples, result = pipeline_run
        a = estimate_rounds(g, samples, result.congestion_result, 0.5)
        b = estimate_rounds(
            g, samples, result.congestion_result, 0.5, diameter=g.diameter()
        )
        assert a.total == pytest.approx(b.total)

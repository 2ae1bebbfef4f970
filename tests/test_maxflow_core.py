"""End-to-end tests for Algorithm 1: min-congestion routing and
(1+ε)-approximate max flow, graded against the Dinic oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core import (
    accelerated_almost_route,
    build_congestion_approximator,
    max_flow,
    min_congestion_flow,
)
from repro.errors import InvalidDemandError
from repro.flow import dinic_max_flow
from repro.flow.mst import maximum_spanning_tree
from repro.graphs.generators import (
    barbell,
    grid,
    random_connected,
)
from repro.graphs.graph import Graph
from repro.graphs.trees import tree_route_demand
from repro.util.validation import (
    check_feasible_flow,
    check_flow_conservation,
    st_demand,
)


class TestMinCongestionFlow:
    def test_routes_demand_exactly(self, small_graph, small_approximator):
        rng = np.random.default_rng(1)
        demand = rng.normal(size=small_graph.num_nodes)
        demand -= demand.mean()
        result = min_congestion_flow(
            small_graph, demand, epsilon=0.5, approximator=small_approximator
        )
        check_flow_conservation(small_graph, result.flow, demand)

    def test_congestion_respects_lower_bound(self, small_graph, small_approximator):
        demand = st_demand(small_graph, 0, 10, 5.0)
        result = min_congestion_flow(
            small_graph, demand, epsilon=0.5, approximator=small_approximator
        )
        assert result.congestion >= result.lower_bound - 1e-9
        assert result.approximation_ratio_bound >= 1.0

    def test_congestion_near_lower_bound(self, small_graph, small_approximator):
        demand = st_demand(small_graph, 0, 10, 1.0)
        result = min_congestion_flow(
            small_graph, demand, epsilon=0.25, approximator=small_approximator
        )
        # opt is within [lower, α·lower]; the descent should land well
        # inside that window.
        assert result.congestion <= small_approximator.alpha * result.lower_bound * 1.5

    def test_zero_demand_zero_flow(self, small_graph, small_approximator):
        result = min_congestion_flow(
            small_graph,
            np.zeros(small_graph.num_nodes),
            approximator=small_approximator,
        )
        np.testing.assert_allclose(result.flow, 0.0)
        assert result.congestion == 0.0
        assert result.fixup_congestion == 0.0

    def test_demand_validation(self, small_graph, small_approximator):
        with pytest.raises(InvalidDemandError):
            min_congestion_flow(
                small_graph,
                np.ones(small_graph.num_nodes),
                approximator=small_approximator,
            )

    def test_stats_populated(self, small_graph, small_approximator):
        demand = st_demand(small_graph, 0, 10, 1.0)
        result = min_congestion_flow(
            small_graph, demand, epsilon=0.5, approximator=small_approximator
        )
        assert result.iterations > 0
        assert result.almost_route_calls >= 1
        assert result.converged


class TestStopCertificate:
    """Algorithm 1 stops once the spanning-tree fix-up of the residual
    costs at most ε/64 of the lower bound."""

    EPSILON = 0.25

    @pytest.fixture(scope="class")
    def instance(self):
        graph = random_connected(80, 0.08, rng=11)
        return graph, build_congestion_approximator(graph, rng=12)

    @staticmethod
    def _demand(graph, kind):
        if kind == "st":
            return st_demand(graph, 0, graph.num_nodes - 1, 1.0)
        demand = np.random.default_rng(11).normal(size=graph.num_nodes)
        return demand - demand.mean()

    @staticmethod
    def _all_rounds_ratio(graph, approximator, demand, epsilon):
        """Every round the cap allows, then the tree fix-up."""
        rounds = math.ceil(math.log2(graph.num_edges)) + 2
        flow = np.zeros(graph.num_edges)
        residual = demand
        for index in range(rounds):
            flow += accelerated_almost_route(
                graph, approximator, residual, epsilon if index == 0 else 0.5
            ).flow
            residual = demand + graph.excess(flow)
        flow += tree_route_demand(graph, maximum_spanning_tree(graph), residual)
        return graph.congestion(flow).max() / approximator.estimate(demand)

    @pytest.mark.parametrize("kind", ["st", "dense"])
    def test_stops_after_two_rounds_at_the_all_rounds_ratio(self, instance, kind):
        graph, approximator = instance
        assert graph.num_edges > 300
        demand = self._demand(graph, kind)
        result = min_congestion_flow(
            graph, demand, epsilon=self.EPSILON, approximator=approximator
        )
        check_flow_conservation(graph, result.flow, demand)
        assert result.almost_route_calls == 2
        assert result.fixup_congestion <= self.EPSILON / 64 * result.lower_bound
        reference = self._all_rounds_ratio(
            graph, approximator, demand, self.EPSILON
        )
        assert result.approximation_ratio_bound == pytest.approx(
            reference, rel=1e-3
        )

    def test_residual_rounds_option_removed(self, small_graph, small_approximator):
        with pytest.raises(TypeError):
            min_congestion_flow(
                small_graph,
                st_demand(small_graph, 0, 10, 1.0),
                approximator=small_approximator,
                residual_rounds=3,
            )


class TestMaxFlow:
    def test_value_within_epsilon_of_optimal(self, small_graph, small_approximator):
        exact = dinic_max_flow(small_graph, 0, 12).value
        result = max_flow(
            small_graph, 0, 12, epsilon=0.25, approximator=small_approximator
        )
        assert result.value >= exact / 1.35
        assert result.value <= exact + 1e-6

    def test_flow_is_exactly_feasible(self, small_graph, small_approximator):
        result = max_flow(
            small_graph, 0, 12, epsilon=0.5, approximator=small_approximator
        )
        check_feasible_flow(
            small_graph,
            result.flow,
            st_demand(small_graph, 0, 12, result.value),
        )

    def test_certified_upper_bound_valid(self, small_graph, small_approximator):
        exact = dinic_max_flow(small_graph, 0, 12).value
        result = max_flow(
            small_graph, 0, 12, epsilon=0.5, approximator=small_approximator
        )
        assert result.certified_upper_bound >= exact - 1e-6

    def test_barbell_finds_bottleneck(self, barbell_graph):
        approx = build_congestion_approximator(barbell_graph, rng=5)
        result = max_flow(barbell_graph, 0, 8, epsilon=0.3, approximator=approx)
        assert result.value == pytest.approx(2.0, rel=0.3)
        assert result.value <= 2.0 + 1e-6

    def test_grid_quality(self, grid_graph, grid_approximator):
        exact = dinic_max_flow(grid_graph, 0, 63).value
        result = max_flow(
            grid_graph, 0, 63, epsilon=0.5, approximator=grid_approximator
        )
        assert result.value >= exact / 1.5

    def test_same_terminals_rejected(self, small_graph, small_approximator):
        with pytest.raises(InvalidDemandError):
            max_flow(small_graph, 3, 3, approximator=small_approximator)

    def test_two_node_graph(self):
        g = Graph(2, [(0, 1, 5.0)])
        approx = build_congestion_approximator(g, num_trees=2, rng=7)
        result = max_flow(g, 0, 1, epsilon=0.3, approximator=approx)
        assert result.value == pytest.approx(5.0, rel=0.05)

    def test_value_never_exceeds_exact(self):
        """Feasibility implies value ≤ maxflow — always."""
        for seed in range(3):
            g = random_connected(14, 0.25, rng=seed)
            approx = build_congestion_approximator(g, rng=seed + 50)
            result = max_flow(g, 0, 13, epsilon=0.5, approximator=approx)
            exact = dinic_max_flow(g, 0, 13).value
            assert result.value <= exact * (1 + 1e-9)

    def test_smaller_epsilon_no_worse(self, small_graph, small_approximator):
        loose = max_flow(
            small_graph, 0, 12, epsilon=0.8, approximator=small_approximator
        )
        tight = max_flow(
            small_graph, 0, 12, epsilon=0.2, approximator=small_approximator
        )
        assert tight.value >= loose.value * 0.95


class TestEndToEndFamilies:
    """Quality matrix across generator families (Experiment E2 slice)."""

    @pytest.mark.parametrize(
        "make,s,t",
        [
            (lambda: grid(6, 6, rng=61), 0, 35),
            (lambda: barbell(6, bridge_capacity=4.0, rng=62), 0, 6),
            (lambda: random_connected(30, 0.12, rng=63), 0, 29),
        ],
        ids=["grid", "barbell", "random"],
    )
    def test_family_quality(self, make, s, t):
        g = make()
        approx = build_congestion_approximator(g, rng=64)
        result = max_flow(g, s, t, epsilon=0.4, approximator=approx)
        exact = dinic_max_flow(g, s, t).value
        assert result.value >= exact / 1.5
        check_feasible_flow(g, result.flow, st_demand(g, s, t, result.value))

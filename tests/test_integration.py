"""Cross-module integration tests: the full pipelines the paper
composes, exercised end to end."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import ClusterGraph
from repro.core import (
    build_congestion_approximator,
    estimate_rounds,
    max_flow,
    min_congestion_flow,
)
from repro.congest import CostModel, distributed_push_relabel
from repro.flow import dinic_max_flow
from repro.graphs.generators import (
    grid,
    random_connected,
    random_regular_expander,
    weighted_variant,
)
from repro.jtree import HierarchyParams, sample_virtual_tree
from repro.util.rng import as_generator, spawn
from repro.util.validation import check_feasible_flow, st_demand


class TestApproximateVsExactVsDistributed:
    """Three independent computations of the same max flow."""

    def test_three_way_agreement(self):
        g = random_connected(18, 0.2, rng=131)
        exact = dinic_max_flow(g, 0, 17).value
        distributed = distributed_push_relabel(g, 0, 17).value
        approx = max_flow(
            g,
            0,
            17,
            epsilon=0.3,
            approximator=build_congestion_approximator(g, rng=132),
        ).value
        assert distributed == pytest.approx(exact, rel=1e-6)
        assert exact / 1.4 <= approx <= exact * (1 + 1e-9)


class TestHierarchyFeedsApproximatorFeedsDescent:
    """Theorem 8.10 sampling -> Lemma 3.3 stack -> Algorithm 1/2."""

    def test_full_paper_pipeline(self):
        g = grid(6, 6, rng=133)
        rng = as_generator(134)
        params = HierarchyParams(beta=3, trees_per_level=2)
        samples = [
            sample_virtual_tree(g, rng=r, params=params)
            for r in spawn(rng, 4)
        ]
        from repro.core.approximator import (
            TreeCongestionApproximator,
            estimate_alpha_st,
        )

        approx = TreeCongestionApproximator(
            g, [s.tree for s in samples], alpha=1.0
        )
        approx.alpha = estimate_alpha_st(g, approx, rng=rng)
        result = max_flow(g, 0, 35, epsilon=0.4, approximator=approx)
        exact = dinic_max_flow(g, 0, 35).value
        assert result.value >= exact / 1.5
        est = estimate_rounds(g, samples, result.congestion_result, 0.4)
        assert est.total > 0
        # The trivial O(m) bound must exceed the base (D + sqrt n) term,
        # and the estimate must itemize construction and descent.
        assert est.breakdown["gradient_step"] > 0

    def test_cluster_graph_invariants_along_hierarchy(self):
        """Re-run the hierarchy level by level, validating Definition
        5.1 at every step (the paper's invariants 1-4 of Section 4)."""
        g = random_connected(40, 0.1, rng=135)
        cg = ClusterGraph.trivial(g)
        cg.validate()
        from repro.jtree.mwu import build_jtree_distribution
        from repro.graphs.graph import Graph

        rng = as_generator(136)
        for _ in range(3):
            if cg.num_clusters <= 4:
                break
            j = max(1, cg.num_clusters // 8)
            dist = build_jtree_distribution(cg.quotient, j, 2, rng=rng)
            step = dist.sample(rng)
            new_quotient = Graph(step.num_components)
            new_origin = []
            for ce in step.core_edges:
                new_quotient.add_edge(
                    ce.component_u, ce.component_v, ce.capacity
                )
                new_origin.append(cg.edge_origin[ce.quotient_edge])
            cg = cg.merge_along_forest(
                step.forest_parent,
                step.forest_edge,
                new_quotient,
                new_origin,
                step.component_of,
            )
            cg.validate()  # Definition 5.1 holds at every level


class TestWeightedCapacities:
    """Footnote 1: large capacity ratios (log C factor)."""

    def test_high_spread_capacities(self):
        base = grid(5, 5, rng=137)
        g = weighted_variant(base, spread=10_000.0, rng=138)
        approx = build_congestion_approximator(g, rng=139)
        result = max_flow(g, 0, 24, epsilon=0.5, approximator=approx)
        exact = dinic_max_flow(g, 0, 24).value
        assert result.value >= exact / 2.0
        check_feasible_flow(
            g, result.flow, st_demand(g, 0, 24, result.value)
        )


class TestMultiDemandReuse:
    """One approximator, many demands (the intended usage pattern)."""

    def test_reuse_across_terminal_pairs(self):
        g = random_regular_expander(30, rng=140)
        approx = build_congestion_approximator(g, rng=141)
        for s, t in [(0, 29), (5, 20), (11, 3)]:
            result = max_flow(g, s, t, epsilon=0.5, approximator=approx)
            exact = dinic_max_flow(g, s, t).value
            assert result.value >= exact / 1.6

    def test_multi_source_demand(self):
        g = random_connected(24, 0.15, rng=142)
        approx = build_congestion_approximator(g, rng=143)
        demand = np.zeros(24)
        demand[[0, 1, 2]] = 2.0
        demand[[21, 22, 23]] = -2.0
        result = min_congestion_flow(
            g, demand, epsilon=0.4, approximator=approx
        )
        from repro.util.validation import check_flow_conservation

        check_flow_conservation(g, result.flow, demand)
        assert result.congestion >= result.lower_bound - 1e-9


class TestRoundComplexityShape:
    """E1's qualitative claim on a small sweep."""

    def test_estimate_grows_slower_than_push_relabel(self):
        ns, ours, theirs = [], [], []
        for k in (6, 10, 14):
            from repro.graphs.generators import barbell

            g = barbell(k, bridge_capacity=1.0, rng=144, max_capacity=10)
            ns.append(g.num_nodes)
            theirs.append(distributed_push_relabel(g, 0, k).rounds)
            model = CostModel.for_graph(g)
            ours.append(model.base)
        # Push-relabel rounds grow ~n; the (D + sqrt n) base grows ~sqrt n.
        pr_growth = theirs[-1] / theirs[0]
        base_growth = ours[-1] / ours[0]
        assert pr_growth > base_growth

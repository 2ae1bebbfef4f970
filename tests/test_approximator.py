"""Tests for the tree congestion approximator R (§§3, 9.2)."""

from __future__ import annotations

import copy
import hashlib
import pickle

import numpy as np
import pytest

from parallel_harness import tree_multigraph
from repro.core.almost_route import almost_route
from repro.core.approximator import (
    TreeCongestionApproximator,
    build_congestion_approximator,
    estimate_alpha_st,
    racke_sample_trees,
)
from repro.errors import GraphError
from repro.flow import dinic_max_flow
from repro.graphs.cuts import sparsest_cut_brute_force
from repro.graphs.generators import barbell, grid, random_connected
from repro.graphs.graph import Graph
from repro.graphs.trees import RootedTree, bfs_tree, induced_cut_capacities
from repro.util.validation import st_demand


def _one_tree(graph, tree) -> TreeCongestionApproximator:
    """R restricted to one tree: its rows are that tree's cuts."""
    cuts = induced_cut_capacities(graph, tree)
    return TreeCongestionApproximator(
        graph, [RootedTree(tree.parent, cuts)], alpha=1.0
    )


class TestTreeOperator:
    """The row block of one tree, as a one-tree approximator."""

    def _operator(self, graph) -> TreeCongestionApproximator:
        return _one_tree(graph, bfs_tree(graph, root=0))

    def test_row_count(self, small_graph):
        op = self._operator(small_graph)
        assert op.num_rows == small_graph.num_nodes - 1

    def test_subtree_sums_match_naive(self, small_graph):
        """Row v times its cut is the sum over T_v, found here by
        walking every node up to the root."""
        op = self._operator(small_graph)
        (tree,) = op.trees()
        rng = np.random.default_rng(1)
        values = rng.normal(size=small_graph.num_nodes)
        naive = np.zeros(small_graph.num_nodes)
        for v in range(small_graph.num_nodes):
            for ancestor in tree.path_to_root(v):
                naive[ancestor] += values[v]
        rows = np.flatnonzero(np.asarray(tree.parent) >= 0)
        np.testing.assert_allclose(
            op.apply(values) * tree.capacity[rows], naive[rows]
        )

    def test_apply_is_signed_congestion(self):
        g = Graph(3, [(0, 1, 2.0), (1, 2, 4.0)])
        op = _one_tree(g, RootedTree([-1, 0, 1]))
        y = op.apply(np.array([1.0, 0.0, -1.0]))
        # rows ordered by child node: node1 (subtree {1,2} sum -1, cut 2),
        # node2 (subtree {2} sum -1, cut 4).
        np.testing.assert_allclose(y, [-0.5, -0.25])

    def test_transpose_is_adjoint(self, small_graph):
        """<R b, y> == <b, Rᵀ y> — the defining identity."""
        op = self._operator(small_graph)
        rng = np.random.default_rng(2)
        b = rng.normal(size=small_graph.num_nodes)
        y = rng.normal(size=op.num_rows)
        lhs = float(op.apply(b) @ y)
        rhs = float(b @ op.apply_transpose(y))
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_zero_capacity_cut_rejected(self):
        t = RootedTree([-1, 0], capacity=[0.0, 0.0])
        with pytest.raises(GraphError):
            TreeCongestionApproximator(Graph(2, [(0, 1, 1.0)]), [t], alpha=1.0)


class TestTinyCuts:
    @pytest.mark.parametrize(
        "clique, capacity, bridge",
        [(20, 1e4, 1e-8), (12, 1e8, 1e-6)],
        ids=["cliques1e4-bridge1e-8", "cliques1e8-bridge1e-6"],
    )
    def test_barbell_bridge_row_is_exact(self, clique, capacity, bridge):
        """A bridge cut far below the capacity around it keeps its
        digits: ‖Rb‖∞ equals opt for the unit demand across it."""
        g = barbell(
            clique, bridge_capacity=bridge, rng=1, max_capacity=capacity
        )
        approx = build_congestion_approximator(g, rng=1, alpha=1.0)
        t = 2 * clique - 1
        min_cut = dinic_max_flow(g, 0, t).value
        ratio = approx.estimate(st_demand(g, 0, t)) * min_cut
        assert ratio == pytest.approx(1.0, rel=1e-9)


CLONES = pytest.mark.parametrize(
    "clone",
    [copy.deepcopy, lambda a: pickle.loads(pickle.dumps(a))],
    ids=["deepcopy", "pickle"],
)


class TestCopies:
    @staticmethod
    def _check_copy(clone, refreshed):
        g = random_connected(40, 0.2, rng=3)
        approx = build_congestion_approximator(g, rng=1)
        if refreshed:
            approx.refresh_capacities()
        twin = clone(approx)
        rng = np.random.default_rng(4)
        b = rng.normal(size=g.num_nodes)
        b -= b.mean()
        y = rng.normal(size=approx.num_rows)
        rb = approx.apply(b)
        assert np.array_equal(twin.apply(b), rb)
        assert np.array_equal(
            twin.apply_transpose(y), approx.apply_transpose(y)
        )
        assert twin.estimate(b) == approx.estimate(b)
        ours = almost_route(g, approx, b, 0.5)
        theirs = almost_route(twin.graph, twin, b, 0.5)
        assert np.array_equal(theirs.flow, ours.flow)
        twin.graph.set_capacity(0, 2 * g.capacity(0))
        twin.refresh_capacities()
        assert np.array_equal(approx.apply(b), rb)
        for tree in twin.trees():
            fresh = induced_cut_capacities(twin.graph, tree)
            assert np.array_equal(tree.capacity, fresh)
        for tree in approx.trees():
            assert np.array_equal(tree.capacity, induced_cut_capacities(g, tree))

    @CLONES
    def test_copy_answers_bit_for_bit(self, clone):
        """A deep-copied or pickled approximator keeps the planes its
        products index, so every product and a solve match the
        original, and a refresh of the copy leaves the original be."""
        self._check_copy(clone, refreshed=False)

    @CLONES
    def test_copy_with_edge_lcas_answers_bit_for_bit(self, clone):
        """Cloned after a refresh has cached its edge LCAs, the copy
        carries its own cache: it answers bit for bit, its next
        refresh is exact, and that refresh leaves the original be."""
        self._check_copy(clone, refreshed=True)


class TestApproximator:
    def test_apply_concatenates_blocks(self, small_graph, small_approximator):
        b = st_demand(small_graph, 0, 5)
        y = small_approximator.apply(b)
        assert y.shape == (small_approximator.num_rows,)
        assert small_approximator.num_rows == small_approximator.num_trees * (
            small_graph.num_nodes - 1
        )

    def test_adjoint_identity_full(self, small_graph, small_approximator):
        rng = np.random.default_rng(3)
        b = rng.normal(size=small_graph.num_nodes)
        y = rng.normal(size=small_approximator.num_rows)
        lhs = float(small_approximator.apply(b) @ y)
        rhs = float(b @ small_approximator.apply_transpose(y))
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_estimate_zero_for_zero_demand(self, small_graph, small_approximator):
        assert small_approximator.estimate(np.zeros(small_graph.num_nodes)) == 0.0

    def test_lower_bound_soundness_brute_force(self):
        """‖Rb‖∞ ≤ opt(b) for every demand — the unconditional half of
        the congestion-approximator property."""
        g = random_connected(10, 0.35, rng=91)
        approx = build_congestion_approximator(g, rng=92)
        rng = np.random.default_rng(93)
        for _ in range(15):
            b = rng.normal(size=10)
            b -= b.mean()
            _, opt = sparsest_cut_brute_force(g, b)
            assert approx.estimate(b) <= opt + 1e-9

    def test_upper_bound_alpha_on_st_demands(self):
        """opt(b) ≤ α‖Rb‖∞ for s-t demands with the estimated α."""
        g = random_connected(16, 0.25, rng=94)
        approx = build_congestion_approximator(g, rng=95)
        for s, t in [(0, 15), (3, 9), (7, 12)]:
            b = st_demand(g, s, t)
            opt = 1.0 / dinic_max_flow(g, s, t).value
            assert opt <= approx.alpha * approx.estimate(b) * 1.05

    def test_methods_produce_trees(self, small_graph):
        for method, expected_min in [("hierarchy", 2), ("mwu", 2), ("bfs", 2)]:
            approx = build_congestion_approximator(
                small_graph, num_trees=3, rng=96, method=method
            )
            assert approx.num_trees >= expected_min
            assert approx.method == method

    def test_unknown_method_rejected(self, small_graph):
        with pytest.raises(GraphError):
            build_congestion_approximator(small_graph, method="magic")

    @pytest.mark.parametrize("num_trees", [0, -1])
    def test_no_trees_rejected(self, small_graph, num_trees):
        """An R with no rows would report every demand as routed."""
        with pytest.raises(GraphError):
            build_congestion_approximator(
                small_graph, num_trees=num_trees, rng=1, alpha=1.0
            )
        with pytest.raises(GraphError):
            TreeCongestionApproximator(small_graph, [], alpha=1.0)

    def test_explicit_alpha_respected(self, small_graph):
        approx = build_congestion_approximator(
            small_graph, num_trees=2, rng=97, alpha=7.5
        )
        assert approx.alpha == 7.5

    def test_racke_trees_are_spanning(self, small_graph):
        trees = racke_sample_trees(small_graph, 3, rng=98)
        assert len(trees) == 3
        for t in trees:
            assert t.num_nodes == small_graph.num_nodes

    def test_mwu_trees_on_multigraph_match_golden(self):
        """The flat MWU sampler's trees on a multigraph, pinned: each
        round's length update reads the tree edges' relative loads, so
        a wrong pick among parallel edges moves every later tree. Only
        the parent arrays (little-endian int64) are hashed."""
        g = tree_multigraph(64, 112)
        approx = build_congestion_approximator(
            g, num_trees=4, rng=12, method="mwu"
        )
        digest = hashlib.sha256()
        for tree in approx.trees():
            digest.update(np.asarray(tree.parent, dtype="<i8").tobytes())
        assert approx.num_trees == 4
        assert digest.hexdigest()[:16] == "e59d84247bed2463"

    def test_alpha_estimate_at_least_safety(self, small_graph, small_approximator):
        alpha = estimate_alpha_st(
            small_graph, small_approximator, rng=99, trials=4
        )
        assert alpha >= 2.0  # safety factor times >= 1

    def test_long_cycle_builds(self):
        """The α estimate's exact s-t solves follow augmenting paths
        about n/2 arcs long on a cycle: a 2000-node one builds."""
        n = 2000
        g = Graph(n, [(i, (i + 1) % n, 1.0 + i % 5) for i in range(n)])
        approx = build_congestion_approximator(g, rng=3)
        assert approx.num_trees == 11
        assert approx.alpha == pytest.approx(2.0)

    def test_grid_approximator_quality(self, grid_graph, grid_approximator):
        """On the grid, α should be modest (single-digit)."""
        assert grid_approximator.alpha < 20.0

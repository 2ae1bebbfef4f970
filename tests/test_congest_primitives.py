"""Round-bound tests for the CONGEST primitives (Experiment E9).

These verify the quantitative claims the cost model leans on:
BFS ≤ ecc + O(1), broadcast/convergecast ≤ height + O(1), pipelined
k-aggregation ≤ height + k + O(1) (Lemma 5.1's pipelining), flood-max
leader election within the diameter bound.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.congest import (
    broadcast,
    build_bfs_tree,
    convergecast_sum,
    elect_leader,
    pipelined_aggregate,
)
from repro.errors import TreeError
from repro.graphs.generators import (
    cycle,
    grid,
    path,
    random_connected,
    star,
)
from repro.graphs.trees import RootedTree


class TestBFS:
    @pytest.mark.parametrize("n", [2, 5, 12])
    def test_path_bfs_rounds(self, n):
        g = path(n, rng=1)
        tree, rounds = build_bfs_tree(g, root=0)
        assert rounds <= g.eccentricity(0) + 2

    def test_bfs_depths_are_distances(self):
        g = random_connected(25, 0.15, rng=3)
        tree, _ = build_bfs_tree(g, root=4)
        dist = g.bfs_distances(4)
        assert all(tree.depth(v) == dist[v] for v in g.nodes())

    def test_bfs_root_choice(self):
        g = grid(4, 4, rng=1)
        tree, _ = build_bfs_tree(g, root=7)
        assert tree.root == 7

    def test_bfs_on_star_two_rounds(self):
        g = star(10, rng=1)
        _, rounds = build_bfs_tree(g, root=0)
        assert rounds <= 3

    def test_bfs_tree_edges_are_graph_edges(self):
        g = random_connected(20, 0.2, rng=5)
        tree, _ = build_bfs_tree(g, root=0)
        pairs = {(min(e.u, e.v), max(e.u, e.v)) for e in g.edges()}
        for v in g.nodes():
            p = tree.parent[v]
            if p >= 0:
                assert (min(v, p), max(v, p)) in pairs


class TestBroadcastConvergecast:
    def test_broadcast_reaches_everyone(self):
        g = random_connected(20, 0.1, rng=7)
        tree, _ = build_bfs_tree(g, root=0)
        values, rounds = broadcast(g, tree, ("token", 99))
        assert all(v == ("token", 99) for v in values)
        assert rounds <= tree.height() + 2

    def test_convergecast_sums(self):
        g = grid(4, 5, rng=2)
        tree, _ = build_bfs_tree(g, root=0)
        values = [float(v) for v in g.nodes()]
        total, rounds = convergecast_sum(g, tree, values)
        assert total == pytest.approx(sum(values))
        assert rounds <= tree.height() + 2

    def test_convergecast_on_path_linear_rounds(self):
        g = path(10, rng=1)
        tree, _ = build_bfs_tree(g, root=0)
        _, rounds = convergecast_sum(g, tree, [1.0] * 10)
        assert tree.height() <= rounds <= tree.height() + 2


class TestPipelining:
    """Lemma 5.1: k independent aggregations in height + k + O(1)."""

    @pytest.mark.parametrize("k", [1, 4, 16])
    def test_pipelined_rounds_bound(self, k):
        g = path(12, rng=1)
        tree, _ = build_bfs_tree(g, root=0)
        values = [[float(v * i) for i in range(k)] for v in g.nodes()]
        sums, rounds = pipelined_aggregate(g, tree, values)
        assert rounds <= tree.height() + k + 2
        expected = [sum(v * i for v in g.nodes()) for i in range(k)]
        np.testing.assert_allclose(sums, expected)

    def test_pipelining_beats_sequential(self):
        # height + k  <<  k * height for deep trees and many items.
        g = path(30, rng=1)
        tree, _ = build_bfs_tree(g, root=0)
        k = 20
        values = [[1.0] * k for _ in g.nodes()]
        _, rounds = pipelined_aggregate(g, tree, values)
        sequential = k * tree.height()
        assert rounds < sequential / 2

    def test_pipelined_on_random_graph(self):
        g = random_connected(24, 0.15, rng=11)
        tree, _ = build_bfs_tree(g, root=0)
        k = 8
        values = [[float(i == v % k) for i in range(k)] for v in g.nodes()]
        sums, rounds = pipelined_aggregate(g, tree, values)
        assert rounds <= tree.height() + k + 2
        assert sum(sums) == pytest.approx(g.num_nodes)


class TestLeaderElection:
    def test_leader_is_max_id(self):
        g = random_connected(15, 0.2, rng=13)
        leader, _ = elect_leader(g)
        assert leader == 14

    def test_rounds_bounded_by_diameter_budget(self):
        g = cycle(12, rng=1)
        leader, rounds = elect_leader(g, diameter_bound=6)
        assert leader == 11
        assert rounds <= 6 + 2

    def test_star_elects_fast(self):
        g = star(8, rng=1)
        leader, rounds = elect_leader(g, diameter_bound=2)
        assert leader == 8
        assert rounds <= 4


class TestTreeEdges:
    def test_bfs_parent_edge_joins_each_node_to_its_parent(self):
        """The BFS tree keeps the edge each node adopted its parent
        over, parallel edges included."""
        g = random_connected(20, 0.2, rng=5)
        for e in list(g.edges())[:6]:
            g.add_edge(e.v, e.u, 1.0)
        tree, _ = build_bfs_tree(g, root=0)
        assert tree.parent_edge is not None
        assert tree.parent_edge[tree.root] == -1
        for v in g.nodes():
            p = tree.parent[v]
            if p >= 0:
                assert set(g.endpoints(int(tree.parent_edge[v]))) == {v, p}

    @pytest.mark.parametrize(
        "run",
        [
            lambda g, t: broadcast(g, t, 1),
            lambda g, t: convergecast_sum(g, t, [1.0] * g.num_nodes),
            lambda g, t: pipelined_aggregate(g, t, [[1.0]] * g.num_nodes),
        ],
        ids=["broadcast", "convergecast_sum", "pipelined_aggregate"],
    )
    def test_primitives_reject_tree_without_edges(self, run):
        g = path(6, rng=1)
        tree, _ = build_bfs_tree(g, root=0)
        with pytest.raises(TreeError):
            run(g, RootedTree(tree.parent))

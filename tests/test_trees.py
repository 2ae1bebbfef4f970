"""Unit tests for rooted trees and tree routing."""

from __future__ import annotations

import numpy as np
import pytest

import repro.graphs.graph as graph_mod
import repro.graphs.trees as trees_mod
from parallel_harness import tree_multigraph
from repro.errors import TreeError
from repro.flow.mst import maximum_spanning_tree
from repro.graphs.graph import Graph
from repro.graphs.trees import (
    RootedTree,
    bfs_tree,
    induced_cut_capacities,
    spanning_tree_from_edges,
    tree_route_demand,
)
from repro.lsst.akpw import akpw_spanning_tree
from repro.lsst.stretch import stretch_per_edge


def path_tree(n: int) -> RootedTree:
    """0 <- 1 <- 2 ... rooted at 0."""
    return RootedTree([-1] + list(range(n - 1)), capacity=[1.0] * n)


def star_tree(n_leaves: int) -> RootedTree:
    return RootedTree([-1] + [0] * n_leaves, capacity=[1.0] * (n_leaves + 1))


class TestStructure:
    def test_root_identified(self):
        t = path_tree(4)
        assert t.root == 0

    def test_two_roots_rejected(self):
        with pytest.raises(TreeError):
            RootedTree([-1, -1, 0])

    def test_no_root_rejected(self):
        with pytest.raises(TreeError):
            RootedTree([1, 0])

    def test_cycle_rejected(self):
        with pytest.raises(TreeError):
            RootedTree([-1, 2, 1])

    def test_out_of_range_parent_rejected(self):
        with pytest.raises(TreeError):
            RootedTree([-1, 5])

    def test_capacity_length_validated(self):
        with pytest.raises(TreeError):
            RootedTree([-1, 0], capacity=[1.0])

    def test_depth_and_height(self):
        t = path_tree(5)
        assert t.depth(0) == 0
        assert t.depth(4) == 4
        assert t.height() == 4

    def test_topological_order_root_first(self):
        t = star_tree(3)
        order = t.topological_order()
        assert order[0] == 0
        assert sorted(order) == [0, 1, 2, 3]

    def test_children(self):
        t = star_tree(3)
        assert t.children()[0] == [1, 2, 3]

    def test_path_to_root(self):
        t = path_tree(4)
        assert t.path_to_root(3) == [3, 2, 1, 0]

    def test_lca_on_path(self):
        t = path_tree(6)
        assert t.lca(5, 2) == 2

    def test_lca_on_star(self):
        t = star_tree(4)
        assert t.lca(1, 3) == 0
        assert t.lca(2, 2) == 2

    def test_path_length_hops(self):
        t = star_tree(4)
        assert t.path_length(1, 2) == 2.0

    def test_path_length_weighted(self):
        t = path_tree(4)
        lengths = [0.0, 10.0, 20.0, 30.0]
        assert t.path_length(3, 1, lengths) == pytest.approx(50.0)


class TestAggregations:
    def test_subtree_sums_path(self):
        t = path_tree(4)
        sums = t.subtree_sums([1.0, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(sums, [4.0, 3.0, 2.0, 1.0])

    def test_subtree_sums_star(self):
        t = star_tree(3)
        sums = t.subtree_sums([10.0, 1.0, 2.0, 3.0])
        np.testing.assert_allclose(sums, [16.0, 1.0, 2.0, 3.0])

    def test_subtree_sums_shape_checked(self):
        with pytest.raises(TreeError):
            star_tree(3).subtree_sums([1.0])

    def test_prefix_sums_from_root(self):
        t = path_tree(4)
        prices = [0.0, 1.0, 2.0, 4.0]
        np.testing.assert_allclose(
            t.prefix_sums_from_root(prices), [0.0, 1.0, 3.0, 7.0]
        )

    def test_edge_flows_route_demand(self):
        t = path_tree(3)
        flows = t.edge_flows_for_demand([-2.0, 0.0, 2.0])
        # node 2 sends 2 toward the root.
        np.testing.assert_allclose(flows, [0.0, 2.0, 2.0])

    def test_congestion_for_demand(self):
        t = RootedTree([-1, 0, 1], capacity=[0.0, 4.0, 1.0])
        cong = t.congestion_for_demand([-2.0, 0.0, 2.0])
        np.testing.assert_allclose(cong, [0.0, 0.5, 2.0])

    def test_as_graph_round_trip(self):
        t = star_tree(3)
        g = t.as_graph()
        assert g.num_edges == 3
        assert g.is_connected()


class TestConstruction:
    def test_bfs_tree_depths_match_distances(self, small_graph):
        t = bfs_tree(small_graph, root=0)
        dist = small_graph.bfs_distances(0)
        assert all(t.depth(v) == dist[v] for v in small_graph.nodes())

    def test_spanning_tree_from_edges(self):
        g = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
        t = spanning_tree_from_edges(g, [0, 1, 2])
        assert t.root == 0
        assert t.parent[3] == 2

    def test_spanning_tree_wrong_count_rejected(self):
        g = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        with pytest.raises(TreeError):
            spanning_tree_from_edges(g, [0, 1])

    def test_spanning_tree_not_spanning_rejected(self):
        g = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, 1.0)])
        with pytest.raises(TreeError):
            spanning_tree_from_edges(g, [0, 1, 2])  # leaves node 3 out


class TestInducedCuts:
    def test_path_graph_cuts(self):
        g = Graph(3, [(0, 1, 5.0), (1, 2, 7.0)])
        t = spanning_tree_from_edges(g, [0, 1])
        cuts = induced_cut_capacities(g, t)
        # subtree {1,2} cut = edge 0-1 (5); subtree {2} cut = edge 1-2 (7)
        assert cuts[1] == pytest.approx(5.0)
        assert cuts[2] == pytest.approx(7.0)

    def test_cycle_cut_counts_both_edges(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        t = spanning_tree_from_edges(g, [0, 1])
        cuts = induced_cut_capacities(g, t)
        assert cuts[1] == pytest.approx(2.0)  # {1,2} vs {0}: edges 0-1, 0-2
        assert cuts[2] == pytest.approx(2.0)  # {2} vs rest: edges 1-2, 0-2

    def test_matches_brute_force(self, small_graph):
        from repro.graphs.cuts import cut_capacity

        t = bfs_tree(small_graph, root=0)
        cuts = induced_cut_capacities(small_graph, t)
        children = t.children()
        # Check a handful of subtrees against direct cut computation.
        for v in range(1, min(10, small_graph.num_nodes)):
            members = [v]
            stack = [v]
            while stack:
                node = stack.pop()
                for ch in children[node]:
                    members.append(ch)
                    stack.append(ch)
            assert cuts[v] == pytest.approx(
                cut_capacity(small_graph, members)
            )

    def test_node_count_mismatch_rejected(self, small_graph):
        with pytest.raises(TreeError):
            induced_cut_capacities(small_graph, path_tree(3))


class TestTreeRouting:
    def test_route_exactly_meets_demand(self, small_graph):
        t = bfs_tree(small_graph, root=0)
        rng = np.random.default_rng(5)
        demand = rng.normal(size=small_graph.num_nodes)
        demand -= demand.mean()
        flow = tree_route_demand(small_graph, t, demand)
        residual = demand + small_graph.excess(flow)
        np.testing.assert_allclose(residual, 0.0, atol=1e-9)

    def test_route_uses_only_tree_edges(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
        t = spanning_tree_from_edges(g, [0, 1])
        flow = tree_route_demand(g, t, [1.0, 0.0, -1.0])
        assert flow[2] == 0.0  # non-tree edge unused

    def test_route_missing_edge_raises(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        fake = RootedTree([-1, 0, 0])  # edge (2, 0) is not a graph edge
        with pytest.raises(TreeError):
            tree_route_demand(g, fake, [1.0, 0.0, -1.0])

    def test_mst_fixup_uses_the_msts_own_parallel_edge(self):
        """Algorithm 1's fix-up routes over the edge the maximum
        spanning tree contains: the capacity-5 edge 1, not the
        lower-id capacity-1 edge 0 beside it."""
        g = Graph(3, [(0, 1, 1.0), (0, 1, 5.0), (1, 2, 5.0)])
        mst = maximum_spanning_tree(g)
        flow = tree_route_demand(g, mst, [1.0, 0.0, -1.0])
        assert flow[0] == 0.0
        assert float(g.congestion(flow).max()) == pytest.approx(0.2)
        assert mst.parent_edge.tolist() == [-1, 1, 2]


def _highest_id_spanning_edges(graph: Graph) -> list[int]:
    """A spanning tree of a :func:`tree_multigraph`: its first n-1
    edges, each swapped for the highest-id edge joining the same pair."""
    tails, heads = graph.edge_index_arrays()
    n = graph.num_nodes
    keys = np.minimum(tails, heads) * n + np.maximum(tails, heads)
    return [int(np.flatnonzero(keys == keys[e])[-1]) for e in range(n - 1)]


class TestParentEdges:
    """Every spanning tree built from graph edges records, for each
    non-root ``v``, the graph edge joining ``v`` and ``parent[v]``."""

    @staticmethod
    def assert_parent_edges_join(graph, tree, lowest=False):
        tails, heads = graph.edge_index_arrays()
        parent_edge = tree.parent_edge
        assert parent_edge.shape == (graph.num_nodes,)
        assert parent_edge[tree.root] == -1
        for v in range(graph.num_nodes):
            p = tree.parent[v]
            if p < 0:
                continue
            e = int(parent_edge[v])
            assert {int(tails[e]), int(heads[e])} == {v, p}
            if lowest:
                joining = ((tails == v) & (heads == p)) | (
                    (tails == p) & (heads == v)
                )
                assert e == int(np.flatnonzero(joining)[0])

    @pytest.mark.parametrize(
        "python_path", [True, False], ids=["python", "kernel"]
    )
    def test_bfs_tree_records_lowest_id_edges(self, python_path, monkeypatch):
        if not python_path:
            monkeypatch.setattr(graph_mod, "SMALL_GRAPH_LIMIT", 0)
        g = tree_multigraph(64, 112)
        assert g.is_small() == python_path
        self.assert_parent_edges_join(g, bfs_tree(g, root=5), lowest=True)

    @pytest.mark.parametrize(
        "python_path", [True, False], ids=["python", "kernel"]
    )
    def test_spanning_tree_from_edges_records_given_edges(
        self, python_path, monkeypatch
    ):
        if not python_path:
            monkeypatch.setattr(trees_mod, "SMALL_GRAPH_LIMIT", 0)
        g = tree_multigraph(64, 112)
        ids = _highest_id_spanning_edges(g)
        assert ids != list(range(g.num_nodes - 1))  # some pair is parallel
        tree = spanning_tree_from_edges(g, ids, root=3)
        self.assert_parent_edges_join(g, tree)
        recorded = tree.parent_edge[tree.parent_edge >= 0].tolist()
        assert sorted(recorded) == sorted(ids)

    def test_akpw_tree_records_its_edges(self):
        g = tree_multigraph(64, 112)
        lengths = 1.0 / g.capacities()
        tree = akpw_spanning_tree(g, lengths=lengths, rng=13).tree
        self.assert_parent_edges_join(g, tree)

    def test_maximum_spanning_tree_records_its_edges(self):
        g = tree_multigraph(64, 112)
        tree = maximum_spanning_tree(g)
        self.assert_parent_edges_join(g, tree)
        np.testing.assert_array_equal(
            tree.capacity[1:], g.capacities()[tree.parent_edge[1:]]
        )

    def test_bare_parent_array_has_no_parent_edges(self):
        assert RootedTree([-1, 0, 1]).parent_edge is None


class TestStretchHelpers:
    def test_average_stretch_of_tree_is_one(self):
        g = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        t = spanning_tree_from_edges(g, [0, 1, 2])
        assert stretch_per_edge(g, t).mean() == pytest.approx(1.0)

    def test_average_stretch_cycle(self):
        g = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0)])
        t = spanning_tree_from_edges(g, [0, 1, 2])
        # three tree edges stretch 1, chord stretches 3 => (1+1+1+3)/4
        assert stretch_per_edge(g, t).mean() == pytest.approx(1.5)

"""Unit and cross-oracle tests for the exact max-flow algorithms."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from parallel_harness import tree_multigraph
from repro.errors import GraphError
from repro.flow import (
    dinic_max_flow,
    edmonds_karp_max_flow,
    maximum_spanning_tree,
    minimum_spanning_tree,
    push_relabel_max_flow,
)
from repro.flow.residual import ResidualNetwork
from repro.graphs.cuts import cut_capacity
from repro.graphs.generators import (
    barbell,
    grid,
    random_connected,
)
from repro.graphs.graph import Graph
from repro.util.validation import check_feasible_flow, st_demand

ORACLES = [dinic_max_flow, edmonds_karp_max_flow, push_relabel_max_flow]


class TestResidualNetwork:
    def test_arc_pairing(self):
        g = Graph(2, [(0, 1, 3.0)])
        net = ResidualNetwork(g)
        assert net.arc_head[0] == 1
        assert net.arc_head[1] == 0

    def test_push_updates_both_directions(self):
        g = Graph(2, [(0, 1, 3.0)])
        net = ResidualNetwork(g)
        net.push(0, 2.0)
        assert net.residual(0) == pytest.approx(1.0)
        assert net.residual(1) == pytest.approx(5.0)

    def test_net_flow_vector_recovery(self):
        g = Graph(2, [(0, 1, 3.0)])
        net = ResidualNetwork(g)
        net.push(0, 2.0)
        np.testing.assert_allclose(net.net_flow_vector(), [2.0])

    def test_net_flow_reverse_direction_is_negative(self):
        g = Graph(2, [(0, 1, 3.0)])
        net = ResidualNetwork(g)
        net.push(1, 1.5)
        np.testing.assert_allclose(net.net_flow_vector(), [-1.5])


@pytest.mark.parametrize("solve", ORACLES)
class TestOracleBasics:
    def test_single_edge(self, solve):
        g = Graph(2, [(0, 1, 7.0)])
        assert solve(g, 0, 1).value == pytest.approx(7.0)

    def test_path_bottleneck(self, solve):
        g = Graph(4, [(0, 1, 9.0), (1, 2, 2.0), (2, 3, 9.0)])
        assert solve(g, 0, 3).value == pytest.approx(2.0)

    def test_parallel_edges_add(self, solve):
        g = Graph(2, [(0, 1, 3.0), (0, 1, 4.0)])
        assert solve(g, 0, 1).value == pytest.approx(7.0)

    def test_two_disjoint_paths(self, solve):
        g = Graph(
            4, [(0, 1, 3.0), (1, 3, 3.0), (0, 2, 4.0), (2, 3, 4.0)]
        )
        assert solve(g, 0, 3).value == pytest.approx(7.0)

    def test_disconnected_terminals_zero(self, solve):
        g = Graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
        assert solve(g, 0, 3).value == 0.0

    def test_same_terminal_rejected(self, solve):
        g = Graph(2, [(0, 1, 1.0)])
        with pytest.raises(GraphError):
            solve(g, 0, 0)

    @pytest.mark.parametrize("source, sink", [(-1, 3), (0, 10), (3, -1)])
    def test_terminal_out_of_range(self, solve, source, sink):
        """A negative id must not index from the end, nor an id past
        n - 1 read as an unreachable sink."""
        g = random_connected(10, 0.3, rng=1)
        with pytest.raises(GraphError):
            solve(g, source, sink)

    def test_long_path(self, solve):
        """An augmenting path of 1199 arcs needs no recursion depth."""
        n = 1200
        g = Graph(n, [(i, i + 1, 1.0 + i % 7) for i in range(n - 1)])
        result = solve(g, 0, n - 1)
        assert result.value == 1.0
        assert result.min_cut_side == frozenset([0])

    def test_flow_is_feasible(self, solve):
        g = random_connected(20, 0.2, rng=3)
        result = solve(g, 0, 19)
        check_feasible_flow(
            g, result.flow, st_demand(g, 0, 19, result.value)
        )

    def test_min_cut_certificate(self, solve):
        g = random_connected(15, 0.25, rng=5)
        result = solve(g, 0, 14)
        assert 0 in result.min_cut_side
        assert 14 not in result.min_cut_side
        assert cut_capacity(g, result.min_cut_side) == pytest.approx(
            result.value
        )

    def test_undirected_symmetry(self, solve):
        g = random_connected(12, 0.3, rng=8)
        forward = solve(g, 0, 11).value
        backward = solve(g, 11, 0).value
        assert forward == pytest.approx(backward)


class TestCrossOracleAgreement:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs_agree(self, seed):
        g = random_connected(18, 0.2, rng=seed)
        values = {round(solve(g, 0, 17).value, 6) for solve in ORACLES}
        assert len(values) == 1

    def test_grid_agree(self):
        g = grid(5, 5, rng=2)
        values = {round(solve(g, 0, 24).value, 6) for solve in ORACLES}
        assert len(values) == 1

    def test_barbell_agree(self):
        g = barbell(5, bridge_capacity=2.5, rng=2)
        values = {round(solve(g, 0, 5).value, 6) for solve in ORACLES}
        assert values == {2.5}


class TestSpanningTrees:
    def test_max_st_picks_heavy_edges(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 10.0)])
        t = maximum_spanning_tree(g)
        pairs = {
            (min(v, t.parent[v]), max(v, t.parent[v]))
            for v in range(3)
            if t.parent[v] >= 0
        }
        assert (0, 2) in pairs

    def test_min_st_avoids_heavy_edges(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 10.0)])
        t = minimum_spanning_tree(g)
        pairs = {
            (min(v, t.parent[v]), max(v, t.parent[v]))
            for v in range(3)
            if t.parent[v] >= 0
        }
        assert (0, 2) not in pairs

    def test_max_st_on_multigraph_matches_golden(self):
        """Parents and tree capacities of Kruskal's tree on a multigraph
        whose parallel edges carry distinct capacities, pinned. The
        capacities are copies of integer inputs, so hashing their float
        bytes is exact."""
        t = maximum_spanning_tree(tree_multigraph(64, 112))
        digest = hashlib.sha256()
        digest.update(np.asarray(t.parent, dtype="<i8").tobytes())
        digest.update(np.asarray(t.capacity, dtype="<f8").tobytes())
        assert digest.hexdigest()[:16] == "f057c890838edf62"

    def test_spanning_tree_spans(self, medium_graph):
        t = maximum_spanning_tree(medium_graph)
        assert t.num_nodes == medium_graph.num_nodes

    def test_max_st_bottleneck_property(self):
        # On a max-capacity spanning tree, the path between any two
        # nodes maximizes the bottleneck capacity.
        g = random_connected(12, 0.3, rng=4)
        t = maximum_spanning_tree(g)
        # Bottleneck on tree path 0 -> 11:
        node = 11
        ancestor = t.lca(0, 11)
        bottleneck = float("inf")
        for start in (0, 11):
            node = start
            while node != ancestor:
                bottleneck = min(bottleneck, t.capacity[node])
                node = t.parent[node]
        # No single edge cut below the bottleneck separates 0 and 11:
        # the max flow must be at least the bottleneck.
        assert dinic_max_flow(g, 0, 11).value >= bottleneck - 1e-9

    def test_disconnected_rejected(self):
        g = Graph(3, [(0, 1, 1.0)])
        from repro.errors import DisconnectedGraphError

        with pytest.raises(DisconnectedGraphError):
            maximum_spanning_tree(g)

"""Unit tests for the core Graph multigraph."""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro.errors import DisconnectedGraphError, GraphError
from repro.graphs.generators import random_connected
from repro.graphs.graph import Edge, Graph
from repro.graphs.trees import bfs_tree, spanning_tree_from_edges
from repro.util.validation import flow_value


def triangle() -> Graph:
    return Graph(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)])


class TestConstruction:
    def test_empty_graph_has_no_edges(self):
        g = Graph(5)
        assert g.num_nodes == 5
        assert g.num_edges == 0

    def test_zero_nodes_rejected(self):
        with pytest.raises(GraphError):
            Graph(0)

    def test_negative_nodes_rejected(self):
        with pytest.raises(GraphError):
            Graph(-3)

    def test_add_edge_returns_sequential_ids(self):
        g = Graph(3)
        assert g.add_edge(0, 1, 1.0) == 0
        assert g.add_edge(1, 2, 1.0) == 1

    def test_self_loop_rejected(self):
        g = Graph(2)
        with pytest.raises(GraphError):
            g.add_edge(1, 1, 1.0)

    def test_out_of_range_endpoint_rejected(self):
        g = Graph(2)
        with pytest.raises(GraphError):
            g.add_edge(0, 2, 1.0)

    def test_zero_capacity_rejected(self):
        g = Graph(2)
        with pytest.raises(GraphError):
            g.add_edge(0, 1, 0.0)

    def test_negative_capacity_rejected(self):
        g = Graph(2)
        with pytest.raises(GraphError):
            g.add_edge(0, 1, -1.0)

    def test_nan_capacity_rejected(self):
        g = Graph(2)
        with pytest.raises(GraphError):
            g.add_edge(0, 1, float("nan"))

    def test_infinite_capacity_rejected(self):
        g = Graph(2)
        with pytest.raises(GraphError):
            g.add_edge(0, 1, float("inf"))

    def test_parallel_edges_kept_separate(self):
        g = Graph(2, [(0, 1, 1.0), (0, 1, 2.0)])
        assert g.num_edges == 2
        assert g.capacity(0) == 1.0
        assert g.capacity(1) == 2.0

    def test_from_edge_arrays_round_trip(self):
        g = Graph.from_edge_arrays(3, [0, 1], [1, 2], [4.0, 5.0])
        assert g.num_edges == 2
        assert g.endpoints(1) == (1, 2)

    def test_from_edge_arrays_length_mismatch(self):
        with pytest.raises(GraphError):
            Graph.from_edge_arrays(3, [0, 1], [1], [4.0, 5.0])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: Graph.from_edge_arrays(
                3, [0.5, 1.2], [1.7, 2.9], [1.0, 2.0]
            ),
            lambda: Graph(3, [(0.5, 1.7, 1.0)]),
            lambda: Graph(3).add_edge(0.9, 2.2, 1.0),
        ],
        ids=["from_edge_arrays", "triples", "add_edge"],
    )
    def test_non_integer_endpoint_rejected(self, build):
        """A fractional endpoint raises instead of being truncated to a
        node id; integral floats still name their node."""
        with pytest.raises(GraphError, match="not an integer"):
            build()
        assert Graph(3, [(0.0, 2.0, 1.0)]).endpoints(0) == (0, 2)

    def test_copy_is_independent(self):
        g = triangle()
        h = g.copy()
        h.set_capacity(0, 99.0)
        assert g.capacity(0) == 1.0


class TestCopies:
    @pytest.mark.parametrize(
        "clone",
        [copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))],
        ids=["deepcopy", "pickle"],
    )
    def test_copy_rebuilds_cached_views(self, clone):
        """A copy of a graph whose views were cached answers like the
        original, and a write to the copy reaches its own views only."""
        g = random_connected(10, 0.3, rng=1)
        g.capacities()
        g.edge_index_arrays()
        twin = clone(g)
        flow = np.random.default_rng(2).normal(size=g.num_edges)
        assert np.array_equal(twin.capacities(), g.capacities())
        assert np.array_equal(twin.excess(flow), g.excess(flow))
        for ours, theirs in zip(
            twin.edge_index_arrays(), g.edge_index_arrays()
        ):
            assert np.array_equal(ours, theirs)
        twin.set_capacity(0, 3 * g.capacity(0))
        assert twin.capacities()[0] == twin.capacity(0) == 3 * g.capacity(0)
        assert g.capacities()[0] == g.capacity(0)


class TestAccessors:
    def test_edge_object_fields(self):
        g = triangle()
        e = g.edge(1)
        assert e == Edge(1, 1, 2, 2.0)

    def test_edge_other_endpoint(self):
        e = Edge(0, 3, 7, 1.0)
        assert e.other(3) == 7
        assert e.other(7) == 3

    def test_edge_other_rejects_non_endpoint(self):
        e = Edge(0, 3, 7, 1.0)
        with pytest.raises(GraphError):
            e.other(5)

    def test_edge_id_out_of_range(self):
        """Every edge-id accessor rejects -1 and m with GraphError: a
        negative id must not count from the end, nor m surface as a
        bare IndexError."""
        g = random_connected(10, 0.3, rng=1)
        caps = g.capacities().copy()
        for eid in (-1, g.num_edges):
            for query in (
                g.edge,
                g.endpoints,
                g.capacity,
                lambda e: g.set_capacity(e, 1.0),
            ):
                with pytest.raises(GraphError, match="out of range"):
                    query(eid)
        assert np.array_equal(g.capacities(), caps)

    def test_edges_iterates_in_id_order(self):
        ids = [e.id for e in triangle().edges()]
        assert ids == [0, 1, 2]

    def test_neighbors_lists_all_incident_edges(self):
        g = triangle()
        assert sorted(g.neighbors(0)) == [(1, 0), (2, 2)]

    def test_degree_counts_parallel_edges(self):
        g = Graph(2, [(0, 1, 1.0), (0, 1, 1.0)])
        assert g.degree(0) == 2

    @pytest.mark.parametrize("node", [-1, 10])
    def test_node_out_of_range_rejected(self, node):
        """A negative id must not alias node n-1, nor a large one
        surface as a bare IndexError."""
        g = random_connected(10, 0.3, rng=1)
        for query in (g.degree, g.neighbors, g.bfs_distances, g.eccentricity):
            with pytest.raises(GraphError, match="out of range"):
                query(node)
        with pytest.raises(GraphError, match="out of range"):
            bfs_tree(g, root=node)
        edge_ids = bfs_tree(g).parent_edge
        with pytest.raises(GraphError, match="out of range"):
            spanning_tree_from_edges(g, edge_ids[edge_ids >= 0], root=node)

    @pytest.mark.parametrize(
        "query",
        [
            lambda g: g.degree(1.5),
            lambda g: g.neighbors(2.0),
            lambda g: g.bfs_distances(1.5),
            lambda g: g.edge(2.0),
            lambda g: g.endpoints(2.0),
            lambda g: g.capacity(1.5),
            lambda g: g.set_capacity(1.5, 3.0),
            lambda g: flow_value(g, np.ones(g.num_edges), 1.5, 0),
            lambda g: flow_value(g, np.ones(g.num_edges), 0, np.float64(3)),
        ],
        ids=[
            "degree",
            "neighbors",
            "bfs_distances",
            "edge",
            "endpoints",
            "capacity",
            "set_capacity",
            "flow_value_source",
            "flow_value_sink",
        ],
    )
    def test_non_integer_id_rejected(self, query):
        """A node or edge id that is not a Python or NumPy integer raises
        GraphError, not NumPy's bare IndexError or a TypeError; a
        rejected write leaves the version and the journal as they
        were."""
        g = random_connected(10, 0.3, rng=1)
        version, journal = g._version, g.journal_size
        with pytest.raises(GraphError, match="not an integer"):
            query(g)
        assert (g._version, g.journal_size) == (version, journal)

    def test_numpy_integer_ids_accepted(self):
        g = random_connected(10, 0.3, rng=1)
        assert g.degree(np.int64(2)) == g.degree(2) == 4
        assert g.capacity(np.int32(3)) == g.capacity(3)

    def test_capacities_vector(self):
        caps = triangle().capacities()
        np.testing.assert_allclose(caps, [1.0, 2.0, 3.0])

    def test_set_capacity_validates(self):
        g = triangle()
        with pytest.raises(GraphError):
            g.set_capacity(0, -1.0)

    def test_total_capacity(self):
        assert triangle().total_capacity() == 6.0

    def test_edge_index_arrays(self):
        tails, heads = triangle().edge_index_arrays()
        assert tails.tolist() == [0, 1, 0]
        assert heads.tolist() == [1, 2, 2]


class TestFlowOperators:
    def test_excess_of_zero_flow_is_zero(self):
        g = triangle()
        np.testing.assert_allclose(g.excess(np.zeros(3)), 0.0)

    def test_excess_signs_follow_orientation(self):
        g = Graph(2, [(0, 1, 1.0)])
        excess = g.excess(np.array([2.0]))
        # Edge 0->1 carrying +2: node 1 gains, node 0 loses.
        np.testing.assert_allclose(excess, [-2.0, 2.0])

    def test_excess_wrong_shape_rejected(self):
        with pytest.raises(GraphError):
            triangle().excess(np.zeros(2))

    def test_excess_sums_to_zero(self, rng):
        g = triangle()
        flow = rng.normal(size=3)
        assert abs(g.excess(flow).sum()) < 1e-12

    def test_congestion(self):
        g = triangle()
        cong = g.congestion(np.array([1.0, -1.0, 1.5]))
        np.testing.assert_allclose(cong, [1.0, 0.5, 0.5])

    @pytest.mark.parametrize("length", [1, 2, 4])
    def test_congestion_wrong_shape_rejected(self, length):
        """A flow of any length but m raises, not broadcasts."""
        with pytest.raises(GraphError, match="shape"):
            triangle().congestion(np.ones(length))


class TestConnectivity:
    def test_triangle_connected(self):
        assert triangle().is_connected()

    def test_isolated_node_disconnects(self):
        g = Graph(3, [(0, 1, 1.0)])
        assert not g.is_connected()
        assert len(g.connected_components()) == 2

    def test_require_connected_raises(self):
        g = Graph(2)
        with pytest.raises(DisconnectedGraphError):
            g.require_connected()

    def test_bfs_distances(self):
        g = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        assert g.bfs_distances(0) == [0, 1, 2, 3]

    def test_bfs_unreachable_is_minus_one(self):
        g = Graph(3, [(0, 1, 1.0)])
        assert g.bfs_distances(0)[2] == -1

    def test_diameter_of_path(self):
        g = Graph(5, [(i, i + 1, 1.0) for i in range(4)])
        assert g.diameter() == 4

    def test_diameter_requires_connected(self):
        g = Graph(3, [(0, 1, 1.0)])
        with pytest.raises(DisconnectedGraphError):
            g.diameter()

    def test_eccentricity(self):
        g = Graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        assert g.eccentricity(1) == 2

    def test_eccentricity_disconnected_raises(self):
        g = Graph(3, [(0, 1, 1.0)])
        with pytest.raises(DisconnectedGraphError):
            g.eccentricity(0)


class TestContraction:
    def test_contract_merges_nodes(self):
        g = Graph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0)])
        q, origin = g.contract([0, 0, 1, 1])
        assert q.num_nodes == 2
        assert q.num_edges == 1  # only 1-2 crosses
        assert origin == [1]

    def test_contract_keeps_parallel_edges(self):
        g = Graph(4, [(0, 2, 1.0), (1, 3, 2.0)])
        q, origin = g.contract([0, 0, 1, 1], keep_parallel=True)
        assert q.num_edges == 2

    def test_contract_merge_sums_capacities(self):
        g = Graph(4, [(0, 2, 1.0), (1, 3, 2.0)])
        q, origin = g.contract([0, 0, 1, 1], keep_parallel=False)
        assert q.num_edges == 1
        assert q.capacity(0) == 3.0

    def test_contract_drops_internal_edges(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        q, _ = g.contract([5, 5, 9])
        assert q.num_edges == 1

    def test_contract_label_length_checked(self):
        with pytest.raises(GraphError):
            triangle().contract([0, 1])

    def test_contract_arbitrary_labels_compacted(self):
        g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
        q, _ = g.contract([100, -5, 100])
        assert q.num_nodes == 2

    def test_edge_subgraph(self):
        g = triangle()
        sub = g.edge_subgraph([0, 2])
        assert sub.num_edges == 2
        assert sub.num_nodes == 3

"""Property-based tests (hypothesis) on the library's core invariants."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import build_congestion_approximator, max_flow
from repro.core.softmax import smax, smax_gradient
from repro.flow import dinic_max_flow, edmonds_karp_max_flow
from repro.graphs.cuts import cut_capacity
from repro.graphs.generators import random_connected
from repro.graphs.graph import Graph
from repro.graphs.trees import (
    RootedTree,
    bfs_tree,
    induced_cut_capacities,
    tree_route_demand,
)
from repro.lsst.akpw import akpw_spanning_tree
from repro.util.validation import check_feasible_flow, st_demand

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


@st.composite
def connected_graphs(draw, max_nodes: int = 14):
    """A connected random graph with integer capacities."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    extra = draw(st.floats(min_value=0.0, max_value=0.4))
    return random_connected(n, extra, rng=seed)


@st.composite
def graph_with_demand(draw, max_nodes: int = 12):
    graph = draw(connected_graphs(max_nodes))
    n = graph.num_nodes
    values = draw(
        st.lists(
            st.floats(
                min_value=-10, max_value=10, allow_nan=False, allow_infinity=False
            ),
            min_size=n,
            max_size=n,
        )
    )
    demand = np.asarray(values)
    demand -= demand.mean()
    return graph, demand


COMMON = dict(
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# Flow oracle invariants
# ---------------------------------------------------------------------------


@given(connected_graphs())
@settings(**COMMON)
def test_dinic_flow_always_feasible(graph):
    result = dinic_max_flow(graph, 0, graph.num_nodes - 1)
    check_feasible_flow(
        graph, result.flow, st_demand(graph, 0, graph.num_nodes - 1, result.value)
    )


@given(connected_graphs())
@settings(**COMMON)
def test_oracles_agree(graph):
    t = graph.num_nodes - 1
    a = dinic_max_flow(graph, 0, t).value
    b = edmonds_karp_max_flow(graph, 0, t).value
    assert abs(a - b) <= 1e-6 * max(1.0, a)


@given(connected_graphs())
@settings(**COMMON)
def test_min_cut_certifies_value(graph):
    t = graph.num_nodes - 1
    result = dinic_max_flow(graph, 0, t)
    np.testing.assert_allclose(
        cut_capacity(graph, result.min_cut_side), result.value, rtol=1e-9
    )


@given(connected_graphs(), st.integers(min_value=0, max_value=10_000))
@settings(**COMMON)
def test_max_flow_feasible_and_certified(graph, seed):
    """Algorithm 1's s-t answer is feasible, value ≤ Dinic ≤ certified
    bound, and its fix-up met the stop test unless the round cap hit."""
    epsilon = 0.5
    t = graph.num_nodes - 1
    approximator = build_congestion_approximator(graph, rng=seed)
    result = max_flow(graph, 0, t, epsilon=epsilon, approximator=approximator)
    check_feasible_flow(graph, result.flow, st_demand(graph, 0, t, result.value))
    exact = dinic_max_flow(graph, 0, t).value
    assert result.value <= exact * (1 + 1e-9)
    assert exact <= result.certified_upper_bound * (1 + 1e-9)
    routed = result.congestion_result
    round_cap = math.ceil(math.log2(max(graph.num_edges, 2))) + 2
    assert (
        routed.fixup_congestion <= epsilon / 64 * routed.lower_bound
        or routed.almost_route_calls == round_cap
    )


@given(connected_graphs(), st.integers(min_value=0, max_value=10_000))
@settings(**COMMON)
def test_exact_refresh_stays_sound_after_increases_and_decreases(graph, seed):
    """After capacities move both ways, ``refresh_capacities`` leaves
    every row an exact cut and ``‖Rb‖∞`` a lower bound on opt."""
    approximator = build_congestion_approximator(graph, rng=seed)
    rng = np.random.default_rng(seed)
    size = int(rng.integers(1, graph.num_edges + 1))
    for eid in rng.choice(graph.num_edges, size=size, replace=False).tolist():
        factor = 4.0 ** float(rng.uniform(-1.0, 1.0))  # in [0.25, 4]
        graph.set_capacity(eid, graph.capacity(eid) * factor)
    approximator.refresh_capacities()
    for tree in approximator.trees():
        exact = induced_cut_capacities(graph, tree)
        assert np.array_equal(tree.capacity, exact)
    t = graph.num_nodes - 1
    opt = 1.0 / dinic_max_flow(graph, 0, t).value
    assert approximator.estimate(st_demand(graph, 0, t)) <= opt * (1 + 1e-9)


# ---------------------------------------------------------------------------
# Tree invariants
# ---------------------------------------------------------------------------


@given(graph_with_demand())
@settings(**COMMON)
def test_tree_routing_meets_demand_exactly(case):
    graph, demand = case
    tree = bfs_tree(graph, root=0)
    flow = tree_route_demand(graph, tree, demand)
    residual = demand + graph.excess(flow)
    np.testing.assert_allclose(residual, 0.0, atol=1e-8)


@given(connected_graphs())
@settings(**COMMON)
def test_induced_cut_capacities_positive_and_bounded(graph):
    tree = bfs_tree(graph, root=0)
    cuts = induced_cut_capacities(graph, tree)
    total = graph.total_capacity()
    for v in range(graph.num_nodes):
        if tree.parent[v] >= 0:
            assert 0 < cuts[v] <= total + 1e-9


@given(
    connected_graphs(max_nodes=24), st.integers(min_value=0, max_value=10_000)
)
@settings(**COMMON)
def test_induced_cuts_exact_across_capacity_scales(graph, seed):
    """With capacities spread over 1e-8..1e8, every row of a BFS tree,
    an AKPW tree and a random tree (edges not in the graph) matches the
    capacity of the edges crossing its subtree to relative 1e-6."""
    rng = np.random.default_rng(seed)
    n = graph.num_nodes
    tails, heads = graph.edge_index_arrays()
    caps = 10.0 ** rng.uniform(-8.0, 8.0, size=graph.num_edges)
    spread = Graph.from_edge_arrays(n, tails, heads, caps)
    order = rng.permutation(n)
    parent = np.full(n, -1)
    for k in range(1, n):
        parent[order[k]] = order[rng.integers(0, k)]
    trees = [
        bfs_tree(spread, root=int(rng.integers(0, n))),
        akpw_spanning_tree(spread, rng=seed).tree,
        RootedTree(parent),
    ]
    for tree in trees:
        cuts = induced_cut_capacities(spread, tree)
        for v in range(n):
            if tree.parent[v] < 0:
                continue
            inside = np.zeros(n, dtype=bool)
            for u in range(n):
                inside[u] = v in tree.path_to_root(u)
            exact = math.fsum(caps[inside[tails] != inside[heads]])
            assert abs(cuts[v] - exact) <= 1e-6 * exact


@given(graph_with_demand())
@settings(**COMMON)
def test_subtree_congestion_is_lower_bound_of_any_routing(case):
    """Tree rows never overestimate: routing the demand on the graph
    (via the tree itself!) has congestion >= the row estimate."""
    graph, demand = case
    tree = bfs_tree(graph, root=0)
    cuts = induced_cut_capacities(graph, tree)
    rows = np.abs(tree.subtree_sums(demand))
    rows[tree.root] = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        estimate = np.where(cuts > 0, rows / cuts, 0.0)
    flow = tree_route_demand(graph, tree, demand)
    congestion = float(np.abs(flow / graph.capacities()).max(initial=0.0))
    assert np.nanmax(estimate, initial=0.0) <= congestion + 1e-8


# ---------------------------------------------------------------------------
# Graph structure invariants
# ---------------------------------------------------------------------------


@given(graph_with_demand())
@settings(**COMMON)
def test_excess_always_sums_to_zero(case):
    graph, _ = case
    rng = np.random.default_rng(0)
    flow = rng.normal(size=graph.num_edges)
    assert abs(graph.excess(flow).sum()) < 1e-9 * max(1, graph.num_edges)


@given(connected_graphs(), st.integers(min_value=0, max_value=10_000))
@settings(**COMMON)
def test_contraction_preserves_total_cross_capacity(graph, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, graph.num_nodes).tolist()
    quotient, origin = graph.contract(labels)
    merged, _ = graph.contract(labels, keep_parallel=False)
    np.testing.assert_allclose(
        quotient.total_capacity(), merged.total_capacity(), rtol=1e-9
    )
    assert len(origin) == quotient.num_edges


# ---------------------------------------------------------------------------
# Soft-max invariants
# ---------------------------------------------------------------------------


@given(
    st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        min_size=1,
        max_size=30,
    )
)
@settings(**COMMON)
def test_smax_sandwiches_infinity_norm(values):
    y = np.asarray(values)
    value = smax(y)
    assert value >= np.abs(y).max() - 1e-9
    assert value <= np.abs(y).max() + np.log(2 * len(values)) + 1e-9


@given(
    st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False),
        min_size=1,
        max_size=30,
    )
)
@settings(**COMMON)
def test_smax_gradient_l1_at_most_one(values):
    g = smax_gradient(np.asarray(values))
    assert np.abs(g).sum() <= 1.0 + 1e-9

"""Second property-based batch: invariants of the j-tree machinery,
the approximator operators, and the distributed primitives."""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.approximator import TreeCongestionApproximator
from repro.graphs.generators import random_connected
from repro.graphs.trees import RootedTree, bfs_tree, induced_cut_capacities
from repro.jtree.madry import madry_jtree_step, select_load_classes
from repro.jtree.skeleton import build_skeleton

COMMON = dict(
    deadline=None,
    max_examples=20,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def graphs_and_seeds(draw, max_nodes: int = 16):
    n = draw(st.integers(min_value=4, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=5_000))
    return random_connected(n, 0.25, rng=seed), seed


# ---------------------------------------------------------------------------
# j-tree invariants
# ---------------------------------------------------------------------------


@given(graphs_and_seeds(), st.integers(min_value=1, max_value=5))
@settings(**COMMON)
def test_madry_step_structural_invariants(case, j):
    graph, seed = case
    step = madry_jtree_step(
        graph, None, j=j, rng=seed + 1, removal_policy="topj"
    )
    n = graph.num_nodes
    # (1) component_of is a total assignment with num_components parts.
    assert len(set(step.component_of)) == step.num_components
    # (2) forest parents stay inside components and point toward the
    # unique portal (acyclicity via depth walk).
    for v in range(n):
        p = step.forest_parent[v]
        if p >= 0:
            assert step.component_of[p] == step.component_of[v]
        hops, node = 0, v
        while step.forest_parent[node] >= 0 and hops <= n:
            node = step.forest_parent[node]
            hops += 1
        assert hops <= n
    # (3) every core edge crosses components and has positive capacity.
    for ce in step.core_edges:
        assert ce.component_u != ce.component_v
        assert ce.capacity > 0
    # (4) |F| respects j (topj caps at j).
    assert len(step.removed_edges) <= j + graph.num_nodes  # extra_removals none


@given(
    st.lists(
        st.floats(min_value=0.1, max_value=1e6, allow_nan=False),
        min_size=2,
        max_size=20,
    ),
    st.integers(min_value=1, max_value=8),
)
@settings(**COMMON)
def test_select_load_classes_never_exceeds_j(loads, j):
    rload = np.array([0.0] + loads)
    children = list(range(1, len(loads) + 1))
    removed = select_load_classes(rload, children, j)
    assert len(removed) <= j
    # Removed edges always have strictly higher loads than the max kept
    # class boundary — i.e. removal is a prefix of the sorted order.
    if removed:
        kept = [c for c in children if c not in removed]
        if kept:
            assert min(rload[c] for c in removed) >= max(
                rload[c] for c in kept
            ) / 2.0 - 1e-9


@given(graphs_and_seeds())
@settings(**COMMON)
def test_skeleton_components_have_single_portal(case):
    graph, seed = case
    tree = bfs_tree(graph, root=0)
    children = [v for v in range(graph.num_nodes) if tree.parent[v] >= 0]
    rng = np.random.default_rng(seed)
    removed = [c for c in children if rng.random() < 0.3]
    forest = [
        (v, tree.parent[v], float(rng.integers(1, 10)))
        for v in children
        if v not in removed
    ]
    primary = set()
    for v in removed:
        primary.add(v)
        primary.add(tree.parent[v])
    result = build_skeleton(graph.num_nodes, forest, primary)
    portals = result.portals
    for comp in range(len(result.component_portal)):
        members = [
            v
            for v in range(graph.num_nodes)
            if result.component[v] == comp
        ]
        inside = [v for v in members if v in portals]
        assert len(inside) <= 1


# ---------------------------------------------------------------------------
# Approximator operator invariants
# ---------------------------------------------------------------------------


@given(graphs_and_seeds())
@settings(**COMMON)
def test_tree_operator_adjoint_identity(case):
    graph, seed = case
    tree = bfs_tree(graph, root=0)
    op = TreeCongestionApproximator(
        graph,
        [RootedTree(tree.parent, induced_cut_capacities(graph, tree))],
        alpha=1.0,
    )
    rng = np.random.default_rng(seed)
    b = rng.normal(size=graph.num_nodes)
    y = rng.normal(size=op.num_rows)
    lhs = float(op.apply(b) @ y)
    rhs = float(b @ op.apply_transpose(y))
    assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))


@given(graphs_and_seeds())
@settings(**COMMON)
def test_tree_operator_rows_are_scaled_subtree_indicators(case):
    """R's rows are exactly (subtree indicator)/cut-capacity."""
    graph, seed = case
    tree = bfs_tree(graph, root=0)
    cuts = induced_cut_capacities(graph, tree)
    op = TreeCongestionApproximator(
        graph, [RootedTree(tree.parent, cuts)], alpha=1.0
    )
    # Apply to a point mass at a random node: the result picks out the
    # rows of all subtrees containing it.
    rng = np.random.default_rng(seed)
    node = int(rng.integers(0, graph.num_nodes))
    b = np.zeros(graph.num_nodes)
    b[node] = 1.0
    values = op.apply(b)
    ancestors = set()
    walk = node
    while walk >= 0:
        ancestors.add(walk)
        walk = tree.parent[walk]
    row_nodes = [v for v in range(graph.num_nodes) if tree.parent[v] >= 0]
    for row_index, v in enumerate(row_nodes):
        expected = (1.0 / cuts[v]) if v in ancestors else 0.0
        assert abs(values[row_index] - expected) <= 1e-12


# ---------------------------------------------------------------------------
# Distributed primitives vs centralized results
# ---------------------------------------------------------------------------


@given(graphs_and_seeds(max_nodes=12))
@settings(deadline=None, max_examples=8,
          suppress_health_check=[HealthCheck.too_slow])
def test_distributed_tree_flow_matches_centralized(case):
    from repro.congest import distributed_tree_flow

    graph, _ = case
    tree = bfs_tree(graph, root=0)
    run = distributed_tree_flow(graph, tree)
    central = induced_cut_capacities(graph, tree)
    children = [v for v in range(graph.num_nodes) if tree.parent[v] >= 0]
    np.testing.assert_allclose(
        run.cut_capacity[children], central[children], rtol=1e-9
    )


@given(graphs_and_seeds(max_nodes=12))
@settings(deadline=None, max_examples=8,
          suppress_health_check=[HealthCheck.too_slow])
def test_distributed_boruvka_matches_kruskal(case):
    from repro.congest import distributed_spanning_tree
    from repro.flow.mst import minimum_spanning_tree

    graph, _ = case
    run = distributed_spanning_tree(graph, maximize=False)
    tree = minimum_spanning_tree(graph)
    kruskal = sum(
        tree.capacity[v]
        for v in range(graph.num_nodes)
        if tree.parent[v] >= 0
    )
    assert abs(run.total_weight - kruskal) <= 1e-9 * max(1.0, kruskal)

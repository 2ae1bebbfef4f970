"""Tests for the j-tree machinery: skeleton/portals, Madry steps, the
MWU distribution, and the recursive hierarchy (§§4, 8)."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from parallel_harness import tree_multigraph
from repro.errors import GraphError
from repro.graphs.cuts import sparsest_cut_brute_force
from repro.graphs.generators import (
    grid,
    path,
    random_connected,
    random_regular_expander,
)
from repro.graphs.graph import Graph
from repro.jtree import (
    HierarchyParams,
    build_jtree_distribution,
    build_skeleton,
    madry_jtree_step,
    sample_virtual_tree,
    sample_virtual_trees,
    select_load_classes,
)
from repro.jtree.mwu import MAX_EXPONENT, mwu_lengths


class TestSkeleton:
    def test_no_portals_single_component(self):
        # A path forest with no F edges: one component, canonical portal.
        edges = [(i, i + 1, 1.0) for i in range(4)]
        result = build_skeleton(5, edges, set())
        assert len(result.component_portal) == 1

    def test_two_portals_on_path_get_separated(self):
        # Path 0-1-2-3-4; portals {0, 4}: min-cap edge deleted.
        edges = [(0, 1, 5.0), (1, 2, 1.0), (2, 3, 5.0), (3, 4, 5.0)]
        result = build_skeleton(5, edges, {0, 4})
        assert len(result.deleted_path_edges) == 1
        assert result.deleted_path_edges[0][:2] == (1, 2)
        assert result.component[0] != result.component[4]

    def test_each_component_has_one_portal(self):
        edges = [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (3, 4, 4.0),
                 (2, 5, 1.0), (5, 6, 2.0)]
        result = build_skeleton(7, edges, {0, 4, 6})
        portals = result.portals
        for comp in range(len(result.component_portal)):
            members = [v for v in range(7) if result.component[v] == comp]
            inside = [v for v in members if v in portals]
            assert len(inside) <= 1

    def test_degree_gt2_skeleton_node_becomes_secondary_portal(self):
        # Star of three paths meeting at node 0 with leaf portals: node
        # 0 has skeleton degree 3 -> secondary portal.
        edges = [(0, 1, 1.0), (1, 2, 1.0), (0, 3, 1.0), (3, 4, 1.0),
                 (0, 5, 1.0), (5, 6, 1.0)]
        result = build_skeleton(7, edges, {2, 4, 6})
        assert 0 in result.secondary_portals

    def test_dangling_trees_stay_with_their_component(self):
        # Path 0-1-2 with portal {0, 2} and a dangling leaf 3 off 1.
        edges = [(0, 1, 2.0), (1, 2, 1.0), (1, 3, 9.0)]
        result = build_skeleton(4, edges, {0, 2})
        # edge (1,2) (min cap on the 0..2 path) is deleted; 3 hangs off 1.
        assert result.component[3] == result.component[1]

    def test_portal_count_lemma_8_5(self):
        # |P| < 4 |F|: build a random forest scenario.
        g = random_connected(40, 0.1, rng=41)
        from repro.graphs.trees import bfs_tree

        tree = bfs_tree(g, root=0)
        removed = [5, 11, 17]
        forest = [
            (v, tree.parent[v], 1.0)
            for v in range(40)
            if tree.parent[v] >= 0 and v not in removed
        ]
        primary = set()
        for v in removed:
            primary.add(v)
            primary.add(tree.parent[v])
        result = build_skeleton(40, forest, primary)
        assert len(result.portals) < 4 * max(len(removed), 1) + 1


class TestSelectLoadClasses:
    def test_empty_children(self):
        assert select_load_classes(np.zeros(3), [], 5) == []

    def test_removal_bounded_by_j(self):
        rload = np.array([0, 100, 50, 25, 12, 6, 3, 1], dtype=float)
        children = list(range(1, 8))
        removed = select_load_classes(rload, children, j=3)
        assert len(removed) <= 3

    def test_top_class_big_means_no_removal(self):
        rload = np.array([0] + [10.0] * 9)
        removed = select_load_classes(rload, list(range(1, 10)), j=4)
        assert removed == []

    def test_removed_edges_have_highest_load(self):
        # j large enough that the singleton top class is below quota:
        # the rule removes it and keeps the big low-load class.
        rload = np.array([0, 1000.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        children = list(range(1, 8))
        removed = select_load_classes(rload, children, j=7)
        assert removed == [1]

    def test_singleton_top_class_kept_when_quota_is_one(self):
        # With tiny j the quota is 1, so the first nonempty class is
        # accepted as i0 and nothing above it exists to remove.
        rload = np.array([0, 1000.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        children = list(range(1, 8))
        assert select_load_classes(rload, children, j=3) == []


class TestMadryStep:
    def test_step_on_grid(self):
        g = grid(6, 6, rng=51)
        step = madry_jtree_step(g, None, j=4, rng=52)
        n = g.num_nodes
        assert len(step.component_of) == n
        assert step.num_components >= 1
        # Forest parents stay within components.
        for v in range(n):
            p = step.forest_parent[v]
            if p >= 0:
                assert step.component_of[p] == step.component_of[v]

    def test_forest_edges_are_quotient_edges(self):
        g = random_connected(30, 0.12, rng=53)
        step = madry_jtree_step(g, None, j=3, rng=54)
        for v in range(30):
            if step.forest_parent[v] >= 0:
                eid = step.forest_edge[v]
                u, w = g.endpoints(eid)
                assert {u, w} == {v, step.forest_parent[v]}

    def test_core_edges_cross_components(self):
        g = random_connected(30, 0.12, rng=55)
        step = madry_jtree_step(g, None, j=3, rng=56)
        for ce in step.core_edges:
            assert ce.component_u != ce.component_v

    def test_core_edge_capacities_positive(self):
        g = random_connected(30, 0.15, rng=57)
        step = madry_jtree_step(g, None, j=4, rng=58)
        assert all(ce.capacity > 0 for ce in step.core_edges)

    def test_rload_at_least_one_on_tree_edges(self):
        # rload = cut capacity / edge capacity >= 1 (the edge itself
        # crosses its own induced cut).
        g = random_connected(25, 0.15, rng=59)
        step = madry_jtree_step(g, None, j=3, rng=60)
        for v in range(25):
            if step.tree.parent[v] >= 0:
                assert step.rload[v] >= 1.0 - 1e-9

    def test_too_small_graph_rejected(self):
        with pytest.raises(GraphError):
            madry_jtree_step(Graph(1), None, j=1, rng=1)

    def test_extra_removals_forced_into_f(self):
        g = path(10, rng=1)
        step = madry_jtree_step(g, None, j=2, rng=61, extra_removals=[5])
        assert 5 in step.removed_edges


class TestMwuDistribution:
    def test_weights_normalized(self):
        g = random_connected(25, 0.15, rng=62)
        dist = build_jtree_distribution(g, j=3, num_trees=4, rng=63)
        assert dist.weights.sum() == pytest.approx(1.0)
        assert len(dist.steps) >= 1

    def test_sampling_returns_member(self):
        g = random_connected(25, 0.15, rng=64)
        dist = build_jtree_distribution(g, j=3, num_trees=3, rng=65)
        step = dist.sample(rng=66)
        assert step in dist.steps

    def test_potentials_grow_on_loaded_edges(self):
        g = random_connected(25, 0.15, rng=67)
        dist = build_jtree_distribution(g, j=3, num_trees=4, rng=68)
        assert dist.potentials.max() > 0

    def test_invalid_num_trees(self):
        g = random_connected(10, 0.3, rng=69)
        with pytest.raises(GraphError):
            build_jtree_distribution(g, j=2, num_trees=0, rng=70)


class TestHierarchy:
    def test_virtual_tree_spans_with_graph_edges(self):
        g = random_connected(60, 0.08, rng=71)
        vt = sample_virtual_tree(g, rng=72)
        pairs = {(min(e.u, e.v), max(e.u, e.v)) for e in g.edges()}
        for v in range(60):
            p = vt.tree.parent[v]
            if p >= 0:
                assert (min(v, p), max(v, p)) in pairs

    def test_capacities_are_induced_cut_capacities(self):
        from repro.graphs.cuts import cut_capacity

        g = random_connected(20, 0.2, rng=73)
        vt = sample_virtual_tree(g, rng=74)
        children = vt.tree.children()
        for v in range(1, 12):
            if vt.tree.parent[v] < 0:
                continue
            members, stack = [v], [v]
            while stack:
                node = stack.pop()
                for ch in children[node]:
                    members.append(ch)
                    stack.append(ch)
            assert vt.tree.capacity[v] == pytest.approx(
                cut_capacity(g, members)
            )

    def test_cluster_counts_decrease(self):
        g = random_connected(80, 0.06, rng=75)
        vt = sample_virtual_tree(
            g, rng=76, params=HierarchyParams(beta=2, final_threshold=4)
        )
        counts = vt.cluster_counts
        assert counts[0] == 80
        assert counts[-1] == 1
        assert all(a > b for a, b in zip(counts, counts[1:]))

    def test_single_node_graph(self):
        vt = sample_virtual_tree(Graph(1), rng=1)
        assert vt.tree.num_nodes == 1

    def test_two_node_graph(self):
        g = Graph(2, [(0, 1, 7.0)])
        vt = sample_virtual_tree(g, rng=2)
        child = 1 if vt.tree.parent[1] == 0 else 0
        assert vt.tree.capacity[child] == pytest.approx(7.0)

    def test_disconnected_rejected(self):
        from repro.errors import DisconnectedGraphError

        g = Graph(3, [(0, 1, 1.0)])
        with pytest.raises(DisconnectedGraphError):
            sample_virtual_tree(g, rng=1)

    def test_congestion_estimate_never_exceeds_opt(self):
        """The unconditional soundness property (Lemma 3.3 lower side)."""
        g = random_connected(11, 0.3, rng=77)
        vt = sample_virtual_tree(g, rng=78)
        rng = np.random.default_rng(79)
        for _ in range(15):
            demand = rng.normal(size=11)
            demand -= demand.mean()
            estimate = float(vt.tree.congestion_for_demand(demand).max())
            _, opt = sparsest_cut_brute_force(g, demand)
            assert estimate <= opt + 1e-9

    def test_topj_policy_gives_multilevel_recursion(self):
        g = random_connected(100, 0.05, rng=82)
        params = HierarchyParams(
            beta=2, final_threshold=5, removal_policy="topj"
        )
        vt = sample_virtual_tree(g, rng=83, params=params)
        assert vt.levels >= 2
        # Still a sound spanning tree of G.
        pairs = {(min(e.u, e.v), max(e.u, e.v)) for e in g.edges()}
        for v in range(100):
            p = vt.tree.parent[v]
            if p >= 0:
                assert (min(v, p), max(v, p)) in pairs

    def test_unknown_removal_policy_rejected(self):
        g = random_connected(10, 0.3, rng=84)
        with pytest.raises(GraphError):
            madry_jtree_step(g, None, j=2, rng=85, removal_policy="bogus")

    def test_phases_and_levels_reported(self):
        g = random_regular_expander(48, rng=80)
        vt = sample_virtual_tree(g, rng=81)
        assert vt.phases > 0
        assert vt.levels >= 0
        assert len(vt.cluster_counts) >= 2


class TestHierarchyParams:
    def test_beta_floored_at_two(self):
        assert HierarchyParams(beta=0.5).resolved_beta(100) == 2.0
        assert HierarchyParams(beta=-3.0).resolved_beta(100) == 2.0
        assert HierarchyParams(beta=8.0).resolved_beta(100) == 8.0

    def test_default_beta_follows_paper_formula(self):
        import math

        n = 1024
        expected = 2.0 ** (math.log2(n) ** 0.75)
        assert HierarchyParams().resolved_beta(n) == pytest.approx(expected)

    def test_final_threshold_resolution(self):
        # Explicit values are floored at 2; the default is max(3, isqrt).
        assert HierarchyParams(final_threshold=0).resolved_threshold(100) == 2
        assert HierarchyParams(final_threshold=7).resolved_threshold(100) == 7
        assert HierarchyParams().resolved_threshold(100) == 10
        assert HierarchyParams().resolved_threshold(4) == 3

    def test_max_levels_exhaustion_raises(self):
        # Forcing deep recursion but allowing one level must fail loudly
        # (GraphError) instead of looping or silently collapsing a huge
        # remaining core.
        g = random_connected(100, 0.05, rng=82)
        params = HierarchyParams(
            beta=2, final_threshold=5, removal_policy="topj", max_levels=1
        )
        with pytest.raises(GraphError, match="max_levels"):
            sample_virtual_tree(g, rng=83, params=params)

    def test_topj_deep_recursion_on_small_graph(self):
        g = random_connected(30, 0.15, rng=86)
        params = HierarchyParams(
            beta=2, final_threshold=3, removal_policy="topj"
        )
        vt = sample_virtual_tree(g, rng=87, params=params)
        assert vt.levels >= 2
        assert vt.cluster_counts[0] == 30
        pairs = {(min(e.u, e.v), max(e.u, e.v)) for e in g.edges()}
        for v in range(30):
            p = vt.tree.parent[v]
            if p >= 0:
                assert (min(v, p), max(v, p)) in pairs


def _trees_digest(trees) -> str:
    """A sha256 prefix over the integer outputs of sampled trees.

    Each tree contributes its parent array and its ``levels``,
    ``phases``, ``sparsifier_rounds`` and ``cluster_counts``, all as
    little-endian int64. Floats are left out on purpose: the parents
    determine the induced-cut capacities, and integer bytes cannot move
    when NumPy's floating-point kernels change.
    """
    digest = hashlib.sha256()
    for vt in trees:
        digest.update(np.asarray(vt.tree.parent, dtype="<i8").tobytes())
        counts = [
            vt.levels,
            vt.phases,
            vt.sparsifier_rounds,
            len(vt.cluster_counts),
            *vt.cluster_counts,
        ]
        digest.update(np.asarray(counts, dtype="<i8").tobytes())
    return digest.hexdigest()[:16]


#: case -> ((nodes, edge probability, graph seed), samples, rng seed,
#: params, digest). The digests were recorded from a sampler that
#: matched the one-sample-at-a-time loop draw for draw, so they pin the
#: order of every generator draw in the recursion. An edge probability
#: of ``None`` selects :func:`tree_multigraph` instead of
#: ``random_connected``.
SAMPLER_GOLDENS = {
    "default-0": ((70, 0.08, 100), 5, 0, None, "57f367393b64fcb6"),
    "default-1": ((70, 0.08, 101), 5, 1, None, "9a79de33b07c2b4f"),
    "default-2": ((70, 0.08, 102), 5, 2, None, "b1c3fd1bfda6e655"),
    # Forces multi-level recursion (cores of size Θ(j) per level).
    "topj": (
        (90, 0.06, 110),
        4,
        9,
        HierarchyParams(beta=2, final_threshold=4, removal_policy="topj"),
        "ef5b5989e9ef7732",
    ),
    # Dense enough that the level-0 core is above the sparsifier
    # target, so every sample sparsifies before its first MWU loop.
    "sparsified": ((64, 0.6, 111), 4, 10, None, "a958c8bb08206af8"),
    # Parallel edges with distinct capacities, so every AKPW tree picks
    # one edge out of several joining the same pair of clusters.
    "multigraph": ((64, None, 112), 4, 11, None, "4d92f2067700b4d4"),
}


class TestBatchedSampling:
    """``sample_virtual_trees``: the O(log n) independent samples of
    Lemma 3.3, each drawn on its own child generator."""

    @pytest.mark.parametrize("case", list(SAMPLER_GOLDENS))
    def test_sampled_trees_match_golden(self, case):
        (nodes, prob, graph_seed), samples, seed, params, expected = (
            SAMPLER_GOLDENS[case]
        )
        if prob is None:
            g = tree_multigraph(nodes, graph_seed)
        else:
            g = random_connected(nodes, prob, rng=graph_seed)
        trees = sample_virtual_trees(g, samples, rng=seed, params=params)
        assert len(trees) == samples
        if case == "topj":
            assert any(vt.levels >= 2 for vt in trees)
        if case == "sparsified":
            assert any(vt.sparsifier_rounds > 0 for vt in trees)
        assert _trees_digest(trees) == expected

    def test_stacked_mwu_lengths_equal_the_rows(self):
        # mwu_lengths is elementwise, so a (samples × edges) stack (the
        # mwu_lengths_n4096 benchmark row times one) must equal the 1-D
        # evaluation row by row, bit for bit, clamped potentials included.
        g = random_connected(72, 0.08, rng=101)
        caps = g.capacities()
        stack = np.random.default_rng(101).uniform(
            0.0, 60.0, size=(9, g.num_edges)
        )
        assert (stack > MAX_EXPONENT).any() and (stack < MAX_EXPONENT).any()
        stacked = mwu_lengths(stack, caps)
        assert stacked.shape == stack.shape
        for row in range(len(stack)):
            np.testing.assert_array_equal(
                mwu_lengths(stack[row], caps), stacked[row]
            )

    def test_empty_and_single_node_requests(self):
        assert sample_virtual_trees(Graph(1), 0, rng=1) == []
        trees = sample_virtual_trees(Graph(1), 3, rng=1)
        assert len(trees) == 3
        assert all(vt.tree.num_nodes == 1 for vt in trees)

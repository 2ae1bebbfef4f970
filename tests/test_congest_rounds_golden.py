"""Round-accounting goldens for the congest layer (Lemmas 5.1 / 8.1).

The simulated CONGEST cost model is part of what this library
reproduces: ``simulate_cluster_round`` charges ``2·depth + O(1)``
network rounds per cluster round (Lemma 5.1) and
``distributed_tree_flow`` ``O(depth)`` pipelined windows (Lemma 8.1).
Those counts are *outputs* of the substrate — they depend on traversal
order, tree shapes, and contraction results — so a substrate refactor
that silently changed any of them would skew every round-complexity
experiment while all value-level tests stayed green.

These tests pin exact round counts on small goldens, including runs on
**contracted** graphs (quotients from ``Graph.contract`` and a real
Madry merge step).
"""

from __future__ import annotations

import numpy as np

from repro.cluster import ClusterGraph
from repro.congest import cluster_flood_max, simulate_cluster_round
from repro.congest.tree_flow import distributed_tree_flow
from repro.graphs.generators import grid, path, random_connected
from repro.graphs.graph import Graph
from repro.graphs.trees import bfs_tree, induced_cut_capacities
from repro.jtree.mwu import build_jtree_distribution
from repro.util.rng import as_generator


def _merged_cluster_graph(n=30, seed=201, j=4):
    """A nontrivial cluster graph produced by one real Madry step
    (clusters are contracted forest components of the level-0 graph)."""
    g = random_connected(n, 0.12, rng=seed)
    cg = ClusterGraph.trivial(g)
    rng = as_generator(seed + 1)
    dist = build_jtree_distribution(
        cg.quotient, j=j, num_trees=2, rng=rng, removal_policy="topj"
    )
    step = dist.sample(rng)
    new_quotient = Graph(step.num_components)
    new_origin = []
    for ce in step.core_edges:
        new_quotient.add_edge(ce.component_u, ce.component_v, ce.capacity)
        new_origin.append(cg.edge_origin[ce.quotient_edge])
    merged = cg.merge_along_forest(
        step.forest_parent,
        step.forest_edge,
        new_quotient,
        new_origin,
        step.component_of,
    )
    merged.validate()
    return merged


class TestClusterRoundGoldens:
    def test_trivial_cluster_round_cost(self):
        """Singleton clusters have depth 0: one cluster round is the
        psi exchange plus the leader's own convergecast — 2 rounds."""
        cg = ClusterGraph.trivial(path(10, rng=11))
        result = simulate_cluster_round(cg, list(range(10)), max)
        assert result.rounds == 2

    def test_merged_cluster_round_cost(self):
        """One real Madry merge step: 5 clusters of depth 6. The
        Lemma 5.1 charge is 2·depth + O(1); the simulator measures
        exactly 14 = 2·6 + 2 network rounds on this golden."""
        merged = _merged_cluster_graph()
        assert merged.num_clusters == 5
        assert merged.cluster_tree_depth() == 6
        result = simulate_cluster_round(
            merged, list(range(merged.num_clusters)), max
        )
        assert result.rounds == 14
        assert result.rounds == 2 * merged.cluster_tree_depth() + 2

    def test_flood_max_total_round_golden(self):
        """Flood-max composes cluster rounds; the total network-round
        bill on the merged golden is pinned (2 productive cluster
        rounds at 14 rounds each on this instance)."""
        merged = _merged_cluster_graph()
        winner, total = cluster_flood_max(merged)
        assert winner == merged.num_clusters - 1
        assert total == 28

    def test_contracted_quotient_cluster_round_cost(self):
        """Trivial clustering of a Graph.contract quotient: the
        simulation runs on the contracted multigraph and still charges
        the depth-0 cost of 2 rounds."""
        g = grid(6, 6, rng=41)
        labels = [v // 3 for v in range(g.num_nodes)]
        quotient, _ = g.contract(labels, keep_parallel=False)
        assert (quotient.num_nodes, quotient.num_edges) == (12, 16)
        cg = ClusterGraph.trivial(quotient)
        result = simulate_cluster_round(
            cg, list(range(quotient.num_nodes)), max
        )
        assert result.rounds == 2


class TestTreeFlowGoldens:
    def test_base_graph_round_golden(self):
        """Lemma 8.1 on a 16-node golden: window W = height + 1 = 4,
        phases 1-2 take 2W rounds, the pipelined convergecast the
        rest — 11 rounds total, pinned."""
        g = random_connected(16, 0.2, rng=37)
        tree = bfs_tree(g, root=0)
        run = distributed_tree_flow(g, tree)
        assert run.rounds == 11
        reference = induced_cut_capacities(g, tree)
        assert np.allclose(run.cut_capacity[1:], reference[1:])

    def test_contracted_quotient_round_golden(self):
        """Lemma 8.1 on a contracted quotient (merged parallel edges):
        the deeper 12-node quotient tree pays 27 rounds, pinned, and
        the distributed cuts still match the centralized oracle."""
        g = grid(6, 6, rng=41)
        labels = [v // 3 for v in range(g.num_nodes)]
        quotient, _ = g.contract(labels, keep_parallel=False)
        tree = bfs_tree(quotient, root=0)
        run = distributed_tree_flow(quotient, tree)
        assert run.rounds == 27
        reference = induced_cut_capacities(quotient, tree)
        assert np.allclose(run.cut_capacity[1:], reference[1:])

    def test_round_scaling_with_window(self):
        """The round bill grows with tree height (the O(d) of Lemma
        8.1): a path's BFS tree costs strictly more windows than a
        star-ish random graph of the same size."""
        shallow = random_connected(16, 0.5, rng=38)
        deep = path(16, rng=39)
        shallow_rounds = distributed_tree_flow(
            shallow, bfs_tree(shallow, root=0)
        ).rounds
        deep_rounds = distributed_tree_flow(deep, bfs_tree(deep, root=0)).rounds
        assert deep_rounds > shallow_rounds

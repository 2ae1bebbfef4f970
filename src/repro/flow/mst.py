"""Maximum-weight spanning tree (Algorithm 1, step 5).

The paper routes the leftover demand of the gradient descent over a
maximum-capacity spanning tree (computed distributedly with
Kutten–Peleg in Õ(D + √n) rounds; Lemma 9.1). Here we provide the
centralized Kruskal equivalent; the round cost is charged by
:mod:`repro.congest.cost`.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.trees import RootedTree, spanning_tree_from_edges

__all__ = ["maximum_spanning_tree", "minimum_spanning_tree"]


class _DisjointSets:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.rank = [0] * n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
        return True


def _kruskal(graph: Graph, maximize: bool, root: int) -> RootedTree:
    """Kruskal's tree, rooted at ``root``; each tree edge carries the
    capacity of the graph edge Kruskal picked for it (``parent_edge``).
    Among parallel edges that is the first in the sorted order: the
    extreme capacity, lowest id on ties."""
    graph.require_connected()
    caps_arr = graph.capacities()
    # Stable argsort = sorted(..., reverse=maximize): equal capacities
    # keep ascending edge-id order either way.
    order = np.argsort(-caps_arr if maximize else caps_arr, kind="stable")
    tails, heads = graph.edge_index_arrays()
    tails_l, heads_l = tails.tolist(), heads.tolist()
    sets = _DisjointSets(graph.num_nodes)
    chosen: list[int] = []
    for eid in order.tolist():
        if sets.union(tails_l[eid], heads_l[eid]):
            chosen.append(eid)
            if len(chosen) == graph.num_nodes - 1:
                break
    tree = spanning_tree_from_edges(graph, chosen, root=root)
    child = tree.parent_edge >= 0
    tree.capacity[child] = caps_arr[tree.parent_edge[child]]
    return tree


def maximum_spanning_tree(graph: Graph, root: int = 0) -> RootedTree:
    """Spanning tree maximizing total capacity (and, classically, the
    bottleneck capacity on every tree path)."""
    return _kruskal(graph, maximize=True, root=root)


def minimum_spanning_tree(graph: Graph, root: int = 0) -> RootedTree:
    """Spanning tree minimizing total capacity."""
    return _kruskal(graph, maximize=False, root=root)

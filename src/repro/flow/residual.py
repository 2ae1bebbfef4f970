"""Residual-network representation shared by the exact max-flow
algorithms (Dinic, Edmonds–Karp, push-relabel).

The undirected input graph is expanded into a directed residual
network: each undirected edge {u, v} of capacity c becomes a pair of
arcs u->v and v->u, *each* with capacity c (an undirected edge can
carry up to c in either direction), plus the usual reverse-arc
bookkeeping. The final undirected flow on edge e is the net of the two
directions, so |f_e| <= cap(e) automatically holds.

Arc ids are a pure function of edge ids (arc ``2e`` is the forward
direction of edge ``e``, arc ``2e + 1`` the reverse), so the per-node
arc lists are the graph's cached CSR rows with arc ids computed
vectorized. The network is plain Python lists: the augmenting-path
loops and the one FIFO BFS below walk them element by element.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph

__all__ = ["ResidualNetwork"]


class ResidualNetwork:
    """Arc-list residual network built from an undirected graph.

    Arcs are stored in pairs: arc ``2k`` is the forward direction of
    edge ``k`` (its fixed u->v orientation) and arc ``2k + 1`` is its
    reverse. For an undirected edge of capacity c we create the pair
    (u->v cap c, v->u cap c); the pair is mutually reverse, which
    encodes exactly the undirected capacity constraint |net flow| <= c.

    Attributes:
        arc_head: Head node of every arc.
        arc_cap: Residual capacity of every arc.
        adjacency: Per-node outgoing arc ids, in edge-insertion order.
    """

    def __init__(self, graph: Graph) -> None:
        n = graph.num_nodes
        self.num_nodes = n
        csr = graph.csr()
        tails, heads = graph.edge_index_arrays()
        # From node x, edge e offers the arc toward its other endpoint:
        # the forward arc 2e when x is the tail, else the reverse 2e+1.
        arc_ids = (
            2 * csr.edge_id + (csr.neighbor == tails[csr.edge_id])
        ).tolist()
        ptr = csr.indptr.tolist()
        self.adjacency: list[list[int]] = [
            arc_ids[ptr[v] : ptr[v + 1]] for v in range(n)
        ]
        self.arc_head: list[int] = (
            np.column_stack((heads, tails)).ravel().tolist()
        )
        self.arc_cap: list[float] = np.repeat(graph.capacities(), 2).tolist()

    def push(self, arc: int, amount: float) -> None:
        """Send ``amount`` along ``arc`` (decreasing its residual
        capacity and increasing the reverse's)."""
        self.arc_cap[arc] -= amount
        self.arc_cap[arc ^ 1] += amount

    def residual(self, arc: int) -> float:
        """Remaining capacity of ``arc``."""
        return self.arc_cap[arc]

    def levels(self, source: int, threshold: float = 1e-12) -> list[int]:
        """Hop distance of every node from ``source`` along arcs with
        residual above ``threshold`` (FIFO BFS), ``-1`` where
        unreachable: Dinic's level graph, and at the final residual the
        source side of a minimum cut."""
        adjacency, head, cap = self.adjacency, self.arc_head, self.arc_cap
        level = [-1] * self.num_nodes
        level[source] = 0
        order = [source]
        for node in order:  # appending while iterating makes ``order`` the queue
            step = level[node] + 1
            for arc in adjacency[node]:
                if cap[arc] > threshold and level[head[arc]] < 0:
                    level[head[arc]] = step
                    order.append(head[arc])
        return level

    def net_flow_vector(self) -> np.ndarray:
        """Recover the undirected flow vector (indexed by graph edge id,
        positive in the fixed u->v orientation) from residual state.

        For the arc pair of edge e with original capacity c: both
        directions start at capacity c; pushing x along u->v leaves
        r_fwd = c - x, r_rev = c + x, so net = (r_rev - r_fwd) / 2 = x.
        """
        caps = np.asarray(self.arc_cap, dtype=float)
        return (caps[1::2] - caps[0::2]) / 2.0

"""Dinic's exact maximum-flow algorithm.

This is the library's ground-truth oracle: every approximate flow the
Sherman pipeline produces is validated against the value Dinic
computes. (The paper uses exact max flow only implicitly, via the
max-flow min-cut theorem; for a reproduction we need the oracle to
measure approximation ratios.)

Each phase builds the level graph with the residual network's FIFO BFS
and saturates it with a blocking flow found by an explicit-stack
depth-first search over plain lists, so an augmenting path may be as
long as the graph: a large-diameter network needs no recursion depth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError
from repro.flow.residual import ResidualNetwork
from repro.graphs.graph import Graph

__all__ = ["MaxFlowResult", "dinic_max_flow"]


@dataclass(frozen=True)
class MaxFlowResult:
    """Result of an exact max-flow computation.

    Attributes:
        value: The maximum flow value.
        flow: Signed flow per undirected edge id (positive along the
            edge's fixed u->v orientation).
        min_cut_side: Source side of a minimum cut (node ids), certified
            by the final residual reachability.
    """

    value: float
    flow: np.ndarray
    min_cut_side: frozenset[int]

    @classmethod
    def from_residual(
        cls, net: ResidualNetwork, source: int, value: float
    ) -> "MaxFlowResult":
        """Read the flow and the minimum cut (the nodes still reachable
        from ``source``) off a final residual network."""
        level = net.levels(source, threshold=1e-9)
        return cls(
            value=value,
            flow=net.net_flow_vector(),
            min_cut_side=frozenset(v for v, d in enumerate(level) if d >= 0),
        )


def dinic_max_flow(graph: Graph, source: int, sink: int) -> MaxFlowResult:
    """Compute the exact maximum s-t flow of an undirected graph.

    Args:
        graph: Undirected capacitated graph.
        source: Source node.
        sink: Sink node (must differ from source).

    Returns:
        A :class:`MaxFlowResult` with the optimal value, a feasible flow
        achieving it, and a certified minimum cut.

    Raises:
        GraphError: If a terminal is not a node of ``graph``, or the
            terminals coincide.
    """
    graph._check_node(source)
    graph._check_node(sink)
    if source == sink:
        raise GraphError("source and sink must differ")
    net = ResidualNetwork(graph)
    adjacency, head, cap = net.adjacency, net.arc_head, net.arc_cap
    value = 0.0
    while True:
        level = net.levels(source)
        top = level[sink]
        if top < 0:
            break
        # No node at the sink's depth or beyond leads to the sink, so
        # the search below never needs to enter one.
        level = [d if d < top else -1 for d in level]
        level[sink] = top
        # Blocking flow: advance along admissible arcs (one level
        # deeper, residual above 1e-12), retreat from dead ends, and
        # push each source-sink path as soon as it is found. arc_iter
        # keeps every node's scan position for the whole phase.
        arc_iter = [0] * net.num_nodes
        path: list[int] = []
        node = source
        while True:
            if node == sink:
                amount = min(cap[arc] for arc in path)
                for arc in path:
                    cap[arc] -= amount
                    cap[arc ^ 1] += amount
                value += amount
                # The arcs before the first one this push closed stay
                # admissible: resume the search at that arc's tail.
                closed = next(
                    i for i, arc in enumerate(path) if cap[arc] <= 1e-12
                )
                node = head[path[closed] ^ 1]
                del path[closed:]
                continue
            arcs = adjacency[node]
            step = level[node] + 1
            for i in range(arc_iter[node], len(arcs)):
                arc = arcs[i]
                if level[head[arc]] == step and cap[arc] > 1e-12:
                    arc_iter[node] = i
                    path.append(arc)
                    node = head[arc]
                    break
            else:
                arc_iter[node] = len(arcs)
                if node == source:
                    break
                # Dead end: retreat and skip the arc that led here.
                node = head[path.pop() ^ 1]
                arc_iter[node] += 1
    return MaxFlowResult.from_residual(net, source, value)

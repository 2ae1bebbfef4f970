"""Edmonds–Karp exact maximum flow.

A second, independent exact oracle. The test suite cross-checks Dinic
against Edmonds–Karp so that a bug in the shared residual machinery or
in either algorithm can't silently corrupt the ground truth used to
grade the approximate pipeline.
"""

from __future__ import annotations

from collections import deque

from repro.errors import GraphError
from repro.flow.dinic import MaxFlowResult
from repro.flow.residual import ResidualNetwork
from repro.graphs.graph import Graph

__all__ = ["edmonds_karp_max_flow"]


def edmonds_karp_max_flow(graph: Graph, source: int, sink: int) -> MaxFlowResult:
    """Exact max s-t flow via shortest augmenting paths (BFS)."""
    graph._check_node(source)
    graph._check_node(sink)
    if source == sink:
        raise GraphError("source and sink must differ")
    net = ResidualNetwork(graph)
    value = 0.0
    while True:
        # BFS for an augmenting path.
        parent_arc = [-1] * net.num_nodes
        parent_arc[source] = -2
        queue = deque([source])
        found = False
        while queue and not found:
            node = queue.popleft()
            for arc in net.adjacency[node]:
                head = net.arc_head[arc]
                if parent_arc[head] == -1 and net.residual(arc) > 1e-12:
                    parent_arc[head] = arc
                    if head == sink:
                        found = True
                        break
                    queue.append(head)
        if not found:
            break
        # Find bottleneck and augment.
        bottleneck = float("inf")
        node = sink
        while node != source:
            arc = parent_arc[node]
            bottleneck = min(bottleneck, net.residual(arc))
            node = net.arc_head[arc ^ 1]
        node = sink
        while node != source:
            arc = parent_arc[node]
            net.push(arc, bottleneck)
            node = net.arc_head[arc ^ 1]
        value += bottleneck
    return MaxFlowResult.from_residual(net, source, value)

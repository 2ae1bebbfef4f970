"""Centralized Goldberg–Tarjan push-relabel with FIFO selection.

The paper's Section 1.2 singles out push-relabel as "very local and
simple to implement in the CONGEST model" but needing Ω(n²) rounds; the
distributed variant lives in :mod:`repro.congest.push_relabel`. This
centralized version serves as (a) a third exact oracle and (b) the
reference the distributed one is validated against.
"""

from __future__ import annotations

from collections import deque

from repro.errors import GraphError
from repro.flow.dinic import MaxFlowResult
from repro.flow.residual import ResidualNetwork
from repro.graphs.graph import Graph

__all__ = ["push_relabel_max_flow"]


def push_relabel_max_flow(graph: Graph, source: int, sink: int) -> MaxFlowResult:
    """Exact max s-t flow via FIFO push-relabel."""
    graph._check_node(source)
    graph._check_node(sink)
    if source == sink:
        raise GraphError("source and sink must differ")
    net = ResidualNetwork(graph)
    n = net.num_nodes
    height = [0] * n
    excess = [0.0] * n
    height[source] = n

    active: deque[int] = deque()

    def push(arc: int, tail: int) -> None:
        head = net.arc_head[arc]
        amount = min(excess[tail], net.residual(arc))
        net.push(arc, amount)
        excess[tail] -= amount
        if excess[head] == 0.0 and head not in (source, sink):
            active.append(head)
        excess[head] += amount

    # Saturate source arcs.
    for arc in list(net.adjacency[source]):
        if net.residual(arc) > 0:
            excess[source] += net.residual(arc)
            push(arc, source)
    excess[source] = 0.0

    arc_pointer = [0] * n
    while active:
        node = active.popleft()
        while excess[node] > 1e-12:
            if arc_pointer[node] >= len(net.adjacency[node]):
                # Relabel: one more than the lowest admissible neighbor.
                lowest = min(
                    (
                        height[net.arc_head[a]]
                        for a in net.adjacency[node]
                        if net.residual(a) > 1e-12
                    ),
                    default=None,
                )
                if lowest is None:
                    break
                height[node] = lowest + 1
                arc_pointer[node] = 0
                continue
            arc = net.adjacency[node][arc_pointer[node]]
            head = net.arc_head[arc]
            if net.residual(arc) > 1e-12 and height[node] == height[head] + 1:
                push(arc, node)
            else:
                arc_pointer[node] += 1

    return MaxFlowResult.from_residual(net, source, float(excess[sink]))

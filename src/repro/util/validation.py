"""Flow and demand validation.

Every flow the library emits is checked against the paper's three
constraint families (Section 1.1): capacity constraints, conservation
constraints, and the source/sink value constraint. Centralizing the
checks lets tests and the public API share one definition of
"feasible".
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import InvalidDemandError, InvalidFlowError, ReproError
from repro.graphs.graph import Graph

__all__ = [
    "check_demand",
    "check_demand_batch",
    "st_demand",
    "check_flow_conservation",
    "check_flow_capacity",
    "check_feasible_flow",
    "flow_value",
    "max_congestion",
]


def _as_vector(
    values: Sequence[float], length: int, error: type[ReproError], name: str
) -> np.ndarray:
    """``values`` as a float array, or ``error`` unless it has shape
    ``(length,)``: a wrong length would broadcast or index out of range
    further on."""
    array = np.asarray(values, dtype=float)
    if array.shape != (length,):
        raise error(f"{name} has shape {array.shape}, expected ({length},)")
    return array


def check_demand(graph: Graph, demand: Sequence[float], tol: float = 1e-9) -> np.ndarray:
    """Validate a demand vector b: right length, finite, Σb = 0.

    Returns the demand as a float array.
    """
    demand = _as_vector(demand, graph.num_nodes, InvalidDemandError, "demand")
    if not np.all(np.isfinite(demand)):
        raise InvalidDemandError("demand contains non-finite entries")
    scale = max(1.0, float(np.abs(demand).max()))
    if abs(float(demand.sum())) > tol * scale * graph.num_nodes:
        raise InvalidDemandError(
            f"demand must sum to zero, sums to {demand.sum():g}"
        )
    return demand


def check_demand_batch(
    graph: Graph, demands: Sequence[Sequence[float]], tol: float = 1e-9
) -> np.ndarray:
    """Validate a ``(Q, n)`` plane of stacked demand vectors.

    Applies the :func:`check_demand` criteria row by row (each row's
    zero-sum tolerance uses that row's own scale) and names the first
    offending query. Returns the plane as a C-contiguous float array.
    """
    demands = np.ascontiguousarray(demands, dtype=float)
    if demands.ndim != 2 or demands.shape[1] != graph.num_nodes:
        raise InvalidDemandError(
            f"demand plane has shape {demands.shape}, expected "
            f"(Q, {graph.num_nodes})"
        )
    finite = np.isfinite(demands).all(axis=1)
    if not finite.all():
        q = int(np.argmin(finite))
        raise InvalidDemandError(
            f"demand {q} contains non-finite entries"
        )
    scales = np.maximum(1.0, np.abs(demands).max(axis=1, initial=0.0))
    sums = demands.sum(axis=1)
    bad = np.abs(sums) > tol * scales * graph.num_nodes
    if bad.any():
        q = int(np.argmax(bad))
        raise InvalidDemandError(
            f"demand {q} must sum to zero, sums to {sums[q]:g}"
        )
    return demands


def st_demand(graph: Graph, source: int, sink: int, value: float = 1.0) -> np.ndarray:
    """Return the s-t demand vector with +value at source, -value at
    sink (paper Section 2: positive b_s, negative b_t)."""
    if source == sink:
        raise InvalidDemandError("source and sink must differ")
    for node in (source, sink):
        if not (0 <= node < graph.num_nodes):
            raise InvalidDemandError(f"node {node} out of range")
    demand = np.zeros(graph.num_nodes)
    demand[source] = float(value)
    demand[sink] = -float(value)
    return demand


def check_flow_conservation(
    graph: Graph,
    flow: Sequence[float],
    demand: Sequence[float],
    tol: float = 1e-6,
) -> None:
    """Check conservation for a routed demand.

    Sign convention (used throughout the library): a flow ``f`` routes
    demand ``b`` iff the net flow *out of* every node v equals b_v.
    Since ``graph.excess(f)[v]`` is the net flow *into* v, the check is
    ``b + B f = 0``. A source has positive demand, a sink negative.

    Raises:
        InvalidFlowError: If ``flow`` is not shape ``(m,)`` or does not
            conserve.
        InvalidDemandError: If ``demand`` is not shape ``(n,)``.
    """
    flow = _as_vector(flow, graph.num_edges, InvalidFlowError, "flow")
    demand = _as_vector(demand, graph.num_nodes, InvalidDemandError, "demand")
    residual = demand + graph.excess(flow)
    # residual_v = b_v - net_outflow_v; must vanish for a routed demand.
    scale = max(1.0, float(np.abs(demand).max()), float(np.abs(flow).max()))
    worst = float(np.abs(residual).max())
    if worst > tol * scale:
        raise InvalidFlowError(
            f"conservation violated: max residual {worst:g} (scale {scale:g})"
        )


def check_flow_capacity(
    graph: Graph, flow: Sequence[float], tol: float = 1e-6
) -> None:
    """Check |f_e| <= cap(e) (1 + tol) for every edge of a shape-(m,)
    flow; any other shape is an :class:`InvalidFlowError` too."""
    flow = _as_vector(flow, graph.num_edges, InvalidFlowError, "flow")
    caps = graph.capacities()
    violation = np.abs(flow) - caps * (1.0 + tol)
    worst = float(violation.max(initial=0.0))
    if worst > 0:
        eid = int(np.argmax(violation))
        raise InvalidFlowError(
            f"capacity violated on edge {eid}: |f|={abs(flow[eid]):g} "
            f"> cap={caps[eid]:g}"
        )


def check_feasible_flow(
    graph: Graph,
    flow: Sequence[float],
    demand: Sequence[float],
    tol: float = 1e-6,
) -> None:
    """Check both capacity and conservation for a routed demand."""
    check_flow_capacity(graph, flow, tol)
    check_flow_conservation(graph, flow, demand, tol)


def flow_value(
    graph: Graph, flow: Sequence[float], source: int, sink: int
) -> float:
    """Net flow leaving ``source`` (should equal net flow entering
    ``sink`` for a conserved s-t flow).

    Raises:
        GraphError: If ``source`` or ``sink`` is not a node id.
        InvalidFlowError: If ``flow`` is not shape ``(m,)``.
    """
    graph._check_node(source)
    graph._check_node(sink)
    flow = _as_vector(flow, graph.num_edges, InvalidFlowError, "flow")
    return float(-graph.excess(flow)[source])


def max_congestion(graph: Graph, flow: Sequence[float]) -> float:
    """Return ``‖C^{-1} f‖_∞``, the max edge congestion."""
    return float(graph.congestion(np.asarray(flow, dtype=float)).max(initial=0.0))

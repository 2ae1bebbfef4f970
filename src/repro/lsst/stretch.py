"""Stretch measurement for spanning trees (paper §7 definitions).

The quality measure of Theorem 3.1 is the average stretch
``(1/m) Σ_{u,v ∈ E} d_T(u, v) / ℓ(u, v)``; Madry's construction needs
the capacity-weighted variant of Eq. (2). Both are computed here from a
:class:`~repro.graphs.trees.RootedTree` using tree lengths induced by
the graph's length function.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import TreeError
from repro.graphs.graph import Graph
from repro.graphs.trees import RootedTree

__all__ = ["tree_edge_lengths", "stretch_per_edge", "summarize_stretch"]


def tree_edge_lengths(
    graph: Graph,
    tree: RootedTree,
    lengths: Sequence[float] | None = None,
) -> np.ndarray:
    """Assign each tree edge (v, parent[v]) the length of the graph
    edge the tree contains there, ``tree.parent_edge[v]``.

    Args:
        graph: The host graph.
        tree: A spanning tree built from ``graph``'s edges.
        lengths: Per-graph-edge lengths (default all ones).

    Returns:
        Array L with L[v] = length of tree edge (v, parent[v]).

    Raises:
        TreeError: If the tree records no graph edges (it was built
            from a bare parent array).
    """
    if tree.parent_edge is None:
        raise TreeError("tree records no graph edges to measure")
    if lengths is None:
        lengths = np.ones(graph.num_edges)
    lengths = np.asarray(lengths, dtype=float)
    nonroot = np.flatnonzero(tree.parent_edge >= 0)
    out = np.zeros(tree.num_nodes)
    out[nonroot] = lengths[tree.parent_edge[nonroot]]
    return out


def stretch_per_edge(
    graph: Graph,
    tree: RootedTree,
    lengths: Sequence[float] | None = None,
) -> np.ndarray:
    """Return stretch_T(e) = d_T(u, v) / ℓ(e) for every graph edge."""
    if lengths is None:
        lengths = np.ones(graph.num_edges)
    lengths = np.asarray(lengths, dtype=float)
    tree_lengths = tree_edge_lengths(graph, tree, lengths)
    out = np.zeros(graph.num_edges)
    for e in graph.edges():
        d_t = tree.path_length(e.u, e.v, tree_lengths)
        out[e.id] = d_t / float(lengths[e.id])
    return out


def summarize_stretch(
    graph: Graph,
    tree: RootedTree,
    lengths: Sequence[float] | None = None,
) -> dict[str, float]:
    """Average / max / capacity-weighted stretch summary (E3 metrics)."""
    stretches = stretch_per_edge(graph, tree, lengths)
    caps = graph.capacities()
    return {
        "average": float(stretches.mean()),
        "max": float(stretches.max()),
        "capacity_weighted": float((stretches * caps).sum() / caps.sum()),
    }

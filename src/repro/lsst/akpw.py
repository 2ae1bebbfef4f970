"""AKPW low average-stretch spanning trees (paper §7, Theorem 3.1).

The outer algorithm of Alon, Karp, Peleg, and West, in the
parallel-friendly formulation of Blelloch et al. that the paper
translates to CONGEST:

1. Partition the edges into O(√log N) *length classes*: class i holds
   edges with length in ``[z^{i-1}, z^i)`` for
   ``z = 2^Θ(√(log N log log N))``.
2. Iterate: call Partition on the edges of classes ``1..j`` with target
   radius ``ρ = z/4``; output a BFS tree inside every cluster; contract
   the clusters (keeping parallel edges); proceed to class ``j+1``.
3. Stop when a single node remains; the union of all intra-cluster BFS
   trees is a spanning tree of the original graph.

The expected stretch is ``2^O(√(log N log log N))`` (Theorem 3.1);
Experiment E3 measures it. The implementation supports multigraphs and
arbitrary positive edge lengths, exactly as Theorem 3.1 requires for
its use inside Madry's construction (where lengths come from the
multiplicative-weights update and the graph is a contracted core).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.graphs.trees import RootedTree, spanning_tree_from_edges
from repro.lsst.partition import partition
from repro.util.rng import as_generator

__all__ = ["LsstResult", "akpw_spanning_tree", "default_class_base"]


@dataclass
class LsstResult:
    """A low-stretch spanning tree with construction metadata.

    Attributes:
        tree: The spanning tree, rooted at ``root``, with no capacities
            attached (callers attach induced-cut capacities); its
            ``parent_edge`` holds the graph edge ids forming it.
        iterations: Number of contract-and-recurse iterations.
        phases: Total SplitGraph phases executed (for round accounting;
            the CONGEST cost is ``phases · Õ(D + √n)``, Lemma 5.1).
        class_base: The z parameter used.
    """

    tree: RootedTree
    iterations: int
    phases: int
    class_base: float


def default_class_base(num_nodes: int) -> float:
    """The paper's ``z = 2^Θ(√(log N log log N))`` with constant 1.

    For the graph sizes a Python reproduction reaches (n ≤ ~10^4) the
    theoretical constant 6 inside the square root would make z exceed
    any realistic diameter, collapsing the class structure; constant 1
    keeps the multi-class behaviour observable while preserving the
    asymptotic form.
    """
    log_n = max(2.0, math.log2(num_nodes))
    return max(4.0, 2.0 ** math.sqrt(log_n * max(1.0, math.log2(log_n))))


def akpw_spanning_tree(
    graph: Graph,
    lengths: Sequence[float] | None = None,
    rng: np.random.Generator | int | None = None,
    class_base: float | None = None,
    root: int = 0,
) -> LsstResult:
    """Compute a low average-stretch spanning tree.

    Args:
        graph: Connected (multi)graph.
        lengths: Positive edge lengths (defaults to all-ones; Madry's
            construction passes ``1/cap``-derived lengths here).
        rng: Randomness source.
        class_base: The z parameter; default :func:`default_class_base`.
        root: Root of the returned tree.

    Returns:
        An :class:`LsstResult` whose tree spans ``graph``.
    """
    graph.require_connected()
    rng = as_generator(rng)
    n = graph.num_nodes
    if n == 1:
        return LsstResult(spanning_tree_from_edges(graph, []), 0, 0, 0.0)
    z = class_base if class_base is not None else default_class_base(n)
    if z <= 1:
        raise GraphError("class_base must exceed 1")
    if lengths is None:
        # Unit lengths: every edge normalizes to 1 and lands in class 1.
        edge_class = np.ones(graph.num_edges, dtype=np.int64)
    else:
        lengths = np.asarray(lengths, dtype=float)
        if lengths.shape != (graph.num_edges,):
            raise GraphError("lengths must have one entry per edge")
        if np.any(lengths <= 0) or not np.all(np.isfinite(lengths)):
            raise GraphError("lengths must be positive and finite")
        # Normalize so the smallest length is 1, then classify:
        # class i = edges with length in [z^{i-1}, z^i).
        normalized = lengths / lengths.min()
        edge_class = np.floor(np.log(normalized) / math.log(z)).astype(int) + 1
    rho = max(1, int(z / 4.0))

    # Working state: the current contracted multigraph and a map from
    # its edges back to original edge ids. The input graph itself seeds
    # the iteration — nothing below mutates it, and reusing it keeps
    # its cached CSR/adjacency warm for the first partition call.
    current = graph
    edge_origin = np.arange(graph.num_edges, dtype=np.int64)
    tree_edges: list[int] = []
    iterations = 0
    phases = 0

    max_class = int(edge_class.max())
    j = 1
    stalls = 0
    while current.num_nodes > 1:
        current_classes = edge_class[edge_origin]
        result = partition(
            current,
            current_classes,
            active_classes=j,
            target_radius=rho,
            rng=rng,
        )
        phases += result.phases
        split = result.split
        # Intra-cluster BFS tree edges become spanning tree edges.
        parent_eids = np.asarray(split.parent_edge, dtype=np.int64)
        tree_edges.extend(edge_origin[parent_eids[parent_eids >= 0]].tolist())
        # Contract clusters.
        contracted, new_origin = current.contract(split.cluster)
        edge_origin = edge_origin[np.asarray(new_origin, dtype=np.int64)]
        contracted_something = contracted.num_nodes < len(split.cluster)
        current = contracted
        iterations += 1
        if j < max_class:
            j += 1
        elif not contracted_something:
            # All classes are already active; an iteration that merged
            # nothing was just unlucky randomness — retry with fresh
            # randomness (bounded, so a logic bug cannot spin forever).
            stalls += 1
            if stalls > 50:
                raise GraphError("AKPW stalled without contracting")
    return LsstResult(
        tree=spanning_tree_from_edges(graph, tree_edges, root=root),
        iterations=iterations,
        phases=phases,
        class_base=z,
    )

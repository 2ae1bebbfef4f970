"""Algorithm Partition (paper §7, following Blelloch et al.).

Partition wraps SplitGraph with *class awareness*: the edges are
partitioned into K weight classes, SplitGraph runs disregarding the
classes, and the result is accepted only if no class had too many of
its edges split between clusters. On rejection the decomposition is
restarted with fresh randomness; w.h.p. O(log N) restarts suffice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.lsst.split_graph import SplitGraphResult, split_graph
from repro.util.rng import as_generator

__all__ = ["PartitionResult", "partition"]

#: Acceptance constant: class i is over-split when more than
#: OVER_SPLIT_CONSTANT * log(N) / rho of its edges are cut.
OVER_SPLIT_CONSTANT = 12.0


@dataclass
class PartitionResult:
    """A class-respecting low-diameter decomposition.

    Attributes:
        split: The accepted SplitGraph decomposition.
        restarts: Number of rejected attempts before acceptance.
        cut_fraction_per_class: Fraction of each class's edges cut by
            the accepted decomposition.
        phases: Total SplitGraph phases over all attempts (for round
            accounting — restarts cost real rounds).
    """

    split: SplitGraphResult
    restarts: int
    cut_fraction_per_class: list[float]
    phases: int


def partition(
    graph: Graph,
    edge_class: Sequence[int],
    active_classes: int,
    target_radius: int,
    rng: np.random.Generator | int | None = None,
    max_restarts: int | None = None,
) -> PartitionResult:
    """Run SplitGraph until no active class is over-split.

    Args:
        graph: The current (multi)graph.
        edge_class: ``edge_class[eid]`` in ``1..K``; edges of class
            > ``active_classes`` are ignored entirely (not traversed,
            not counted).
        active_classes: Edges of classes ``1..active_classes`` are
            BFS-traversable and checked for over-splitting.
        target_radius: The ρ handed to SplitGraph.
        rng: Randomness source.
        max_restarts: Restart budget; defaults to ``4·ceil(log2 N)``.
            If exhausted, the attempt with the smallest worst-class cut
            fraction is returned (a deterministic fallback keeps the
            pipeline total; the theory says this is reached with
            probability < 1/poly(N)).

    Returns:
        A :class:`PartitionResult`.
    """
    rng = as_generator(rng)
    n = graph.num_nodes
    log_n = max(1, math.ceil(math.log2(max(n, 2))))
    if max_restarts is None:
        max_restarts = 4 * log_n
    classes = np.asarray(edge_class, dtype=np.int64)
    active_mask = (classes >= 1) & (classes <= active_classes)
    active_edges: np.ndarray | None = np.flatnonzero(active_mask)
    if len(active_edges) == graph.num_edges:
        active_edges = None  # every edge traversable: skip mask plumbing
    class_sizes = np.bincount(
        classes[active_mask], minlength=active_classes + 1
    ).tolist()
    threshold_fraction = min(
        1.0, OVER_SPLIT_CONSTANT * log_n / max(1, target_radius)
    )

    best: tuple[float, SplitGraphResult, list[float]] | None = None
    phases = 0
    for attempt in range(max_restarts + 1):
        split = split_graph(
            graph, target_radius, rng=rng, active_edges=active_edges
        )
        phases += split.phases
        cut = np.asarray(split.cut_edges, dtype=np.int64)
        cut = cut[active_mask[cut]] if len(cut) else cut
        cut_per_class = np.bincount(
            classes[cut], minlength=active_classes + 1
        ).tolist()
        fractions = [
            c / s if s else 0.0 for c, s in zip(cut_per_class, class_sizes)
        ]
        worst = max(fractions) if fractions else 0.0
        if best is None or worst < best[0]:
            best = (worst, split, fractions)
        if worst <= threshold_fraction:
            return PartitionResult(
                split=split,
                restarts=attempt,
                cut_fraction_per_class=fractions[1:],
                phases=phases,
            )
    if best is None:
        raise GraphError(
            "partition restarts exhausted without recording a best split"
        )
    return PartitionResult(
        split=best[1],
        restarts=max_restarts,
        cut_fraction_per_class=best[2][1:],
        phases=phases,
    )

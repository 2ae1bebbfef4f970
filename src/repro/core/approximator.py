"""Tree-based congestion approximators (paper §§3–4, 9.2).

The approximator R is a stack of row blocks, one per sampled virtual
tree: row (T, v) measures the *signed* congestion that a demand vector
forces through the cut induced by T's subtree at v,

    (R b)_{T,v} = ( Σ_{w ∈ T_v} b_w ) / cap_G(δ(T_v)).

Because every tree edge stores the exact capacity of its induced cut in
G, ``‖Rb‖_∞ ≤ opt(b)`` holds unconditionally (each row is a genuine cut
of G); sampling O(log n) trees from a Räcke-style distribution bounds
the other side by α w.h.p. (Lemma 3.3). Matrix-vector products with R
and Rᵀ are the inner loop of the gradient descent, so both are
implemented with Euler-tour index arithmetic — O(n) NumPy work per tree
per product, the centralized mirror of the Õ(√n + D)-round distributed
convergecast/downcast of Corollary 9.3.

Both products are one gather / segmented-cumsum / scatter pass of the
flat fused :class:`~repro.core.stacked.StackedTreeOperator` (see that
module's docstring for the stacked-segment layout), built once from the
trees when the approximator is constructed. The trees' ``capacity``
arrays are the only copy of the cuts; the stacked operator holds the
only copy of their inverses.
"""

from __future__ import annotations

from typing import Literal, Sequence

import numpy as np

from repro.dtypes import INDEX_DTYPE
from repro.errors import GraphError
from repro.flow.mst import maximum_spanning_tree
from repro.graphs.graph import Graph
from repro.graphs.trees import (
    RootedTree,
    _cuts_from_edge_lcas,
    bfs_tree,
    induced_cut_capacities,
)
from repro.core.stacked import StackedTreeOperator
from repro.jtree.hierarchy import HierarchyParams, sample_virtual_trees
from repro.jtree.mwu import mwu_lengths
from repro.lsst.akpw import akpw_spanning_tree
from repro.util.rng import as_generator

__all__ = [
    "StackedTreeOperator",
    "TreeCongestionApproximator",
    "build_congestion_approximator",
    "racke_sample_trees",
    "estimate_alpha_st",
]


class TreeCongestionApproximator:
    """An α-congestion approximator made of virtual trees.

    Args:
        graph: The graph the trees approximate.
        trees: The sampled trees (at least one), each over
            ``graph``'s nodes, whose ``capacity[v]`` is the capacity
            in ``graph`` of the cut its subtree at ``v`` induces.
        alpha: The α used by the gradient descent (an upper bound on the
            worst-case ratio opt(b) / ‖Rb‖_∞; estimated or supplied).
        method: Which construction produced the trees (diagnostics).

    Raises:
        GraphError: If ``trees`` is empty, a tree spans other nodes
            than ``graph``, or a cut capacity is not positive.
    """

    def __init__(
        self,
        graph: Graph,
        trees: Sequence[RootedTree],
        alpha: float,
        method: str = "hierarchy",
    ) -> None:
        self._trees = list(trees)
        self.graph = graph
        self.alpha = alpha
        self.method = method
        self._stacked = StackedTreeOperator(self._trees, graph.num_nodes)
        # Per-tree edge LCAs for refresh_capacities, built on its first
        # call, and the edge count they were built for.
        self._edge_lcas: list[np.ndarray] = []
        self._lca_num_edges = -1

    @property
    def num_trees(self) -> int:
        return len(self._trees)

    @property
    def num_rows(self) -> int:
        return self._stacked.num_rows

    def stacked(self) -> StackedTreeOperator:
        """The flat fused operator every product runs through."""
        return self._stacked

    def apply(
        self, demand: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Compute R·b (concatenated over trees); ``out=`` (shape
        ``(num_rows,)``) makes the call allocation free."""
        return self._stacked.apply(np.asarray(demand, dtype=float), out=out)

    def apply_transpose(
        self, row_values: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Compute Rᵀ·g as node potentials."""
        return self._stacked.apply_transpose(
            np.asarray(row_values, dtype=float), out=out
        )

    def estimate(self, demand: np.ndarray) -> float:
        """‖Rb‖_∞ — the lower-bound congestion estimate for ``demand``."""
        return self._stacked.estimate(np.asarray(demand, dtype=float))

    def trees(self) -> list[RootedTree]:
        return list(self._trees)

    def refresh_capacities(self) -> int:
        """Exact cut refresh after a **capacity-only** graph delta;
        structural mutations must rebuild from scratch.

        Every tree's ``capacity`` is rewritten in place to the exact
        induced-cut capacities of the current graph, and the stacked
        operator then recomputes its inverse-capacity rows from them.
        Each row is a genuine cut of G whatever tree it came from, so
        soundness ``‖Rb‖∞ ≤ opt(b)`` holds at the new epoch exactly as
        at construction. Row counts never change (every spanning tree
        has n-1 rows), so the stacked operator keeps its planes and
        only its inverse-capacity rows are rewritten.

        The new cuts are :func:`~repro.graphs.trees.induced_cut_capacities`
        bit for bit, but without its per-tree LCA pass: the edge LCAs
        depend only on the trees and the edge endpoints, so the first
        call computes each tree's (``INDEX_DTYPE``, one m-length array
        per tree) and later calls reuse them. Edges are only ever
        appended, so the LCAs are rebuilt exactly when
        ``graph.num_edges`` has changed since, i.e. after a structural
        mutation such as ``add_edge``. A refresh then costs one scatter
        and one Euler subtree sum per tree, plus one scatter of the
        incident capacities shared by all trees: about 0.3 ms for 9
        trees at n=512, m=2559, against about 3.7 ms with the LCA pass.
        An approximator that is never refreshed never builds the
        arrays.

        The trees and ``alpha`` are kept, and α is not re-estimated.
        Only α depends on how the trees were sampled, and large
        cumulative capacity drift can push the real worst-case ratio
        ``opt(b) / ‖Rb‖∞`` past it; callers facing such drift should
        rebuild.

        Returns:
            The number of trees resampled, which is always 0.
        """
        graph = self.graph
        if self._lca_num_edges != graph.num_edges:
            tails, heads = graph.edge_index_arrays()
            self._edge_lcas = [
                tree.lca_batch(tails, heads).astype(INDEX_DTYPE)
                for tree in self._trees
            ]
            self._lca_num_edges = graph.num_edges
        cuts = _cuts_from_edge_lcas(graph, self._trees, self._edge_lcas)
        for tree, cut in zip(self._trees, cuts):
            tree.capacity[:] = cut
        self._stacked._load_capacities()
        return 0


def racke_sample_trees(
    graph: Graph,
    num_trees: int,
    rng: np.random.Generator | int | None = None,
    mwu_rounds_per_tree: int = 2,
) -> list[RootedTree]:
    """Sample spanning trees from a flat Räcke MWU distribution.

    This is the no-recursion comparator ("mwu" method): iterate the low
    average-stretch tree construction with multiplicative length
    updates on overloaded tree edges (§8.2's potential argument applied
    directly to G), emitting every ``mwu_rounds_per_tree``-th tree.
    """
    rng = as_generator(rng)
    caps = graph.capacities()
    potentials = np.zeros(graph.num_edges)
    out: list[RootedTree] = []
    iteration = 0
    while len(out) < num_trees:
        lengths = mwu_lengths(potentials, caps)
        tree = akpw_spanning_tree(graph, lengths=lengths, rng=rng).tree
        cut_caps = induced_cut_capacities(graph, tree)
        nonroot = np.flatnonzero(tree.parent_edge >= 0)
        eids = tree.parent_edge[nonroot]
        rload = np.zeros(graph.num_edges)
        rload[eids] = cut_caps[nonroot] / caps[eids]
        r_max = max(float(rload.max()), 1.0)
        potentials += 0.5 * rload / r_max * np.log(max(graph.num_edges, 2))
        iteration += 1
        if iteration % mwu_rounds_per_tree == 0 or len(out) == 0:
            tree.capacity[:] = cut_caps
            out.append(tree)
    return out[:num_trees]


def estimate_alpha_st(
    graph: Graph,
    approximator: "TreeCongestionApproximator",
    rng: np.random.Generator | int | None = None,
    trials: int = 8,
    safety: float = 2.0,
) -> float:
    """Empirical α estimate from random s-t demands.

    For an s-t demand, opt(b) = value / maxflow(s, t) exactly (max-flow
    min-cut); the α the descent needs is the worst ratio
    opt(b)/‖Rb‖_∞ over demands, which we lower-bound on sampled pairs
    and inflate by ``safety``.
    """
    from repro.flow.dinic import dinic_max_flow  # local: avoid cycle

    rng = as_generator(rng)
    n = graph.num_nodes
    worst = 1.0
    for _ in range(trials):
        s = int(rng.integers(0, n))
        t = int(rng.integers(0, n))
        if s == t:
            continue
        demand = np.zeros(n)
        demand[s], demand[t] = 1.0, -1.0
        value = dinic_max_flow(graph, s, t).value
        if value <= 0:
            # Degenerate/disconnected pair: no finite congestion bound
            # to learn from; skip rather than divide by zero.
            continue
        opt = 1.0 / value
        estimate = approximator.estimate(demand)
        if estimate > 0:
            worst = max(worst, opt / estimate)
    return worst * safety


def build_congestion_approximator(
    graph: Graph,
    num_trees: int | None = None,
    rng: np.random.Generator | int | None = None,
    method: Literal["hierarchy", "mwu", "bfs"] = "hierarchy",
    alpha: float | None = None,
    hierarchy_params: HierarchyParams | None = None,
) -> TreeCongestionApproximator:
    """Build the congestion approximator R (Theorem 8.10 + Lemma 3.3).

    Args:
        graph: Connected capacitated graph.
        num_trees: How many virtual trees to sample, at least 1;
            defaults to the O(log n) of Lemma 3.3.
        rng: Randomness source.
        method: ``"hierarchy"`` — the paper's recursive j-tree
            construction; ``"mwu"`` — flat Räcke MWU over spanning
            trees (ablation); ``"bfs"`` — one BFS tree plus one
            maximum-capacity spanning tree (naive baseline).
        alpha: Override for the α the descent uses; estimated from
            random s-t demands when omitted.
        hierarchy_params: Tunables for the "hierarchy" method.

    Returns:
        A :class:`TreeCongestionApproximator`.
    """
    graph.require_connected()
    rng = as_generator(rng)
    n = graph.num_nodes
    if num_trees is None:
        num_trees = max(2, int(np.ceil(np.log2(max(n, 4)))))
    if num_trees < 1:
        raise GraphError(f"num_trees must be at least 1, got {num_trees}")

    trees: list[RootedTree]
    if method == "hierarchy":
        # O(log n) independent samples of the Theorem 8.10 recursion,
        # each on its own child generator spawned from ``rng``.
        samples = sample_virtual_trees(
            graph, num_trees, rng=rng, params=hierarchy_params
        )
        trees = [sample.tree for sample in samples]
    elif method == "mwu":
        trees = racke_sample_trees(graph, num_trees, rng=rng)
    elif method == "bfs":
        trees = [bfs_tree(graph, root=0), maximum_spanning_tree(graph)]
        for tree in trees:
            tree.capacity[:] = induced_cut_capacities(graph, tree)
    else:
        raise GraphError(f"unknown approximator method {method!r}")

    approximator = TreeCongestionApproximator(
        graph, trees, alpha=1.0, method=method
    )
    if alpha is None:
        approximator.alpha = estimate_alpha_st(graph, approximator, rng=rng)
    else:
        approximator.alpha = float(alpha)
    return approximator

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
module's docstring for the stacked-segment layout). Each
:class:`TreeOperator` keeps a per-block ``apply`` / ``apply_transpose``
as the readable reference the golden tests compare the flat pass
against, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from repro.errors import GraphError
from repro.flow.mst import maximum_spanning_tree
from repro.graphs import kernels
from repro.graphs.csr import WIDE_DTYPE
from repro.graphs.graph import Graph
from repro.graphs.trees import RootedTree, bfs_tree, induced_cut_capacities
from repro.core.stacked import StackedTreeOperator
from repro.parallel.config import ParallelConfig
from repro.jtree.hierarchy import HierarchyParams, sample_virtual_trees
from repro.jtree.madry import madry_jtree_step
from repro.lsst.akpw import akpw_spanning_tree
from repro.util.rng import as_generator

__all__ = [
    "TreeOperator",
    "StackedTreeOperator",
    "TreeCongestionApproximator",
    "build_congestion_approximator",
    "racke_sample_trees",
    "estimate_alpha_st",
]


class TreeOperator:
    """Euler-tour representation of one virtual tree's row block.

    Consumes the Euler intervals the :class:`RootedTree` substrate
    already caches (entry/exit indices over a DFS order) so that

    * subtree sums (the R product) are two cumulative-sum lookups, and
    * ancestor-path sums (the Rᵀ product) are one range-update pass,

    both fully vectorized.
    """

    def __init__(self, tree: RootedTree) -> None:
        self.tree = tree
        self.order = tree.euler_order
        self.tin = tree.euler_tin
        self.tout = tree.euler_tout
        # Row book-keeping: one row per non-root node.
        self.row_nodes = np.flatnonzero(
            np.asarray(tree.parent, dtype=WIDE_DTYPE) >= 0
        )
        caps = np.asarray(tree.capacity, dtype=float)[self.row_nodes]
        if np.any(caps <= 0):
            raise GraphError(
                "virtual tree has a zero-capacity induced cut; input graph "
                "must be connected"
            )
        self.row_capacity = caps
        # Precomputed once so the per-tree reference and the flat
        # stacked pass scale rows with the same multiply (bit-identical
        # folds).
        self.row_inv_capacity = 1.0 / caps

    @property
    def num_rows(self) -> int:
        return len(self.row_nodes)

    def refresh_capacities(self, graph: Graph) -> None:
        """Recompute this tree's induced-cut capacities in place after
        a capacity-only delta (tree structure unchanged).

        The refreshed rows are *exact* cut capacities of the mutated
        graph — :func:`~repro.graphs.trees.induced_cut_capacities` is a
        full recompute, not an increment — so the unconditional
        soundness ``‖Rb‖∞ ≤ opt(b)`` holds at the new epoch exactly as
        at construction. All arrays are updated through ``[:]`` so
        aliases (the stacked operator's concatenated copy is patched
        separately by the caller) never see half-updated state.
        """
        cut = induced_cut_capacities(graph, self.tree)
        caps = cut[self.row_nodes]
        if np.any(caps <= 0):
            raise GraphError(
                "capacity refresh produced a zero-capacity induced cut; "
                "graph must stay connected with positive capacities"
            )
        self.tree.capacity[:] = cut
        self.row_capacity[:] = caps
        np.divide(1.0, caps, out=self.row_inv_capacity)

    def subtree_sums(self, values: np.ndarray) -> np.ndarray:
        """Vectorized subtree sums for all row nodes."""
        prefix = np.concatenate(([0.0], np.cumsum(values[self.order])))
        return prefix[self.tout[self.row_nodes]] - prefix[self.tin[self.row_nodes]]

    def apply(self, demand: np.ndarray) -> np.ndarray:
        """One block of R·b: signed cut congestion per tree edge."""
        return self.subtree_sums(demand) * self.row_inv_capacity

    def apply_transpose(self, row_values: np.ndarray) -> np.ndarray:
        """One block of Rᵀ·g: node potentials π.

        ``π_v = Σ_{rows (T, w): v ∈ T_w} row_values_row / cap_row`` —
        each row's weight is spread over its subtree with a range
        update on the Euler array.
        """
        n = self.tree.num_nodes
        diff = np.zeros(n + 1)
        weights = row_values * self.row_inv_capacity
        np.add.at(diff, self.tin[self.row_nodes], weights)
        np.subtract.at(diff, self.tout[self.row_nodes], weights)
        return np.cumsum(diff[:-1])[self.tin]


@dataclass
class TreeCongestionApproximator:
    """An α-congestion approximator made of virtual trees.

    Attributes:
        graph: The graph the trees approximate.
        operators: One :class:`TreeOperator` per sampled tree.
        alpha: The α used by the gradient descent (an upper bound on the
            worst-case ratio opt(b) / ‖Rb‖_∞; estimated or supplied).
        method: Which construction produced the trees (diagnostics).
    """

    graph: Graph
    operators: list[TreeOperator]
    alpha: float
    method: str = "hierarchy"
    _stacked: StackedTreeOperator | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def num_trees(self) -> int:
        return len(self.operators)

    @property
    def num_rows(self) -> int:
        return sum(op.num_rows for op in self.operators)

    def stacked(self) -> StackedTreeOperator:
        """The flat fused operator (built lazily, then cached; the
        operator list must not be mutated afterwards)."""
        if self._stacked is None:
            self._stacked = StackedTreeOperator(
                self.operators, self.graph.num_nodes
            )
        return self._stacked

    def apply(
        self, demand: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Compute R·b (concatenated over trees); ``out=`` (shape
        ``(num_rows,)``) makes the call allocation free."""
        return self.stacked().apply(np.asarray(demand, dtype=float), out=out)

    def apply_transpose(
        self, row_values: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Compute Rᵀ·g as node potentials."""
        return self.stacked().apply_transpose(
            np.asarray(row_values, dtype=float), out=out
        )

    def estimate(self, demand: np.ndarray) -> float:
        """‖Rb‖_∞ — the lower-bound congestion estimate for ``demand``."""
        return self.stacked().estimate(np.asarray(demand, dtype=float))

    def trees(self) -> list[RootedTree]:
        return [op.tree for op in self.operators]

    def refresh_capacities(self) -> int:
        """Exact cut refresh after a **capacity-only** graph delta;
        structural mutations must rebuild from scratch.

        Every tree's rows are recomputed in place to the exact
        induced-cut capacities of the current graph, and the cached
        stacked operator's inverse-capacity rows are patched in place.
        Each row is a genuine cut of G whatever tree it came from, so
        soundness ``‖Rb‖∞ ≤ opt(b)`` holds at the new epoch exactly as
        at construction. Row counts never change (every spanning tree
        has n-1 rows), so the stacked operator and existing
        ``RouteWorkspace`` objects stay valid.

        The trees and ``alpha`` are kept, and α is not re-estimated.
        Only α depends on how the trees were sampled, and large
        cumulative capacity drift can push the real worst-case ratio
        ``opt(b) / ‖Rb‖∞`` past it; callers facing such drift should
        rebuild.

        Returns:
            The number of trees resampled, which is always 0.
        """
        for op in self.operators:
            op.refresh_capacities(self.graph)
        if self._stacked is not None:
            self._stacked.refresh_inv_capacity(
                [op.row_inv_capacity for op in self.operators]
            )
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
        lengths = np.exp(np.minimum(potentials, 40.0)) / caps
        lsst = akpw_spanning_tree(graph, lengths=lengths, rng=rng)
        cut_caps = induced_cut_capacities(graph, lsst.tree)
        rload = np.zeros(graph.num_edges)
        tree_edges = np.asarray(lsst.tree_edges, dtype=WIDE_DTYPE)
        tails, heads = graph.edge_index_arrays()
        keys, first = kernels.pair_first_edge_index(
            tails[tree_edges], heads[tree_edges], graph.num_nodes
        )
        parents = np.asarray(lsst.tree.parent, dtype=WIDE_DTYPE)
        nonroot = np.flatnonzero(parents >= 0)
        eids = tree_edges[
            kernels.lookup_pairs(
                keys, first, graph.num_nodes, nonroot, parents[nonroot]
            )
        ]
        rload[eids] = cut_caps[nonroot] / caps[eids]
        r_max = max(float(rload.max()), 1.0)
        potentials += 0.5 * rload / r_max * np.log(max(graph.num_edges, 2))
        iteration += 1
        if iteration % mwu_rounds_per_tree == 0 or len(out) == 0:
            out.append(RootedTree(lsst.tree.parent, cut_caps))
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
    parallel: ParallelConfig | None = None,
) -> TreeCongestionApproximator:
    """Build the congestion approximator R (Theorem 8.10 + Lemma 3.3).

    Args:
        graph: Connected capacitated graph.
        num_trees: How many virtual trees to sample; defaults to the
            O(log n) of Lemma 3.3.
        rng: Randomness source.
        method: ``"hierarchy"`` — the paper's recursive j-tree
            construction; ``"mwu"`` — flat Räcke MWU over spanning
            trees (ablation); ``"bfs"`` — one BFS tree plus one
            maximum-capacity spanning tree (naive baseline).
        alpha: Override for the α the descent uses; estimated from
            random s-t demands when omitted.
        hierarchy_params: Tunables for the "hierarchy" method.
        parallel: Optional sharded-execution config for the
            hierarchy's stacked MWU length evaluations during
            construction (bit-identical to serial; not stored). The
            remaining construction kernels (BFS, contraction, CSR
            builds) follow the ``REPRO_WORKERS`` process default. The
            approximator's R / Rᵀ products always run on the calling
            thread.

    Returns:
        A :class:`TreeCongestionApproximator`.
    """
    graph.require_connected()
    rng = as_generator(rng)
    n = graph.num_nodes
    if num_trees is None:
        num_trees = max(2, int(np.ceil(np.log2(max(n, 4)))))

    trees: list[RootedTree] = []
    if method == "hierarchy":
        # Batched level-synchronous sampling: identical trees to the
        # legacy one-sample-at-a-time loop for a fixed seed (the child
        # generators are spawned the same way), but the per-level MWU
        # work is stacked across samples and coinciding cores are
        # shared.
        samples = sample_virtual_trees(
            graph, num_trees, rng=rng, params=hierarchy_params,
            parallel=parallel,
        )
        trees = [sample.tree for sample in samples]
    elif method == "mwu":
        trees = racke_sample_trees(graph, num_trees, rng=rng)
    elif method == "bfs":
        bfs = bfs_tree(graph, root=0)
        trees.append(RootedTree(bfs.parent, induced_cut_capacities(graph, bfs)))
        mst = maximum_spanning_tree(graph)
        trees.append(RootedTree(mst.parent, induced_cut_capacities(graph, mst)))
    else:
        raise GraphError(f"unknown approximator method {method!r}")

    approximator = TreeCongestionApproximator(
        graph=graph,
        operators=[TreeOperator(t) for t in trees],
        alpha=1.0,
        method=method,
    )
    if alpha is None:
        approximator.alpha = estimate_alpha_st(graph, approximator, rng=rng)
    else:
        approximator.alpha = float(alpha)
    return approximator

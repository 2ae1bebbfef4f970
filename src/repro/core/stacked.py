"""Flat stacked congestion-approximator operator (one pass per product).

R has one row block per virtual tree: row (T, v) is
``b(T_v) / cap(δ(T_v))`` for every non-root node v of tree T. Tree by
tree, ``R·b`` is one convergecast
(:meth:`~repro.graphs.trees.RootedTree.subtree_sums`) and ``Rᵀ·g`` one
downcast (:meth:`~repro.graphs.trees.RootedTree.prefix_sums_from_root`)
— a Python loop over the O(log n) trees, a ``np.concatenate`` per
``apply``, per-call index slicing, and two ``ufunc.at`` scatters per
``apply_transpose``. Since every AlmostRoute gradient step performs
both products, that per-tree dispatch overhead is the end-to-end hot
path (measured: the fused pass below wins ~3×/~2× at n=256/1024 — see
``BENCH_graphcore.json``; the residual floor is the sequential
segmented cumsum plus the scatter, which both paths share). This module
fuses the blocks into **one** stacked operator, built once when the
approximator is constructed.

Every product of
:class:`~repro.core.approximator.TreeCongestionApproximator` runs
through this operator. The golden tests compare it, bit for bit,
against a per-tree twin that calls those two ``RootedTree`` methods
tree by tree (``tests/parallel_harness.py``).

Stacked-segment layout
======================

All ``T`` virtual trees span the same ``n`` graph nodes, so every
per-tree array is a fixed-width segment and the stack is a dense plane:

* ``_order`` — ``(T, n)`` plane of DFS preorders, one row per tree;
  entries are node ids (< n), i.e. gather indices into the demand
  vector.
* prefix plane — the ``(T, n)`` gathered demand, turned into
  inclusive prefix sums by one in-place ``np.cumsum(axis=1)``
  (row-wise cumsum is the *same* sequential left-fold as the per-tree
  1-D cumsum, which is what makes the paths bit-identical). Row nodes
  are never the root, so ``tin ≥ 1`` and the per-tree *exclusive*
  prefix ``P[k]`` is exactly the inclusive ``Q[k−1]`` — no zero column
  needed.
* ``_tin_rows`` / ``_tout_rows`` — flattened indices ``t·n + tin − 1``
  / ``t·n + tout − 1`` of the non-root row nodes, concatenated in tree
  order; ``R·b`` is then two fancy-index lookups into the prefix plane
  plus one multiply by the precomputed ``_row_inv_capacity``.
* scatter plan — the Euler range-update targets of ``Rᵀ·g`` (``+w`` at
  ``tin``, ``−w`` at ``tout``, *unshifted*) are a *fixed* index
  multiset ``concat(t·(n+1)+tin, t·(n+1)+tout)`` into a ``(T, n+1)``
  diff plane, materialized per call by **one**
  ``np.bincount`` over the signed weights (``+w`` then ``-w``).
  ``bincount`` accumulates strictly in input order — the same
  sequential fold as ``prefix_sums_from_root``'s ``np.add.at`` /
  ``np.subtract.at`` pair (adds before subtracts, ascending row order
  within each), so results are bit-identical without ``ufunc.at``'s
  per-element dispatch cost.
  (``np.add.reduceat`` would be allocation free but sums segments
  pairwise, which breaks the bit-identity contract.)
* ``_pot_rows`` — ``(T, n)`` plane of flattened indices ``t·n + tin``
  (all nodes) into the row-wise cumsum of the diff plane; the per-tree
  node potentials are gathered in one take and accumulated tree by
  tree (``0 + x == x`` exactly, so the accumulation matches the
  per-tree ``out += block`` loop bit for bit).

Segments sharing one global cumsum would leak floating-point carry
across tree boundaries; the ``(T, ·)`` plane resets every row for free.
``np.take`` reads a C-contiguous plane as its flat view without
copying, so the flattened indices need no flat alias of any plane, and
a deep copy or pickle of the operator keeps the planes it indexes.

All scratch planes are preallocated on the operator, and ``apply`` /
``apply_transpose`` accept ``out=`` — with a caller-provided output
``apply`` allocates nothing and ``apply_transpose``'s only per-call
allocation is ``bincount``'s diff-plane output (the price of the exact
fold), which is what the AlmostRoute workspace
(:class:`~repro.core.almost_route.RouteWorkspace`) relies on. The
``(Q, ·)`` forms ``apply_batch`` / ``apply_transpose_batch`` run the
1-D product once per row; no library code calls them.

Every product runs on the calling thread. Splitting the ``(T, ·)``
planes into tree blocks on a worker pool put a pool barrier on each
product and measured slower than this single pass on a 2-vCPU host.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import GraphError
from repro.graphs.trees import RootedTree
from repro.hotpath import hot_kernel

__all__ = ["StackedTreeOperator"]


class StackedTreeOperator:
    """All per-tree row blocks of R fused into one flat operator.

    Rows run tree by tree, ascending non-root node within each tree,
    and each tree's ``capacity`` array is the only copy of its cuts:
    the operator holds their inverses and re-reads them when the
    approximator rewrites the cuts in place (``_load_capacities``).
    Golden-tested bit-identical to the per-tree twin
    (``tests/test_stacked_operator.py``): identical row order,
    identical floating-point folds.
    """

    def __init__(self, trees: Sequence[RootedTree], num_nodes: int) -> None:
        if not trees:
            raise GraphError(
                "a congestion approximator needs at least one tree"
            )
        self.num_nodes = int(num_nodes)
        self.num_trees = len(trees)
        n = self.num_nodes
        for tree in trees:
            if tree.num_nodes != n:
                raise GraphError(
                    "stacked operator requires trees over the same node "
                    f"set; got {tree.num_nodes} != {n}"
                )
        T = self.num_trees
        self._trees = tuple(trees)
        self._order = np.concatenate(
            [tree.euler_order for tree in trees]
        ).reshape(T, n)

        # Row bookkeeping: the row nodes are every node but the root,
        # ascending within each tree, concatenated in tree order (the
        # per-tree block order).
        tin_rows: list[np.ndarray] = []
        tout_rows: list[np.ndarray] = []
        scatter_tin: list[np.ndarray] = []
        scatter_tout: list[np.ndarray] = []
        pot_rows: list[np.ndarray] = []
        for t, tree in enumerate(trees):
            rows_tin = np.delete(tree.euler_tin, tree.root)
            rows_tout = np.delete(tree.euler_tout, tree.root)
            # Row nodes are non-root, so tin >= 1: the exclusive prefix
            # P[k] equals the inclusive prefix Q[k-1].
            tin_rows.append(t * n + rows_tin - 1)
            tout_rows.append(t * n + rows_tout - 1)
            diff_base = t * (n + 1)
            scatter_tin.append(diff_base + rows_tin)
            scatter_tout.append(diff_base + rows_tout)
            pot_rows.append(t * n + tree.euler_tin)
        self._tin_rows = np.concatenate(tin_rows)
        self._tout_rows = np.concatenate(tout_rows)
        self._pot_rows = np.concatenate(pot_rows).reshape(T, n)
        self.num_rows = len(self._tin_rows)
        R = self.num_rows
        self._row_inv_capacity = np.empty(R)
        self._load_capacities()

        # Transpose scatter targets: fixed per operator, one array
        # (tin adds before tout subtracts — the np.add.at fold order).
        self._scatter_idx = np.concatenate(scatter_tin + scatter_tout)
        self._diff_size = T * (n + 1)

        # Preallocated scratch planes (reused across calls; every entry
        # is fully overwritten before it is read).
        self._prefix = np.empty((T, n))
        self._cum = np.empty((T, n))
        self._pots = np.empty((T, n))
        self._row_scratch = np.empty(R)
        self._row_buf = np.empty(R)
        self._signed = np.empty(2 * R)

    def _load_capacities(self) -> None:
        """Recompute the inverse-capacity rows, in place, from the
        trees' ``capacity`` arrays (row layout unchanged)."""
        caps = np.concatenate(
            [np.delete(tree.capacity, tree.root) for tree in self._trees]
        )
        if np.any(caps <= 0):
            raise GraphError(
                "virtual tree has a zero-capacity induced cut; the graph "
                "must be connected with positive capacities"
            )
        np.divide(1.0, caps, out=self._row_inv_capacity)

    @hot_kernel
    def apply(
        self, demand: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """R·b in one pass: gather, row-wise prefix sums, two lookups.

        With ``out=`` (shape ``(num_rows,)``) the call is allocation
        free; otherwise a fresh array is returned.
        """
        demand = np.asarray(demand, dtype=float)
        if demand.shape != (self.num_nodes,):
            # Must be checked here: the clip-mode gather below would
            # silently wrap a short vector into finite garbage.
            raise GraphError(
                f"demand has shape {demand.shape}, expected "
                f"({self.num_nodes},)"
            )
        if out is None:
            out = np.empty(self.num_rows)  # alloc-ok (unbuffered fallback)
        if self.num_rows == 0:
            return out
        # mode="clip" skips take's per-element bounds check; every
        # index array here is precomputed in-bounds by construction
        # (and the demand length was validated above).
        np.take(demand, self._order, out=self._prefix, mode="clip")
        np.cumsum(self._prefix, axis=1, out=self._prefix)
        np.take(self._prefix, self._tout_rows, out=out, mode="clip")
        np.take(
            self._prefix, self._tin_rows, out=self._row_scratch, mode="clip"
        )
        np.subtract(out, self._row_scratch, out=out)
        np.multiply(out, self._row_inv_capacity, out=out)
        return out

    @hot_kernel
    def apply_transpose(
        self, row_values: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Rᵀ·g in one pass: planned scatter, row-wise cumsum, gather."""
        row_values = np.asarray(row_values, dtype=float)
        if row_values.shape != (self.num_rows,):
            raise GraphError(
                f"row values have shape {row_values.shape}, expected "
                f"({self.num_rows},)"
            )
        if out is None:
            out = np.empty(self.num_nodes)  # alloc-ok (unbuffered fallback)
        if self.num_rows == 0:
            out[:] = 0.0
            return out
        R = self.num_rows
        np.multiply(row_values, self._row_inv_capacity, out=self._signed[:R])
        np.negative(self._signed[:R], out=self._signed[R:])
        diff = np.bincount(
            self._scatter_idx, weights=self._signed, minlength=self._diff_size
        ).reshape(self.num_trees, self.num_nodes + 1)
        np.cumsum(diff[:, :-1], axis=1, out=self._cum)
        np.take(self._cum, self._pot_rows, out=self._pots, mode="clip")
        out[:] = self._pots[0]
        for t in range(1, self.num_trees):
            np.add(out, self._pots[t], out=out)
        return out

    @hot_kernel
    def estimate(self, demand: np.ndarray) -> float:
        """‖Rb‖_∞ without allocating (uses the internal row buffer)."""
        y = self.apply(demand, out=self._row_buf)
        np.abs(y, out=y)
        return float(y.max(initial=0.0))

    # ------------------------------------------------------------------
    # (Q, ·) forms: one 1-D product per row
    # ------------------------------------------------------------------
    def apply_batch(
        self, demand_plane: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``R·b`` for ``Q`` stacked demands: ``(Q, n) → (Q, num_rows)``,
        row ``q`` computed by :meth:`apply` on ``demand_plane[q]``."""
        demand_plane = np.asarray(demand_plane, dtype=float)
        if demand_plane.ndim != 2 or demand_plane.shape[1] != self.num_nodes:
            raise GraphError(
                f"demand plane has shape {demand_plane.shape}, expected "
                f"(Q, {self.num_nodes})"
            )
        if out is None:
            out = np.empty((demand_plane.shape[0], self.num_rows))
        for q in range(demand_plane.shape[0]):
            self.apply(demand_plane[q], out=out[q])
        return out

    def apply_transpose_batch(
        self, row_plane: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``Rᵀ·g`` for ``Q`` stacked row vectors: ``(Q, R) → (Q, n)``,
        row ``q`` computed by :meth:`apply_transpose` on
        ``row_plane[q]``."""
        row_plane = np.asarray(row_plane, dtype=float)
        if row_plane.ndim != 2 or row_plane.shape[1] != self.num_rows:
            raise GraphError(
                f"row plane has shape {row_plane.shape}, expected "
                f"(Q, {self.num_rows})"
            )
        if out is None:
            out = np.empty((row_plane.shape[0], self.num_nodes))
        for q in range(row_plane.shape[0]):
            self.apply_transpose(row_plane[q], out=out[q])
        return out


"""Flat stacked congestion-approximator operator (one pass per product).

The per-tree :class:`~repro.core.approximator.TreeOperator`s compute
``R·b`` / ``Rᵀ·g`` one O(n) block at a time — a Python loop over the
O(log n) virtual trees, a ``np.concatenate`` per ``apply``, per-call
index slicing, and two ``ufunc.at`` scatters per ``apply_transpose``.
Since every AlmostRoute gradient step performs both products, that
per-tree dispatch overhead is the end-to-end hot path (measured: the
fused pass below wins ~3×/~2× at n=256/1024 — see
``BENCH_graphcore.json``; the residual floor is the sequential
segmented cumsum plus the scatter, which both paths share). This module fuses the blocks into **one**
stacked operator built once at approximator-construction time, the same
"batch all per-round work into a single synchronous pass" discipline the
hierarchy sampler adopted in PR 2.

Every product of
:class:`~repro.core.approximator.TreeCongestionApproximator` runs
through this operator; the per-tree blocks stay only as the readable
reference the golden tests compare against.

Stacked-segment layout
======================

All ``T`` virtual trees span the same ``n`` graph nodes, so every
per-tree array is a fixed-width segment and the stack is a dense plane:

* ``_order`` — ``(T·n,)`` concatenated DFS preorders; entries are node
  ids (< n), i.e. gather indices into the demand vector.
* prefix plane — the gathered demand reshaped ``(T, n)`` and turned
  into inclusive prefix sums by one in-place ``np.cumsum(axis=1)``
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
  sequential fold as the legacy ``np.add.at``/``np.subtract.at`` pair
  (adds before subtracts, ascending row order within each), so results
  are bit-identical without ``ufunc.at``'s per-element dispatch cost.
  (``np.add.reduceat`` would be allocation free but sums segments
  pairwise, which breaks the bit-identity contract.)
* ``_pot_rows`` — ``(T·n,)`` flattened indices ``t·n + tin`` (all
  nodes) into the row-wise cumsum of the diff plane; the per-tree node
  potentials are gathered in one take and accumulated tree by tree
  (``0 + x == x`` exactly, so the accumulation matches the per-tree
  ``out += block`` loop bit for bit).

Segments sharing one global cumsum would leak floating-point carry
across tree boundaries; the ``(T, ·)`` plane resets every row for free.

All scratch planes are preallocated on the operator, and ``apply`` /
``apply_transpose`` accept ``out=`` — with a caller-provided output
``apply`` allocates nothing and ``apply_transpose``'s only per-call
allocation is ``bincount``'s diff-plane output (the price of the exact
fold), which is what the AlmostRoute workspace
(:class:`~repro.core.almost_route.RouteWorkspace`) relies on. The
``(Q, ·)`` forms ``apply_batch`` / ``apply_transpose_batch`` run the
1-D product once per row; no library code calls them.

Sharded execution
=================

The ``(T, ·)`` planes are row-independent, so multi-worker ``R·b`` /
``Rᵀ·g`` is a data partition of tree rows, not a rewrite: a
:class:`~repro.parallel.plan.ShardPlan` splits the trees into
contiguous blocks balanced by row count, each worker runs the *same*
gather / row-cumsum / scatter sequence on its block (every index array
rebased once per shard count and cached), and the coordinating thread
writes ``apply`` shard outputs into their row slices and folds
``apply_transpose`` per-tree potentials in global tree order — the
exact serial ``out += pots[t]`` fold, so both products stay
bit-identical at every shard count (swept by
``tests/test_parallel_backend.py``). Dispatch is adaptive: serial
below the config's ``min_size`` plane-cell threshold, sharded above,
selected by the approximator's :class:`~repro.parallel.config.
ParallelConfig` (or the ``REPRO_WORKERS`` process default).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.errors import GraphError
from repro.graphs.csr import WIDE_DTYPE
from repro.hotpath import hot_kernel
from repro.parallel.arena import tag_array_version
from repro.parallel.config import ParallelConfig, resolve_config
from repro.parallel.plan import ShardPlan
from repro.parallel.pool import get_pool

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.approximator import TreeOperator

__all__ = ["StackedTreeOperator"]


@dataclass
class _StackedShard:
    """One contiguous tree block's rebased index arrays and scratch.

    All indices are rebased to the shard's own ``(trees, n)`` /
    ``(trees, n + 1)`` subplanes so workers never index outside their
    block; built once per shard count and cached on the operator. The
    scratch planes are owned by exactly one task per product call, so
    in-process pools (serial / thread) run allocation-free except for
    ``bincount``'s diff plane; the process pool ignores them (workers
    allocate locally and ship results back).
    """

    t0: int
    t1: int
    r0: int
    r1: int
    trees: int
    order: np.ndarray
    tin_rows: np.ndarray
    tout_rows: np.ndarray
    inv_capacity: np.ndarray
    scatter_idx: np.ndarray
    pot_rows: np.ndarray
    prefix: np.ndarray
    row_scratch: np.ndarray
    signed: np.ndarray
    cum: np.ndarray
    pots: np.ndarray


@hot_kernel
def _apply_shard(
    order: np.ndarray,
    tin_rows: np.ndarray,
    tout_rows: np.ndarray,
    inv_capacity: np.ndarray,
    demand: np.ndarray,
    trees: int,
    n: int,
    prefix: np.ndarray | None = None,
    row_scratch: np.ndarray | None = None,
    target: np.ndarray | None = None,
) -> np.ndarray:
    """One tree block of ``R·b`` — the serial sequence on a subplane.

    With the shard's cached buffers and a ``target`` view into the
    caller's output the call is allocation free (in-process pools);
    without them (process pool) it allocates and returns fresh arrays.
    """
    if prefix is None:
        prefix = np.empty((trees, n))  # alloc-ok (process-pool shard fallback)
    if row_scratch is None:
        row_scratch = np.empty(len(tin_rows))  # alloc-ok (process-pool shard fallback)
    if target is None:
        target = np.empty(len(tin_rows))  # alloc-ok (process-pool shard fallback)
    flat = prefix.reshape(-1)
    np.take(demand, order, out=flat, mode="clip")
    np.cumsum(prefix, axis=1, out=prefix)
    np.take(flat, tout_rows, out=target, mode="clip")
    np.take(flat, tin_rows, out=row_scratch, mode="clip")
    np.subtract(target, row_scratch, out=target)
    np.multiply(target, inv_capacity, out=target)
    return target


@hot_kernel
def _apply_transpose_shard(
    scatter_idx: np.ndarray,
    row_values: np.ndarray,
    inv_capacity: np.ndarray,
    pot_rows: np.ndarray,
    trees: int,
    n: int,
    signed: np.ndarray | None = None,
    cum: np.ndarray | None = None,
    pots: np.ndarray | None = None,
) -> np.ndarray:
    """One tree block of ``Rᵀ·g``: per-tree potentials, *unfolded*.

    Returns the ``(trees, n)`` per-tree potential rows rather than
    their sum — the coordinator folds all trees in global tree order,
    which is what keeps the sharded result bit-identical to the serial
    accumulation (a per-shard partial sum would re-associate the
    floating-point fold).
    """
    rows = len(row_values)
    if signed is None:
        signed = np.empty(2 * rows)  # alloc-ok (process-pool shard fallback)
    if cum is None:
        cum = np.empty((trees, n))  # alloc-ok (process-pool shard fallback)
    if pots is None:
        pots = np.empty((trees, n))  # alloc-ok (process-pool shard fallback)
    np.multiply(row_values, inv_capacity, out=signed[:rows])
    np.negative(signed[:rows], out=signed[rows:])
    diff = np.bincount(
        scatter_idx, weights=signed, minlength=trees * (n + 1)
    ).reshape(trees, n + 1)
    np.cumsum(diff[:, :-1], axis=1, out=cum)
    np.take(cum.reshape(-1), pot_rows, out=pots.reshape(-1), mode="clip")
    return pots


class StackedTreeOperator:
    """All per-tree row blocks of R fused into one flat operator.

    Built from the same :class:`TreeOperator` list the per-tree path
    uses, and golden-tested bit-identical to it (``tests/
    test_stacked_operator.py``): identical row order, identical
    floating-point folds.
    """

    def __init__(
        self, operators: Sequence["TreeOperator"], num_nodes: int
    ) -> None:
        self.num_nodes = int(num_nodes)
        self.num_trees = len(operators)
        n = self.num_nodes
        for op in operators:
            if op.tree.num_nodes != n:
                raise GraphError(
                    "stacked operator requires trees over the same node "
                    f"set; got {op.tree.num_nodes} != {n}"
                )
        T = self.num_trees
        if T == 0:
            self._order = np.zeros(0, dtype=WIDE_DTYPE)
        else:
            self._order = np.concatenate([op.order for op in operators])

        # Row bookkeeping (concatenated in tree order, ascending row
        # node within each tree — the per-tree block order).
        tin_rows: list[np.ndarray] = []
        tout_rows: list[np.ndarray] = []
        scatter_tin: list[np.ndarray] = []
        scatter_tout: list[np.ndarray] = []
        pot_rows: list[np.ndarray] = []
        inv_caps: list[np.ndarray] = []
        row_counts: list[int] = []
        for t, op in enumerate(operators):
            row_counts.append(len(op.row_nodes))
            rows_tin = op.tin[op.row_nodes]
            rows_tout = op.tout[op.row_nodes]
            # Row nodes are non-root, so tin >= 1: the exclusive prefix
            # P[k] equals the inclusive prefix Q[k-1].
            tin_rows.append(t * n + rows_tin - 1)
            tout_rows.append(t * n + rows_tout - 1)
            diff_base = t * (n + 1)
            scatter_tin.append(diff_base + rows_tin)
            scatter_tout.append(diff_base + rows_tout)
            pot_rows.append(t * n + op.tin)
            inv_caps.append(op.row_inv_capacity)
        self._tin_rows = _concat_int(tin_rows)
        self._tout_rows = _concat_int(tout_rows)
        self._pot_rows = _concat_int(pot_rows)
        self._row_inv_capacity = (
            np.concatenate(inv_caps) if inv_caps else np.zeros(0)
        )
        # Monotone data epoch of _row_inv_capacity: bumped by every
        # refresh_inv_capacity so cached shard views (aliases of the
        # base vector) are re-exported by the shared-memory arena.
        self._data_version = 0
        self.num_rows = len(self._tin_rows)
        R = self.num_rows
        # Per-tree row boundaries: tree t owns rows
        # _row_offsets[t] : _row_offsets[t + 1] — the shard planner
        # balances tree blocks by these counts.
        self._row_offsets = np.zeros(T + 1, dtype=WIDE_DTYPE)
        np.cumsum(np.asarray(row_counts, dtype=WIDE_DTYPE), out=self._row_offsets[1:])
        self._shard_cache: dict[int, list[_StackedShard]] = {}

        # Transpose scatter targets: fixed per operator, one array
        # (tin adds before tout subtracts — the np.add.at fold order).
        self._scatter_idx = _concat_int(scatter_tin + scatter_tout)
        self._diff_size = T * (n + 1)

        # Preallocated scratch planes (reused across calls; every entry
        # is fully overwritten before it is read).
        self._prefix = np.empty((T, n))
        self._prefix_flat = self._prefix.reshape(-1)
        self._cum = np.empty((T, n))
        self._cum_flat = self._cum.reshape(-1)
        self._pots = np.empty((T, n))
        self._pots_flat = self._pots.reshape(-1)
        self._row_scratch = np.empty(R)
        self._row_buf = np.empty(R)
        self._signed = np.empty(2 * R)

    def refresh_inv_capacity(
        self, inv_caps: Sequence[np.ndarray]
    ) -> None:
        """Patch the inverse-capacity row vector in place (capacity-only
        delta; row layout unchanged).

        Every cached shard's ``inv_capacity`` is a read-only *view*
        aliasing the base vector, so the write propagates to every
        shard without re-slicing; the views' shared-memory export tags
        are advanced so the process pool's persistent arena re-exports
        the new bytes on the next map instead of serving stale ones.
        """
        flat = (
            np.concatenate(list(inv_caps))
            if len(inv_caps)
            else np.zeros(0)
        )
        if flat.shape != self._row_inv_capacity.shape:
            raise GraphError(
                f"refresh_inv_capacity: got {flat.shape[0]} rows, "
                f"operator has {self.num_rows}"
            )
        self._row_inv_capacity[:] = flat
        self._data_version += 1
        for shards in self._shard_cache.values():
            for shard in shards:
                tag_array_version(shard.inv_capacity, self._data_version)

    def _shards_for(self, num_shards: int) -> list[_StackedShard]:
        """Rebased per-shard index arrays for a shard count (cached)."""
        num_shards = max(1, min(int(num_shards), self.num_trees))
        shards = self._shard_cache.get(num_shards)
        if shards is not None:
            return shards
        n = self.num_nodes
        R = self.num_rows
        plan = ShardPlan.balanced(np.diff(self._row_offsets), num_shards)
        shards = []
        for t0, t1 in plan.ranges():
            r0 = int(self._row_offsets[t0])
            r1 = int(self._row_offsets[t1])
            scatter = np.concatenate(
                (self._scatter_idx[r0:r1], self._scatter_idx[R + r0 : R + r1])
            )
            scatter -= t0 * (n + 1)
            trees = t1 - t0
            order = self._order[t0 * n : t1 * n]
            tin_rows = self._tin_rows[r0:r1] - t0 * n
            tout_rows = self._tout_rows[r0:r1] - t0 * n
            inv_capacity = self._row_inv_capacity[r0:r1]
            pot_rows = self._pot_rows[t0 * n : t1 * n] - t0 * n
            # The invariant per-shard arrays are read-only: workers
            # only gather through them, and the flag is what lets the
            # process pool's persistent arena export each one once per
            # operator lifetime instead of once per product call.
            for invariant in (
                order, tin_rows, tout_rows, inv_capacity, scatter, pot_rows
            ):
                invariant.setflags(write=False)
            shards.append(
                _StackedShard(
                    t0=t0,
                    t1=t1,
                    r0=r0,
                    r1=r1,
                    trees=trees,
                    order=order,
                    tin_rows=tin_rows,
                    tout_rows=tout_rows,
                    inv_capacity=inv_capacity,
                    scatter_idx=scatter,
                    pot_rows=pot_rows,
                    prefix=np.empty((trees, n)),
                    row_scratch=np.empty(r1 - r0),
                    signed=np.empty(2 * (r1 - r0)),
                    cum=np.empty((trees, n)),
                    pots=np.empty((trees, n)),
                )
            )
        self._shard_cache[num_shards] = shards
        return shards

    def _sharded_plan(
        self, parallel: ParallelConfig | None
    ) -> tuple[list[_StackedShard], ParallelConfig] | None:
        """The shard list to run, or ``None`` for the serial path."""
        config = resolve_config(parallel)
        if self.num_trees <= 1 or not config.should_shard(
            self.num_trees * self.num_nodes
        ):
            return None
        shards = self._shards_for(config.workers)
        if len(shards) <= 1:
            return None
        return shards, config

    @hot_kernel
    def apply(
        self,
        demand: np.ndarray,
        out: np.ndarray | None = None,
        parallel: ParallelConfig | None = None,
    ) -> np.ndarray:
        """R·b in one pass: gather, row-wise prefix sums, two lookups.

        With ``out=`` (shape ``(num_rows,)``) the serial call is
        allocation free; otherwise a fresh array is returned. Sharded
        calls (``parallel=`` / process default) run tree blocks on the
        worker pool and write each block's rows into ``out`` —
        bit-identical to the serial pass.
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
        sharded = self._sharded_plan(parallel)
        if sharded is not None:
            shards, config = sharded
            pool = get_pool(config)
            if pool.shares_memory:
                # Workers write straight into the caller's out views
                # using the shard's cached scratch — allocation free.
                pool.map(
                    _apply_shard,
                    [
                        (
                            shard.order,
                            shard.tin_rows,
                            shard.tout_rows,
                            shard.inv_capacity,
                            demand,
                            shard.trees,
                            self.num_nodes,
                            shard.prefix,
                            shard.row_scratch,
                            out[shard.r0 : shard.r1],
                        )
                        for shard in shards
                    ],
                )
            else:
                results = pool.map(
                    _apply_shard,
                    [
                        (
                            shard.order,
                            shard.tin_rows,
                            shard.tout_rows,
                            shard.inv_capacity,
                            demand,
                            shard.trees,
                            self.num_nodes,
                        )
                        for shard in shards
                    ],
                )
                for shard, block in zip(shards, results):
                    out[shard.r0 : shard.r1] = block
            return out
        # mode="clip" skips take's per-element bounds check; every
        # index array here is precomputed in-bounds by construction
        # (and the demand length was validated above).
        np.take(demand, self._order, out=self._prefix_flat, mode="clip")
        np.cumsum(self._prefix, axis=1, out=self._prefix)
        np.take(self._prefix_flat, self._tout_rows, out=out, mode="clip")
        np.take(
            self._prefix_flat,
            self._tin_rows,
            out=self._row_scratch,
            mode="clip",
        )
        np.subtract(out, self._row_scratch, out=out)
        np.multiply(out, self._row_inv_capacity, out=out)
        return out

    @hot_kernel
    def apply_transpose(
        self,
        row_values: np.ndarray,
        out: np.ndarray | None = None,
        parallel: ParallelConfig | None = None,
    ) -> np.ndarray:
        """Rᵀ·g in one pass: planned scatter, row-wise cumsum, gather.

        The sharded path computes each tree block's per-tree potential
        rows on the worker pool and folds them here in global tree
        order — the exact serial accumulation, hence bit-identical.
        """
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
        sharded = self._sharded_plan(parallel)
        if sharded is not None:
            shards, config = sharded
            pool = get_pool(config)
            if pool.shares_memory:
                results = pool.map(
                    _apply_transpose_shard,
                    [
                        (
                            shard.scatter_idx,
                            row_values[shard.r0 : shard.r1],
                            shard.inv_capacity,
                            shard.pot_rows,
                            shard.trees,
                            self.num_nodes,
                            shard.signed,
                            shard.cum,
                            shard.pots,
                        )
                        for shard in shards
                    ],
                )
            else:
                results = pool.map(
                    _apply_transpose_shard,
                    [
                        (
                            shard.scatter_idx,
                            row_values[shard.r0 : shard.r1],
                            shard.inv_capacity,
                            shard.pot_rows,
                            shard.trees,
                            self.num_nodes,
                        )
                        for shard in shards
                    ],
                )
            first = True
            for block in results:
                for t in range(block.shape[0]):
                    if first:
                        out[:] = block[t]
                        first = False
                    else:
                        np.add(out, block[t], out=out)
            return out
        R = self.num_rows
        np.multiply(row_values, self._row_inv_capacity, out=self._signed[:R])
        np.negative(self._signed[:R], out=self._signed[R:])
        diff = np.bincount(
            self._scatter_idx, weights=self._signed, minlength=self._diff_size
        ).reshape(self.num_trees, self.num_nodes + 1)
        np.cumsum(diff[:, :-1], axis=1, out=self._cum)
        np.take(
            self._cum_flat, self._pot_rows, out=self._pots_flat, mode="clip"
        )
        out[:] = self._pots[0]
        for t in range(1, self.num_trees):
            np.add(out, self._pots[t], out=out)
        return out

    @hot_kernel
    def estimate(
        self, demand: np.ndarray, parallel: ParallelConfig | None = None
    ) -> float:
        """‖Rb‖_∞ without allocating (uses the internal row buffer)."""
        y = self.apply(demand, out=self._row_buf, parallel=parallel)
        np.abs(y, out=y)
        return float(y.max(initial=0.0))

    # ------------------------------------------------------------------
    # (Q, ·) forms: one 1-D product per row
    # ------------------------------------------------------------------
    def apply_batch(
        self,
        demand_plane: np.ndarray,
        out: np.ndarray | None = None,
        parallel: ParallelConfig | None = None,
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
            self.apply(demand_plane[q], out=out[q], parallel=parallel)
        return out

    def apply_transpose_batch(
        self,
        row_plane: np.ndarray,
        out: np.ndarray | None = None,
        parallel: ParallelConfig | None = None,
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
            self.apply_transpose(row_plane[q], out=out[q], parallel=parallel)
        return out


def _concat_int(parts: list[np.ndarray]) -> np.ndarray:
    if not parts:
        return np.zeros(0, dtype=WIDE_DTYPE)
    return np.concatenate([np.asarray(p, dtype=WIDE_DTYPE) for p in parts])

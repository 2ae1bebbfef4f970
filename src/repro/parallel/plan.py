"""Shard plans: balanced contiguous partitions of array index ranges.

Every sharded kernel in the library splits *contiguous* index ranges —
CSR ``indptr`` node ranges, BFS frontier slices, MWU sample rows —
never arbitrary subsets. Contiguity is what keeps the sharded
paths bit-identical to the serial ones: concatenating shard outputs in
shard order reproduces the exact element order the serial whole-array
pass produces, so every downstream fold (``np.unique`` tie-breaks,
``bincount`` accumulation order, floating-point summation order) is
unchanged.

A :class:`ShardPlan` is just the boundary array of such a partition,
balanced either by item count (:meth:`ShardPlan.even`) or by a
per-item weight such as CSR degrees (:meth:`ShardPlan.balanced`), so
no worker is handed a degenerate share of the work.

Level-synchronous kernels (frontier BFS) additionally keep a
:class:`BfsShardState` across levels: re-planning from scratch every
level pays a cumsum + searchsorted per frontier even when the degree
mass barely moved, so the state reuses the previous boundaries —
rescaled to the new frontier — until the measured per-shard imbalance
drifts past a threshold. Shard boundaries are pure scheduling (outputs
concatenate in frontier order regardless of where the cuts fall), so
reuse can never change a result bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dtypes import WIDE_DTYPE

__all__ = ["BfsShardState", "ShardPlan"]


@dataclass(frozen=True)
class ShardPlan:
    """A contiguous partition ``0 = b_0 <= b_1 <= ... <= b_S = total``.

    Attributes:
        bounds: ``(S + 1,)`` int64 strictly increasing boundaries
            (empty shards are dropped at construction, so every
            ``[bounds[i], bounds[i+1])`` range is non-empty — except
            for the degenerate all-empty plan over zero items).
    """

    bounds: np.ndarray

    @property
    def num_shards(self) -> int:
        return len(self.bounds) - 1

    @property
    def total(self) -> int:
        return int(self.bounds[-1])

    def ranges(self) -> list[tuple[int, int]]:
        """The shard ranges as ``(lo, hi)`` pairs, in index order."""
        b = self.bounds
        return [(int(b[i]), int(b[i + 1])) for i in range(len(b) - 1)]

    @staticmethod
    def _from_raw_bounds(raw: np.ndarray, total: int) -> "ShardPlan":
        bounds = np.unique(
            np.concatenate(([0], np.asarray(raw, dtype=WIDE_DTYPE), [total]))
        )
        return ShardPlan(bounds=bounds)

    @classmethod
    def even(cls, total: int, num_shards: int) -> "ShardPlan":
        """Split ``total`` items into at most ``num_shards`` near-equal
        contiguous ranges."""
        total = int(total)
        if total <= 0:
            return cls(bounds=np.zeros(1, dtype=WIDE_DTYPE))
        num_shards = max(1, min(int(num_shards), total))
        raw = (np.arange(1, num_shards, dtype=WIDE_DTYPE) * total) // num_shards
        return cls._from_raw_bounds(raw, total)

    @classmethod
    def balanced(cls, weights: np.ndarray, num_shards: int) -> "ShardPlan":
        """Split ``len(weights)`` items into contiguous ranges of
        near-equal total weight (weights must be non-negative).

        Boundary selection is the standard prefix-sum split: shard
        ``i`` ends at the first index whose cumulative weight reaches
        ``i/S`` of the total. Zero-weight tails collapse into their
        neighbor (the boundary dedup drops empty shards).
        """
        weights = np.asarray(weights)
        total = len(weights)
        if total <= 0:
            return cls(bounds=np.zeros(1, dtype=WIDE_DTYPE))
        num_shards = max(1, min(int(num_shards), total))
        if num_shards == 1:
            return cls(bounds=np.array([0, total], dtype=WIDE_DTYPE))
        cumulative = np.cumsum(weights, dtype=np.float64)
        mass = float(cumulative[-1])
        if mass <= 0:
            return cls.even(total, num_shards)
        targets = mass * np.arange(1, num_shards, dtype=np.float64) / num_shards
        raw = np.searchsorted(cumulative, targets, side="left") + 1
        return cls._from_raw_bounds(raw, total)

    @classmethod
    def for_nodes(cls, indptr: np.ndarray, num_shards: int) -> "ShardPlan":
        """Partition the node range of a CSR by incidence count, so each
        shard owns ``~2m/S`` incidences rather than ``~n/S`` nodes."""
        return cls.balanced(np.diff(indptr), num_shards)

    @classmethod
    def for_frontier(
        cls, indptr: np.ndarray, frontier: np.ndarray, num_shards: int
    ) -> "ShardPlan":
        """Partition a BFS frontier by the degree mass of its nodes."""
        return cls.balanced(
            indptr[frontier + 1] - indptr[frontier], num_shards
        )


class BfsShardState:
    """Persistent per-level frontier shard state for one BFS run.

    :meth:`plan` serves the shard plan for each successive frontier.
    After a full degree-balanced plan, the boundary positions are kept
    as *fractions* of the frontier length; the next level reuses them
    (rescaled) as long as the resulting per-shard degree masses stay
    within ``rebalance_ratio`` of their mean — one ``reduceat`` instead
    of the cumsum + searchsorted + dedup of a fresh
    :meth:`ShardPlan.balanced`. When frontier mass shifts past the
    threshold (or the rescaled boundaries collapse shards), the full
    plan runs again and the fractions reset.

    Plan choice never affects results — shard outputs concatenate back
    in frontier order whatever the boundaries — so the reuse heuristic
    is exclusively a scheduling decision (the cross-shard harness
    sweeps BFS bit-identity over sharded configs regardless).

    Attributes:
        rebalances: Full degree-balanced plans computed (diagnostics).
        reuses: Levels served by rescaled previous boundaries.
    """

    __slots__ = (
        "num_shards",
        "rebalance_ratio",
        "_fractions",
        "rebalances",
        "reuses",
    )

    def __init__(self, num_shards: int, rebalance_ratio: float = 1.5) -> None:
        self.num_shards = max(1, int(num_shards))
        self.rebalance_ratio = float(rebalance_ratio)
        self._fractions: np.ndarray | None = None
        self.rebalances = 0
        self.reuses = 0

    def plan(self, indptr: np.ndarray, frontier: np.ndarray) -> ShardPlan:
        """The shard plan for this level's frontier."""
        total = len(frontier)
        if total <= 0:
            return ShardPlan(bounds=np.zeros(1, dtype=WIDE_DTYPE))
        if self._fractions is not None and total >= self.num_shards:
            raw = (self._fractions * total).astype(WIDE_DTYPE)
            bounds = np.unique(np.concatenate(([0], raw, [total])))
            if len(bounds) - 1 == self.num_shards:
                degrees = indptr[frontier + 1] - indptr[frontier]
                masses = np.add.reduceat(
                    np.asarray(degrees, dtype=np.float64), bounds[:-1]
                )
                mean = float(masses.sum()) / len(masses)
                if mean <= 0 or float(masses.max()) <= (
                    self.rebalance_ratio * mean
                ):
                    self.reuses += 1
                    return ShardPlan(bounds=bounds)
        plan = ShardPlan.for_frontier(indptr, frontier, self.num_shards)
        if plan.num_shards == self.num_shards and plan.total > 0:
            self._fractions = (
                plan.bounds[1:-1].astype(np.float64) / plan.total
            )
        else:
            # Clamped / degenerate plan: don't lock future levels into
            # fewer shards than requested.
            self._fractions = None
        self.rebalances += 1
        return plan

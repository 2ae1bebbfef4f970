"""Epoch delta journal: *what* changed between graph versions.

``Graph._version`` (PR 5) tells downstream caches *that* something
changed; the journal tells them *what*. Every ``set_capacity`` write
appends one record — ``(version-after, eid, old capacity, new
capacity)`` — so a consumer holding a flow or an operator built at
epoch ``e`` can ask :meth:`DeltaJournal.deltas_since` for the coalesced
capacity delta ``e → current`` and patch instead of rebuild:

* warm-start AlmostRoute from the previous epoch's flow, rescaled per
  touched edge (:func:`rescale_flow`);
* vouch that a move was capacity-only, so a congestion approximator
  keeps its trees and recomputes their cut capacities exactly in place
  instead of rebuilding;
* salvage result-cache entries across an epoch move
  (``FlowServer(refresh="incremental")``).

The journal is deliberately **bounded** (:data:`JOURNAL_LIMIT`
records): once it overflows, the oldest records are dropped and
``deltas_since`` answers ``None`` for epochs older than the retained
window — the caller must treat that as a full invalidation, exactly as
if the version counter were still bare. Structural mutations
(``add_edge`` — edge ids shift meaning) clear the journal entirely and
re-base it, so a capacity delta can never silently span a structural
change.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError
from repro.graphs.csr import WIDE_DTYPE

__all__ = [
    "JOURNAL_LIMIT",
    "CapacityDelta",
    "DeltaJournal",
    "rescale_flow",
]

#: Maximum retained journal records. One record per ``set_capacity``;
#: a window of 1024 single-edge writes comfortably covers the serving
#: layer's sync cadence while bounding memory at a few tens of KB.
JOURNAL_LIMIT = 1024


@dataclass(frozen=True)
class CapacityDelta:
    """A coalesced capacity-only delta between two graph epochs.

    Attributes:
        base_version: The epoch the delta starts from (exclusive) —
            ``old_capacity`` is the capacity vector entry *at* this
            epoch for each touched edge.
        version: The epoch the delta ends at (inclusive) —
            ``new_capacity`` holds the entries at this epoch.
        edge_ids: Touched edge ids, ascending, each appearing once
            (repeated writes to one edge coalesce to first-old /
            last-new).
        old_capacity / new_capacity: Per-edge capacities at
            ``base_version`` / ``version``, aligned with ``edge_ids``.
    """

    base_version: int
    version: int
    edge_ids: np.ndarray
    old_capacity: np.ndarray
    new_capacity: np.ndarray

    @property
    def num_edges(self) -> int:
        """How many distinct edges the delta touches."""
        return int(self.edge_ids.shape[0])


class DeltaJournal:
    """Bounded per-epoch record of capacity writes.

    ``record`` is called by ``Graph._record_capacity_delta`` with the
    *post-bump* version, so record ``k`` describes the transition
    ``version k-1 → k``; the retained records always cover the
    contiguous window ``base_version → <current version>``.
    """

    def __init__(self, limit: int = JOURNAL_LIMIT) -> None:
        if limit <= 0:
            raise GraphError(f"journal limit must be positive, got {limit}")
        self._limit = int(limit)
        self._versions: list[int] = []
        self._edge_ids: list[int] = []
        self._old: list[float] = []
        self._new: list[float] = []
        self._base_version = 0
        self._overflowed = False

    @property
    def size(self) -> int:
        """Retained record count (== version span of the window)."""
        return len(self._versions)

    @property
    def base_version(self) -> int:
        """Oldest epoch ``deltas_since`` can still answer from."""
        return self._base_version

    @property
    def overflowed(self) -> bool:
        """Whether records were ever dropped since the last structural
        re-base — epochs before ``base_version`` are unanswerable."""
        return self._overflowed

    def record(
        self, version: int, edge_id: int, old: float, new: float
    ) -> None:
        """Append one capacity write (``version`` is post-bump)."""
        self._versions.append(int(version))
        self._edge_ids.append(int(edge_id))
        self._old.append(float(old))
        self._new.append(float(new))
        if len(self._versions) > self._limit:
            self._base_version = self._versions.pop(0)
            del self._edge_ids[0], self._old[0], self._new[0]
            self._overflowed = True

    def mark_structural(self, version: int) -> None:
        """Re-base after a structural mutation (edge ids changed
        meaning): drop every record and start a fresh window at
        ``version`` (post-bump)."""
        self._versions.clear()
        self._edge_ids.clear()
        self._old.clear()
        self._new.clear()
        self._base_version = int(version)
        self._overflowed = False

    def deltas_since(
        self, epoch: int, current_version: int
    ) -> CapacityDelta | None:
        """The coalesced capacity delta ``epoch → current_version``.

        Returns ``None`` when the window cannot answer — the epoch
        predates ``base_version`` (overflow or structural re-base), or
        the journal's records do not account for every version step in
        between (a version bump that bypassed the journal). ``None``
        means *treat as full invalidation*.
        """
        epoch = int(epoch)
        current_version = int(current_version)
        if epoch > current_version:
            return None
        if epoch < self._base_version:
            return None
        retained = [
            i for i, v in enumerate(self._versions) if epoch < v <= current_version
        ]
        if len(retained) != current_version - epoch:
            return None
        first_old: dict[int, float] = {}
        last_new: dict[int, float] = {}
        for i in retained:
            eid = self._edge_ids[i]
            if eid not in first_old:
                first_old[eid] = self._old[i]
            last_new[eid] = self._new[i]
        eids = sorted(first_old)
        return CapacityDelta(
            base_version=epoch,
            version=current_version,
            edge_ids=np.asarray(eids, dtype=WIDE_DTYPE),
            old_capacity=np.asarray(
                [first_old[e] for e in eids], dtype=float
            ),
            new_capacity=np.asarray(
                [last_new[e] for e in eids], dtype=float
            ),
        )


def rescale_flow(flow: np.ndarray, delta: CapacityDelta) -> np.ndarray:
    """A previous epoch's flow rescaled to the new capacities.

    Entries on journal-touched edges are multiplied by
    ``new_capacity / old_capacity`` so per-edge congestion ``|f|/c`` is
    preserved across the delta — the warm-start seed stays inside the
    soft-max's well-conditioned region even when an edge was degraded
    by orders of magnitude. Untouched entries pass through unchanged;
    the input is never mutated.
    """
    out = np.array(flow, dtype=float, copy=True)
    if delta.num_edges:
        out[delta.edge_ids] *= delta.new_capacity / delta.old_capacity
    return out

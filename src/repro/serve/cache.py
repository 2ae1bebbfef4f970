"""Version-keyed LRU result cache for the flow server.

A served routing result is a pure function of ``(graph contents,
approximator, solver, ε, budget, demand)``. The graph exposes a
monotone cache-invalidation counter (``Graph._version``, bumped by both
``set_capacity`` write-throughs and structural mutation), so instead of
hashing graph contents the cache pins each stored entry to the *epoch*
it was computed in: the first lookup after a mutation notices the
version moved, drops every old-epoch entry **exactly once**, and counts
one invalidation — old-epoch results can never be served because they
are gone before any same-call lookup runs (see
``tests/test_serve.py``).

Within an epoch the cache is a plain LRU over query keys (solver kind,
ε, budget, and a content digest of the demand vector), so repeated
queries are O(1) hits and single lookups and batched columns share one
namespace — a demand routed inside a batch later hits as a single
query and vice versa, which is sound because every batch column is
served by the same one-shot solve as a single query.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable

import numpy as np

from repro.errors import GraphError

__all__ = ["CacheStats", "ResultCache", "demand_digest"]


def demand_digest(demand: np.ndarray) -> bytes:
    """Content digest of a demand vector (shape-tagged BLAKE2b-128).

    The digest covers the raw float64 bytes, so two demands hash equal
    iff they are bit-identical — the same identity the routing contract
    guarantees, hence a digest hit can serve the cached flow verbatim.
    """
    demand = np.ascontiguousarray(demand, dtype=float)
    h = hashlib.blake2b(digest_size=16)
    h.update(str(demand.shape).encode())
    h.update(demand.tobytes())
    return h.digest()


@dataclass
class CacheStats:
    """Counters exposed by :class:`ResultCache` (monotone per server)."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0
    evictions: int = 0
    size: int = 0


class ResultCache:
    """LRU mapping of query keys to routing results, pinned to a graph
    version epoch.

    Args:
        capacity: Maximum number of stored results; least-recently-used
            entries are evicted beyond it. ``0`` disables storage (every
            lookup misses) while keeping the epoch bookkeeping.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity < 0:
            raise GraphError(f"capacity must be >= 0, got {capacity}")
        self.capacity = int(capacity)
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._epoch: int | None = None
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def sync_epoch(self, version: int) -> bool:
        """Pin the cache to ``version``; drop old-epoch entries.

        Returns True when a mutation was detected (the version moved
        past the pinned epoch). The drop happens on the *first* call
        after the mutation and only then — calling again with the same
        version is a no-op, which is the "invalidates exactly once"
        contract.
        """
        if self._epoch == version:
            return False
        moved = self._epoch is not None
        self._epoch = version
        if moved:
            self._entries.clear()
            self.invalidations += 1
        return moved

    def salvage_epoch(self, version: int) -> "OrderedDict[Hashable, Any]":
        """Like :meth:`sync_epoch`, but hand the dropped old-epoch
        entries back instead of discarding them.

        The incremental refresh policy (``FlowServer(refresh=
        "incremental")``) uses the salvage as warm-start seeds: an
        old-epoch flow for the *same* demand digest is rescaled to the
        new capacities and primes the solver, instead of the query
        paying a cold start. The entries are **removed** from the cache
        either way — a salvaged result is never served verbatim, and
        the invalidate-exactly-once accounting is identical to
        :meth:`sync_epoch` (one invalidation per epoch move).
        """
        if self._epoch == version:
            return OrderedDict()
        moved = self._epoch is not None
        self._epoch = version
        salvaged: "OrderedDict[Hashable, Any]" = OrderedDict()
        if moved:
            salvaged = self._entries
            self._entries = OrderedDict()
            self.invalidations += 1
        return salvaged

    def get(self, key: Hashable) -> Any | None:
        """Return the cached value for ``key`` (refreshing its LRU
        position) or None. Counts a hit or a miss."""
        value = self._entries.get(key)
        if value is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Store ``value`` under ``key``, evicting LRU entries beyond
        capacity."""
        if self.capacity == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1

    def stats(self) -> CacheStats:
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            invalidations=self.invalidations,
            evictions=self.evictions,
            size=len(self._entries),
        )

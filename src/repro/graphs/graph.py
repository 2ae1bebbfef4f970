"""Core graph substrate: an undirected, weighted multigraph, array-native.

The whole library works on a single concrete representation:

* nodes are integers ``0 .. n-1``;
* edges live in growable parallel NumPy buffers (``edge_u``,
  ``edge_v``, ``capacity``) in insertion order, so an edge is referred
  to by its integer *edge id* everywhere (flows are vectors indexed by
  edge id, matching the paper's ``f ∈ R^E``); endpoints and edge ids
  are stored int32 (guarded at this boundary — see
  :data:`~repro.graphs.csr.MAX_INDEX`), halving index bandwidth in
  every kernel gather;
* parallel edges and general positive real capacities are allowed
  (Madry's construction and contractions naturally produce
  multigraphs);
* every edge has a fixed orientation ``u -> v`` (the paper fixes an
  arbitrary orientation to define signs of flow values).

The array substrate contract:

* ``capacities()`` / ``edge_index_arrays()`` return **cached,
  read-only** views of the live buffers — free to call in inner loops
  (the gradient descent calls them every step); ``set_capacity``
  writes through, structural mutation (``add_edge``) invalidates;
* ``csr()`` returns a lazily built, cached
  :class:`~repro.graphs.csr.CSRAdjacency` — ``indptr`` / ``neighbor``
  / ``edge_id`` arrays, rows in edge-insertion order — which is what
  the vectorized kernels in :mod:`repro.graphs.kernels` (BFS,
  components, contraction) and all hot call sites consume;
* ``neighbors()`` still serves ``(neighbor, edge_id)`` Python pairs
  for the remaining pointer-chasing code, materialized once from the
  CSR and cached alongside it.

Bulk constructions (``copy``, ``contract``, ``edge_subgraph``,
``from_edge_arrays``) are whole-array operations with no Python work
per edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import DisconnectedGraphError, GraphError
from repro.graphs import kernels
from repro.graphs.csr import (
    CSRAdjacency,
    INDEX_DTYPE,
    MAX_INDEX,
    WIDE_DTYPE,
    build_csr,
)
from repro.graphs.journal import CapacityDelta, DeltaJournal
from repro.hotpath import hot_kernel

__all__ = ["Edge", "Graph"]

_INITIAL_BUFFER = 16

#: Below this many incidence entries (n + 2m) the cached-adjacency
#: Python traversals beat the whole-array kernels (NumPy's fixed
#: per-call cost exceeds the loop cost on tiny frontiers); above it the
#: frontier-at-a-time kernels win. Both paths are output-identical.
SMALL_GRAPH_LIMIT = 8192


def fifo_bfs(
    adjacency: Sequence[Sequence[tuple[int, int]]],
    source: int,
    dist: list[int],
    parent: list[int] | None = None,
    parent_edge: list[int] | None = None,
) -> list[int]:
    """First-in-first-out BFS from ``source`` over ``(neighbor,
    edge_id)`` adjacency lists: the Python side of every small-graph
    traversal, output-identical to
    :func:`~repro.graphs.kernels.bfs_parents`.

    ``dist`` doubles as the visited mark: entries below 0 are
    unvisited, and the search fills the hop distance of every node it
    reaches. When ``parent`` and ``parent_edge`` are given, it also
    records, per reached node, the node that claimed it and the edge id
    it was claimed over: the first reached neighbour in FIFO order,
    ties broken by adjacency order.

    Returns:
        The reached nodes in visit order, ``source`` first.
    """
    dist[source] = 0
    order = [source]
    for node in order:  # appending while iterating makes ``order`` the queue
        step = dist[node] + 1
        for neighbor, eid in adjacency[node]:
            if dist[neighbor] < 0:
                dist[neighbor] = step
                order.append(neighbor)
                if parent is not None and parent_edge is not None:
                    parent[neighbor] = node
                    parent_edge[neighbor] = eid
    return order


@dataclass(frozen=True)
class Edge:
    """A single undirected edge with a fixed orientation ``u -> v``.

    Attributes:
        id: Integer edge id (index into the graph's edge arrays).
        u: Tail endpoint under the fixed orientation.
        v: Head endpoint under the fixed orientation.
        capacity: Positive capacity (the paper's ``cap(e)``).
    """

    id: int
    u: int
    v: int
    capacity: float

    def other(self, node: int) -> int:
        """Return the endpoint of this edge that is not ``node``."""
        if node == self.u:
            return self.v
        if node == self.v:
            return self.u
        raise GraphError(f"node {node} is not an endpoint of edge {self.id}")


class Graph:
    """Undirected weighted multigraph on nodes ``0 .. n-1``.

    Args:
        num_nodes: Number of nodes.
        edges: Iterable of ``(u, v, capacity)`` triples. Self-loops are
            rejected; parallel edges are kept as distinct edges.

    Raises:
        GraphError: On out-of-range endpoints, self-loops, or
            non-positive capacities.
    """

    def __init__(
        self, num_nodes: int, edges: Iterable[tuple[int, int, float]] = ()
    ) -> None:
        if num_nodes <= 0:
            raise GraphError(f"graph must have at least one node, got {num_nodes}")
        if num_nodes > MAX_INDEX:
            raise GraphError(
                f"graph with {num_nodes} nodes exceeds the int32 index "
                f"substrate (max {MAX_INDEX})"
            )
        self._n = int(num_nodes)
        self._m = 0
        self._eu = np.empty(_INITIAL_BUFFER, dtype=INDEX_DTYPE)
        self._ev = np.empty(_INITIAL_BUFFER, dtype=INDEX_DTYPE)
        self._cap = np.empty(_INITIAL_BUFFER, dtype=float)
        self._version = 0
        self._journal = DeltaJournal()
        self._invalidate()
        triples = list(edges)
        if triples:
            arr = np.asarray(triples, dtype=float)
            self._append_bulk(
                arr[:, 0].astype(WIDE_DTYPE),
                arr[:, 1].astype(WIDE_DTYPE),
                arr[:, 2],
            )

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------
    def _invalidate(self) -> None:
        """Drop every derived view after a structural mutation, and
        advance the version counter that keys every epoch-scoped cache
        built on this graph (the serving layer's result cache, its
        approximator). Structural mutations shift what edge ids mean,
        so the delta journal is re-based: capacity deltas never span a
        structural change."""
        self._version += 1
        self._journal.mark_structural(self._version)
        self._csr_cache: CSRAdjacency | None = None
        self._adj_cache: list[list[tuple[int, int]]] | None = None
        self._cap_view: np.ndarray | None = None
        self._uv_view: tuple[np.ndarray, np.ndarray] | None = None
        self._connected_cache: bool | None = None
        self._excess_plan: tuple[np.ndarray, ...] | None = None

    def _grow(self, extra: int) -> None:
        need = self._m + extra
        if need > MAX_INDEX:
            raise GraphError(
                f"graph with {need} edges exceeds the int32 index "
                f"substrate (max {MAX_INDEX})"
            )
        size = len(self._eu)
        if need <= size:
            return
        while size < need:
            size *= 2
        for name in ("_eu", "_ev", "_cap"):
            buf = getattr(self, name)
            grown = np.empty(size, dtype=buf.dtype)
            grown[: self._m] = buf[: self._m]
            setattr(self, name, grown)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_edge(self, u: int, v: int, capacity: float) -> int:
        """Add an edge ``u -> v`` and return its edge id."""
        u = int(u)
        v = int(v)
        if not (0 <= u < self._n and 0 <= v < self._n):
            raise GraphError(
                f"edge ({u}, {v}) has an endpoint outside 0..{self._n - 1}"
            )
        if u == v:
            raise GraphError(f"self-loop at node {u} is not allowed")
        cap = float(capacity)
        if not cap > 0 or not np.isfinite(cap):
            raise GraphError(f"edge ({u}, {v}) has non-positive capacity {capacity}")
        self._grow(1)
        eid = self._m
        self._eu[eid] = u
        self._ev[eid] = v
        self._cap[eid] = cap
        self._m = eid + 1
        self._invalidate()
        return eid

    def _append_bulk(
        self, u: np.ndarray, v: np.ndarray, cap: np.ndarray
    ) -> None:
        """Append validated edge arrays in one shot (vectorized checks)."""
        cap = np.asarray(cap, dtype=float)
        bad = (u < 0) | (u >= self._n) | (v < 0) | (v >= self._n)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise GraphError(
                f"edge ({u[i]}, {v[i]}) has an endpoint outside 0..{self._n - 1}"
            )
        loops = u == v
        if np.any(loops):
            raise GraphError(
                f"self-loop at node {u[int(np.argmax(loops))]} is not allowed"
            )
        bad_cap = ~(cap > 0) | ~np.isfinite(cap)
        if np.any(bad_cap):
            i = int(np.argmax(bad_cap))
            raise GraphError(
                f"edge ({u[i]}, {v[i]}) has non-positive capacity {cap[i]}"
            )
        self._adopt_arrays(u, v, cap)

    def _adopt_arrays(
        self, u: np.ndarray, v: np.ndarray, cap: np.ndarray
    ) -> None:
        """Append already-valid edge arrays (trusted internal fast path)."""
        k = len(u)
        self._grow(k)
        lo, hi = self._m, self._m + k
        self._eu[lo:hi] = u
        self._ev[lo:hi] = v
        self._cap[lo:hi] = cap
        self._m = hi
        self._invalidate()

    @classmethod
    def from_edge_arrays(
        cls,
        num_nodes: int,
        edge_u: Sequence[int],
        edge_v: Sequence[int],
        capacity: Sequence[float],
    ) -> "Graph":
        """Build a graph from parallel edge arrays."""
        if not (len(edge_u) == len(edge_v) == len(capacity)):
            raise GraphError("edge arrays must have equal length")
        graph = cls(num_nodes)
        if len(edge_u):
            graph._append_bulk(
                np.asarray(edge_u, dtype=WIDE_DTYPE),
                np.asarray(edge_v, dtype=WIDE_DTYPE),
                np.asarray(capacity, dtype=float),
            )
        return graph

    @classmethod
    def _from_trusted_arrays(
        cls, num_nodes: int, u: np.ndarray, v: np.ndarray, cap: np.ndarray
    ) -> "Graph":
        """Build from arrays known valid (slices of an existing graph)."""
        graph = cls(num_nodes)
        if len(u):
            graph._adopt_arrays(u, v, cap)
        return graph

    def copy(self) -> "Graph":
        """Return a deep copy (edge ids are preserved).

        The copy shares this graph's cached CSR and connectivity
        verdict when they exist: both depend only on the (identical)
        structure, the CSR arrays are immutable, and each graph
        invalidates only its own cache pointers on mutation.
        """
        m = self._m
        twin = Graph._from_trusted_arrays(
            self._n,
            self._eu[:m].copy(),
            self._ev[:m].copy(),
            self._cap[:m].copy(),
        )
        twin._csr_cache = self._csr_cache
        twin._connected_cache = self._connected_cache
        return twin

    def __getstate__(self) -> dict[str, object]:
        """Pickle and deep-copy state without the cached views: a copied
        view is a separate array that the copy's writes never reach, so
        the copy rebuilds its views from its own buffers."""
        state = self.__dict__.copy()
        state["_cap_view"] = None
        state["_uv_view"] = None
        return state

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of edges ``m`` (parallel edges counted separately)."""
        return self._m

    def nodes(self) -> range:
        """Iterate over node ids."""
        return range(self._n)

    def edge(self, eid: int) -> Edge:
        """Return the :class:`Edge` with the given id."""
        self._check_edge(eid)
        return Edge(
            eid, int(self._eu[eid]), int(self._ev[eid]), float(self._cap[eid])
        )

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges in id order."""
        m = self._m
        eu = self._eu[:m].tolist()
        ev = self._ev[:m].tolist()
        cap = self._cap[:m].tolist()
        for eid in range(m):
            yield Edge(eid, eu[eid], ev[eid], cap[eid])

    def endpoints(self, eid: int) -> tuple[int, int]:
        """Return ``(u, v)`` for edge ``eid`` under the fixed orientation."""
        self._check_edge(eid)
        return int(self._eu[eid]), int(self._ev[eid])

    def capacity(self, eid: int) -> float:
        """Return the capacity of edge ``eid``."""
        self._check_edge(eid)
        return float(self._cap[eid])

    def set_capacity(self, eid: int, capacity: float) -> None:
        """Overwrite the capacity of edge ``eid`` (cached capacity views
        see the new value; no cache rebuild needed).

        The write advances ``_version`` and is journaled, so epoch-keyed
        caches notice it and ``deltas_since`` can report it.
        """
        cap = float(capacity)
        if not cap > 0 or not np.isfinite(cap):
            raise GraphError(f"capacity must be positive, got {capacity}")
        self._check_edge(eid)
        old = float(self._cap[eid])
        self._cap[eid] = cap
        self._record_capacity_delta(eid, old, cap)

    def _record_capacity_delta(
        self, eid: int, old: float, new: float
    ) -> None:
        """Advance the epoch for one capacity write and journal it.

        The single sanctioned version bump for capacity-only mutations:
        the bump and the journal record are inseparable, so
        ``deltas_since`` can account for every version step in its
        window (repolint's epoch-discipline rule requires capacity
        writes to route through here or through ``_invalidate``).
        """
        self._version += 1
        self._journal.record(self._version, eid, old, new)

    def deltas_since(self, epoch: int) -> CapacityDelta | None:
        """The coalesced capacity-only delta from ``epoch`` to now.

        ``None`` means the journal cannot vouch for the interval — a
        structural mutation intervened, the bounded journal overflowed,
        or ``epoch`` is out of range — and the caller must fall back to
        full invalidation. An equal-epoch query returns an empty delta.
        """
        return self._journal.deltas_since(epoch, self._version)

    @property
    def journal_size(self) -> int:
        """Retained journal records (== ``_version`` delta since the
        journal's base when no overflow occurred)."""
        return self._journal.size

    @property
    def journal_overflowed(self) -> bool:
        """Whether the bounded journal has dropped records since the
        last structural mutation."""
        return self._journal.overflowed

    def csr(self) -> CSRAdjacency:
        """Return the cached CSR adjacency (built lazily, invalidated on
        structural mutation). Rows are in edge-insertion order."""
        if self._csr_cache is None:
            self._csr_cache = build_csr(
                self._n, self._eu[: self._m], self._ev[: self._m]
            )
        return self._csr_cache

    def _check_node(self, node: int) -> None:
        """Raise :class:`GraphError` unless ``node`` is in ``0..n-1``
        (a negative id would otherwise index from the end)."""
        if not 0 <= node < self._n:
            raise GraphError(f"node {node} out of range 0..{self._n - 1}")

    def _check_edge(self, eid: int) -> None:
        """Raise :class:`GraphError` unless ``eid`` is in ``0..m-1`` (the
        buffers over-allocate, so neither a negative id nor one past m
        may reach them)."""
        if not 0 <= eid < self._m:
            raise GraphError(f"edge id {eid} out of range 0..{self._m - 1}")

    def neighbors(self, node: int) -> list[tuple[int, int]]:
        """Return the adjacency list of ``node`` as ``(neighbor, edge_id)``
        pairs, in edge-insertion order. Parallel edges appear once per
        edge."""
        self._check_node(node)
        return self.adjacency_lists()[node]

    def degree(self, node: int) -> int:
        """Return the degree of ``node`` (parallel edges all counted)."""
        self._check_node(node)
        csr = self.csr()
        return int(csr.indptr[node + 1] - csr.indptr[node])

    def capacities(self) -> np.ndarray:
        """Return the capacity vector as a float array of length m.

        The array is a cached **read-only view** of the live buffer:
        ``set_capacity`` writes through to it, ``add_edge`` invalidates
        it. Callers needing a private mutable copy must ``.copy()``.
        """
        if self._cap_view is None:
            view = self._cap[: self._m].view()
            view.setflags(write=False)
            self._cap_view = view
        return self._cap_view

    def edge_index_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(tails, heads)`` integer arrays of length m (cached
        read-only views, invalidated on structural mutation)."""
        if self._uv_view is None:
            tails = self._eu[: self._m].view()
            heads = self._ev[: self._m].view()
            tails.setflags(write=False)
            heads.setflags(write=False)
            self._uv_view = (tails, heads)
        return self._uv_view

    def total_capacity(self) -> float:
        """Return the sum of all edge capacities."""
        return float(self._cap[: self._m].sum())

    # ------------------------------------------------------------------
    # Flow-operator views (the paper's B and C matrices, matrix-free)
    # ------------------------------------------------------------------
    def _scatter_plan(self) -> tuple[np.ndarray, ...]:
        """Precomputed (and cached) incidence-scatter plan for ``excess``:
        the fixed ``concat(heads, tails)`` bincount targets plus a
        signed-flow scratch buffer."""
        if self._excess_plan is None:
            tails, heads = self.edge_index_arrays()
            idx = np.concatenate(
                (heads.astype(WIDE_DTYPE), tails.astype(WIDE_DTYPE))
            )
            self._excess_plan = (idx, np.empty(2 * self._m))
        return self._excess_plan

    @hot_kernel
    def excess(self, flow: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Apply the node-edge incidence operator: return ``B f``.

        ``(B f)_v`` is the net flow *into* node ``v``: an edge
        ``u -> v`` carrying positive flow contributes ``+f_e`` at ``v``
        and ``-f_e`` at ``u`` (paper Section 2). Implemented as one
        ``np.bincount`` over the cached signed incidence targets —
        bincount accumulates strictly in input order, so the result is
        bit-identical to the legacy ``np.add.at``/``np.subtract.at``
        pair while avoiding ``ufunc.at``'s per-element dispatch. Safe
        to call every gradient step.
        """
        flow = np.asarray(flow, dtype=float)
        if flow.shape != (self._m,):
            raise GraphError(
                f"flow vector has shape {flow.shape}, expected ({self._m},)"
            )
        if self._m == 0:
            if out is None:
                return np.zeros(self._n)  # alloc-ok (empty-graph edge case)
            out[:] = 0.0
            return out
        idx, signed = self._scatter_plan()
        m = self._m
        signed[:m] = flow
        np.negative(flow, out=signed[m:])
        counts = np.bincount(idx, weights=signed, minlength=self._n)
        if out is None:
            return counts
        out[:] = counts
        return out

    def excess_batch(
        self, flow_plane: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Apply the incidence operator to ``Q`` stacked flows: row
        ``q`` is computed by :meth:`excess` on ``flow_plane[q]``."""
        flow_plane = np.asarray(flow_plane, dtype=float)
        if flow_plane.ndim != 2 or flow_plane.shape[1] != self._m:
            raise GraphError(
                f"flow plane has shape {flow_plane.shape}, "
                f"expected (Q, {self._m})"
            )
        if out is None:
            out = np.empty((flow_plane.shape[0], self._n))
        for q in range(flow_plane.shape[0]):
            self.excess(flow_plane[q], out=out[q])
        return out

    def congestion(self, flow: np.ndarray) -> np.ndarray:
        """Return per-edge congestion ``|C^{-1} f| = |f_e| / cap(e)``."""
        flow = np.asarray(flow, dtype=float)
        return np.abs(flow) / self.capacities()

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------
    def is_small(self) -> bool:
        """Whether the adaptive traversals should take the Python path
        (part of the substrate contract: lsst/trees dispatch on this)."""
        return self._n + 2 * self._m < SMALL_GRAPH_LIMIT

    def adjacency_lists(self) -> list[list[tuple[int, int]]]:
        """All adjacency lists (``(neighbor, edge_id)`` pairs per node),
        materialized once from the CSR and cached until the next
        structural mutation — the Python-loop counterpart of csr()."""
        if self._adj_cache is None:
            csr = self.csr()
            ptr = csr.indptr.tolist()
            nbr = csr.neighbor.tolist()
            eid = csr.edge_id.tolist()
            self._adj_cache = [
                list(zip(nbr[ptr[i] : ptr[i + 1]], eid[ptr[i] : ptr[i + 1]]))
                for i in range(self._n)
            ]
        return self._adj_cache

    def connected_components(self) -> list[list[int]]:
        """Return connected components as lists of nodes."""
        if not self.is_small():
            return kernels.connected_components(self.csr())
        adj = self.adjacency_lists()
        # One shared mark: each search skips what earlier ones reached.
        dist = [-1] * self._n
        return [
            fifo_bfs(adj, start, dist)
            for start in range(self._n)
            if dist[start] < 0
        ]

    def is_connected(self) -> bool:
        """Return True iff the graph is connected (single BFS; memoized
        until the next structural mutation)."""
        if self._connected_cache is not None:
            return self._connected_cache
        if not self.is_small():
            connected = bool(kernels.bfs_levels(self.csr(), 0).min() >= 0)
        else:
            reached = fifo_bfs(self.adjacency_lists(), 0, [-1] * self._n)
            connected = len(reached) == self._n
        self._connected_cache = connected
        return connected

    def require_connected(self) -> None:
        """Raise :class:`DisconnectedGraphError` unless connected."""
        if not self.is_connected():
            raise DisconnectedGraphError(
                "operation requires a connected graph but the graph has "
                f"{len(self.connected_components())} components"
            )

    def bfs_distances(self, source: int) -> list[int]:
        """Return hop distances from ``source`` (-1 for unreachable)."""
        self._check_node(source)
        if not self.is_small():
            return kernels.bfs_levels(self.csr(), source).tolist()
        dist = [-1] * self._n
        fifo_bfs(self.adjacency_lists(), source, dist)
        return dist

    def diameter(self) -> int:
        """Return the exact hop diameter.

        Quadratic work (all-pairs lockstep BFS on large graphs, one
        BFS per source on small ones); intended for the test/benchmark
        graph sizes used in this library.
        """
        self.require_connected()
        if not self.is_small():
            # Lockstep BFS over source batches: O(batch · n) working
            # memory, never the full n×n distance matrix.
            csr = self.csr()
            batch = max(1, (1 << 24) // self._n)
            best = 0
            for start in range(0, self._n, batch):
                sources = np.arange(
                    start, min(start + batch, self._n), dtype=WIDE_DTYPE
                )
                best = max(
                    best,
                    int(kernels.multi_source_hop_distances(csr, sources).max()),
                )
            return best
        best = 0
        for source in range(self._n):
            best = max(best, max(self.bfs_distances(source)))
        return best

    def eccentricity(self, source: int) -> int:
        """Return the maximum hop distance from ``source``."""
        dist = self.bfs_distances(source)
        if min(dist) < 0:
            raise DisconnectedGraphError("eccentricity undefined: graph disconnected")
        return max(dist)

    # ------------------------------------------------------------------
    # Contraction (used by AKPW and the j-tree hierarchy)
    # ------------------------------------------------------------------
    def contract(
        self, labels: Sequence[int], keep_parallel: bool = True
    ) -> tuple["Graph", list[int]]:
        """Contract nodes by label, returning the quotient multigraph.

        Args:
            labels: ``labels[v]`` is the cluster label of node ``v``.
                Labels may be arbitrary integers; they are compacted to
                ``0 .. k-1`` in label-of-first-occurrence order.
            keep_parallel: If True, every original inter-cluster edge
                becomes its own edge of the quotient (a multigraph). If
                False, parallel edges are merged and capacities summed.

        Returns:
            ``(quotient, edge_origin)`` where ``edge_origin[j]`` is the
            original edge id that quotient edge ``j`` came from (for the
            merged case, a representative original id).

        The quotient comes with its derived caches pre-seeded: the
        contraction pass emits the child CSR directly
        (:func:`~repro.graphs.csr.build_csr`), and the quotient inherits
        a known ``True`` connectivity verdict (contracting a connected
        graph cannot disconnect it). Every seeded cache is dropped by
        the next structural mutation, exactly like a lazily built one.
        """
        if len(labels) != self._n:
            raise GraphError("labels must have one entry per node")
        node_map, k = kernels.compact_labels(labels)
        new_u, new_v, new_cap, origin = kernels.contract_edges(
            node_map,
            k,
            self._eu[: self._m],
            self._ev[: self._m],
            self._cap[: self._m],
            keep_parallel,
        )
        quotient = Graph._from_trusted_arrays(k, new_u, new_v, new_cap)
        quotient._csr_cache = build_csr(k, new_u, new_v)
        self._seed_quotient_connectivity(quotient)
        return quotient, origin.tolist()

    def _seed_quotient_connectivity(self, quotient: "Graph") -> None:
        """Propagate a known-connected verdict to a contraction child
        (only ``True`` transfers: contracting cannot disconnect, but it
        can *connect* a disconnected graph by merging components)."""
        if self._connected_cache is True:
            quotient._connected_cache = True

    # ------------------------------------------------------------------
    # Subgraphs
    # ------------------------------------------------------------------
    def edge_subgraph(self, edge_ids: Iterable[int]) -> "Graph":
        """Return a graph on the same node set containing only the given
        edges (edge ids are *not* preserved)."""
        ids = np.asarray(
            edge_ids if isinstance(edge_ids, np.ndarray) else list(edge_ids),
            dtype=WIDE_DTYPE,
        )
        m = self._m
        return Graph._from_trusted_arrays(
            self._n, self._eu[:m][ids], self._ev[:m][ids], self._cap[:m][ids]
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(n={self._n}, m={self.num_edges})"

"""Compressed-sparse-row (CSR) adjacency for the array-native substrate.

A :class:`CSRAdjacency` is the read-only, cache-friendly view of a
multigraph's incidence structure that every vectorized kernel in
:mod:`repro.graphs.kernels` consumes.  It packs, for each node, the
incident ``(neighbor, edge_id)`` pairs into three flat arrays:

* ``indptr`` — length ``n + 1``, int64; node ``v``'s incidence slice
  is ``indptr[v] : indptr[v + 1]``;
* ``neighbor`` — length ``2m``, :data:`INDEX_DTYPE` (int32); the other
  endpoint of each incidence;
* ``edge_id`` — length ``2m``, :data:`INDEX_DTYPE` (int32); the
  undirected edge id of each incidence.

Node and edge ids are stored as int32 throughout the substrate: ids
stay below :data:`MAX_INDEX` (2^31 − 1, enforced at the ``Graph``
boundary), and halving the index bandwidth speeds every gather in the
hot kernels. ``indptr`` stays int64 because it indexes the ``2m``-long
incidence arrays.

The contract, relied on by the deterministic BFS kernels:

* every undirected edge ``{u, v}`` contributes one incidence at ``u``
  and one at ``v`` (parallel edges appear once each, per endpoint);
* within a node's slice, incidences are sorted by **edge id** — which
  equals edge-insertion order, so iterating a CSR row reproduces the
  order of the legacy per-node adjacency lists exactly;
* all three arrays are marked read-only, so the owning
  :class:`~repro.graphs.graph.Graph` can hand out its cached instance
  without defensive copies.

Instances are built with :func:`build_csr` (one single-key stable
argsort over eid-interleaved incidences + one ``bincount``; no
Python-level per-edge work) and cached by ``Graph`` until the next
structural mutation.  :meth:`Graph.contract` builds the quotient's CSR
in the same pass as the quotient edge arrays and seeds the child's
cache directly, so chained contractions (AKPW, the j-tree hierarchy)
never re-derive adjacency lazily.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dtypes import INDEX_DTYPE, MAX_INDEX, WIDE_DTYPE

# Historically defined here; re-exported so the whole tree keeps
# importing the dtype lanes alongside the CSR types. The definitions
# live in the dependency-leaf :mod:`repro.dtypes`.
__all__ = ["CSRAdjacency", "build_csr", "INDEX_DTYPE", "MAX_INDEX", "WIDE_DTYPE"]


@dataclass(frozen=True)
class CSRAdjacency:
    """Read-only CSR incidence structure of an undirected multigraph.

    Attributes:
        indptr: ``(n + 1,)`` int64 row pointers.
        neighbor: ``(2m,)`` int32 opposite endpoints.
        edge_id: ``(2m,)`` int32 undirected edge ids.
    """

    indptr: np.ndarray
    neighbor: np.ndarray
    edge_id: np.ndarray

    @property
    def num_nodes(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``m`` (half the incidence count)."""
        return len(self.neighbor) // 2

    def degrees(self) -> np.ndarray:
        """Per-node degree (parallel edges all counted)."""
        return np.diff(self.indptr)

    def row(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(neighbors, edge_ids)`` views for one node."""
        lo, hi = self.indptr[node], self.indptr[node + 1]
        return self.neighbor[lo:hi], self.edge_id[lo:hi]


def build_csr(
    num_nodes: int,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
) -> CSRAdjacency:
    """Build a :class:`CSRAdjacency` from parallel edge-endpoint arrays.

    Args:
        num_nodes: Number of nodes ``n``.
        edge_u: ``(m,)`` integer tails.
        edge_v: ``(m,)`` integer heads.

    Returns:
        The CSR adjacency, rows sorted by edge id (= insertion order).
    """
    edge_u = np.asarray(edge_u, dtype=INDEX_DTYPE)
    edge_v = np.asarray(edge_v, dtype=INDEX_DTYPE)
    m = len(edge_u)
    # Interleave incidences in edge-id order ([u0, v0, u1, v1, ...]):
    # a single-key *stable* argsort on the endpoint then yields rows
    # sorted by (endpoint, edge id) — the same order the previous
    # two-key lexsort produced, at roughly half the sort cost (and a
    # node never carries two incidences of one edge: no self-loops).
    endpoint = np.empty(2 * m, dtype=INDEX_DTYPE)
    endpoint[0::2] = edge_u
    endpoint[1::2] = edge_v
    other = np.empty(2 * m, dtype=INDEX_DTYPE)
    other[0::2] = edge_v
    other[1::2] = edge_u
    incidence_eid = np.repeat(np.arange(m, dtype=INDEX_DTYPE), 2)
    counts = np.bincount(endpoint, minlength=num_nodes)
    indptr = np.zeros(num_nodes + 1, dtype=WIDE_DTYPE)
    np.cumsum(counts, out=indptr[1:])
    order = np.argsort(endpoint, kind="stable")
    neighbor = other[order]
    edge_id = incidence_eid[order]
    for arr in (indptr, neighbor, edge_id):
        arr.setflags(write=False)
    return CSRAdjacency(indptr=indptr, neighbor=neighbor, edge_id=edge_id)

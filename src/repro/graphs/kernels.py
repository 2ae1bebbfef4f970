"""Vectorized graph kernels over :class:`~repro.graphs.csr.CSRAdjacency`.

These are the shared frontier-at-a-time / scatter-gather primitives the
whole library runs on: BFS (levels and deterministic parent trees with
the edge each node was claimed over, which rooted spanning trees keep as
their ``parent_edge``), connected components, label compaction and
contraction, and first-edge-per-node-pair indexing (the CONGEST cluster
simulation's lookup of cluster-tree edges).  Every kernel is
NumPy-whole-array — no Python work proportional to ``m`` — and every
kernel that has a pure-Python equivalent
(:func:`~repro.graphs.graph.fifo_bfs`) reproduces its output *exactly*,
including tie-breaking and discovery order (the golden tests in
``tests/test_csr.py`` pin this equivalence on random multigraphs).

The determinism contract matters because several algorithms (SplitGraph
ball growing, BFS tree construction, component-order-dependent
generators) derive randomness-adjacent choices from traversal order:
a kernel that visited nodes in a different but equally valid order
would silently change every seeded experiment downstream.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSRAdjacency, INDEX_DTYPE, WIDE_DTYPE

__all__ = [
    "ragged_rows",
    "bfs_levels",
    "bfs_parents",
    "multi_source_hop_distances",
    "connected_components",
    "compact_labels",
    "contract_edges",
    "pair_first_edge_index",
    "lookup_pairs",
    "group_by_key",
]


def ragged_rows(
    csr: CSRAdjacency, nodes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate the CSR rows of ``nodes``, preserving row order.

    Returns:
        ``(origin, neighbors, edge_ids)`` — ``origin[i]`` is the node
        whose row produced position ``i``; rows appear in the order of
        ``nodes`` and, within a row, in edge-insertion order.
    """
    indptr = csr.indptr
    starts = indptr[nodes]
    counts = indptr[nodes + 1] - starts
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=WIDE_DTYPE)
        return empty, empty.copy(), empty.copy()
    # Positions: for each row, starts[r] .. starts[r] + counts[r] - 1.
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    idx = np.arange(total, dtype=WIDE_DTYPE) - offsets + np.repeat(starts, counts)
    origin = np.repeat(nodes, counts)
    return origin, csr.neighbor[idx], csr.edge_id[idx]


def bfs_levels(csr: CSRAdjacency, sources: int | np.ndarray) -> np.ndarray:
    """Multi-source hop distances by frontier-at-a-time BFS.

    Args:
        csr: Adjacency.
        sources: One source or an array of sources (all at distance 0).

    Returns:
        ``(n,)`` int64 distances, ``-1`` for unreachable nodes.
    """
    dist = np.full(csr.num_nodes, -1, dtype=WIDE_DTYPE)
    frontier = np.atleast_1d(np.asarray(sources, dtype=WIDE_DTYPE))
    dist[frontier] = 0
    level = 0
    while frontier.size:
        _, nbrs, _ = ragged_rows(csr, frontier)
        nbrs = nbrs[dist[nbrs] < 0]
        if nbrs.size == 0:
            break
        frontier = np.unique(nbrs)
        level += 1
        dist[frontier] = level
    return dist


def bfs_parents(
    csr: CSRAdjacency, root: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic BFS tree from ``root``.

    Reproduces the legacy FIFO-queue BFS exactly: a node is claimed by
    the earliest-discovered frontier node adjacent to it, ties broken
    by adjacency (edge-insertion) order, and the next frontier keeps
    claim order.

    Returns:
        ``(dist, parent, parent_edge)`` int64 arrays; unreachable nodes
        have ``dist = -1``, ``parent = -2``, ``parent_edge = -1``; the
        root has ``parent = -1``, ``parent_edge = -1``.
    """
    n = csr.num_nodes
    dist = np.full(n, -1, dtype=WIDE_DTYPE)
    parent = np.full(n, -2, dtype=WIDE_DTYPE)
    parent_edge = np.full(n, -1, dtype=WIDE_DTYPE)
    dist[root] = 0
    parent[root] = -1
    frontier = np.array([root], dtype=WIDE_DTYPE)
    level = 0
    while frontier.size:
        origin, nbrs, eids = ragged_rows(csr, frontier)
        keep = dist[nbrs] < 0
        origin, nbrs, eids = origin[keep], nbrs[keep], eids[keep]
        if nbrs.size == 0:
            break
        # First occurrence in gather order = legacy claim order.
        _, first = np.unique(nbrs, return_index=True)
        first.sort()
        frontier = nbrs[first]
        level += 1
        dist[frontier] = level
        parent[frontier] = origin[first]
        parent_edge[frontier] = eids[first]
    return dist, parent, parent_edge


def multi_source_hop_distances(
    csr: CSRAdjacency, sources: np.ndarray
) -> np.ndarray:
    """Hop distances from each of ``sources``, advanced in lockstep.

    Each source's BFS is independent of every other source; the
    lockstep batching exists purely for vectorization.

    Args:
        csr: Adjacency.
        sources: Source nodes (one BFS row each; duplicates allowed).

    Returns:
        ``(len(sources), n)`` int64 matrix, ``-1`` where unreachable.
        O(len(sources)·m) work, a constant number of NumPy passes per
        BFS level, O(len(sources)·n) memory — batch the sources to
        bound memory on large graphs.
    """
    indptr = csr.indptr
    n = csr.num_nodes
    sources = np.asarray(sources, dtype=WIDE_DTYPE)
    k = len(sources)
    dist = np.full((k, n), -1, dtype=WIDE_DTYPE)
    dist[np.arange(k), sources] = 0
    flat = dist.ravel()
    src = np.arange(k, dtype=WIDE_DTYPE)
    nodes = sources.copy()
    level = 0
    while nodes.size:
        counts = indptr[nodes + 1] - indptr[nodes]
        _, nbrs, _ = ragged_rows(csr, nodes)
        keys = np.repeat(src, counts) * n + nbrs
        keys = np.unique(keys[flat[keys] < 0])
        if keys.size == 0:
            break
        level += 1
        flat[keys] = level
        src, nodes = np.divmod(keys, n)
    return dist


def connected_components(csr: CSRAdjacency) -> list[list[int]]:
    """Connected components as node lists.

    Matches the legacy output exactly: components ordered by smallest
    start node, nodes within a component in BFS discovery order.
    """
    n = csr.num_nodes
    seen = np.zeros(n, dtype=bool)
    components: list[list[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        seen[start] = True
        component = [start]
        frontier = np.array([start], dtype=WIDE_DTYPE)
        while frontier.size:
            _, nbrs, _ = ragged_rows(csr, frontier)
            nbrs = nbrs[~seen[nbrs]]
            if nbrs.size == 0:
                break
            _, first = np.unique(nbrs, return_index=True)
            first.sort()
            frontier = nbrs[first]
            seen[frontier] = True
            component.extend(frontier.tolist())
        components.append(component)
    return components


def compact_labels(labels: np.ndarray) -> tuple[np.ndarray, int]:
    """Compact arbitrary integer labels to ``0..k-1`` by first occurrence.

    Returns:
        ``(node_map, k)`` — ``node_map[v]`` is the compacted label of
        position ``v``; labels are numbered in order of first
        appearance, matching the legacy dict-based compaction.
    """
    labels = np.asarray(labels, dtype=WIDE_DTYPE)
    _, first_idx, inverse = np.unique(
        labels, return_index=True, return_inverse=True
    )
    k = len(first_idx)
    # Rank the sorted-unique labels by where they first appeared.
    rank = np.empty(k, dtype=INDEX_DTYPE)
    rank[np.argsort(first_idx, kind="stable")] = np.arange(k, dtype=INDEX_DTYPE)
    return rank[inverse], k


def contract_edges(
    node_map: np.ndarray,
    num_clusters: int,
    edge_u: np.ndarray,
    edge_v: np.ndarray,
    capacity: np.ndarray,
    keep_parallel: bool,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Quotient-edge arrays for a contraction by ``node_map``.

    Args:
        node_map: Compacted cluster label per node (``0..k-1``).
        num_clusters: ``k``.
        edge_u / edge_v / capacity: The edge arrays being contracted.
        keep_parallel: Keep every inter-cluster edge (multigraph) or
            merge parallel quotient edges, summing capacities.

    Returns:
        ``(new_u, new_v, new_cap, edge_origin)``; quotient edges appear
        in original-edge-id order (``keep_parallel``) or in order of
        first occurrence of their endpoint pair (merged), matching the
        legacy loop. ``edge_origin[j]`` is the (representative)
        original edge id of quotient edge ``j``.
    """
    cu = node_map[np.asarray(edge_u, dtype=INDEX_DTYPE)]
    cv = node_map[np.asarray(edge_v, dtype=INDEX_DTYPE)]
    cross = cu != cv
    origin = np.flatnonzero(cross).astype(INDEX_DTYPE)
    cu, cv = cu[cross], cv[cross]
    caps = np.asarray(capacity, dtype=float)[cross]
    if keep_parallel:
        return cu, cv, caps, origin
    lo = np.minimum(cu, cv)
    hi = np.maximum(cu, cv)
    # np.int64 scalar forces a wide key: int32 * int32 would wrap for
    # num_clusters above ~46k under NEP 50 value-based promotion.
    key = lo * np.int64(num_clusters) + hi
    _, first_idx, inverse = np.unique(key, return_index=True, return_inverse=True)
    k = len(first_idx)
    rank = np.empty(k, dtype=INDEX_DTYPE)
    first_order = np.argsort(first_idx, kind="stable")
    rank[first_order] = np.arange(k, dtype=INDEX_DTYPE)
    merged_cap = np.bincount(rank[inverse], weights=caps, minlength=k)
    rep = first_idx[first_order]
    return lo[rep], hi[rep], merged_cap, origin[rep]


def pair_first_edge_index(
    edge_u: np.ndarray, edge_v: np.ndarray, num_nodes: int
) -> tuple[np.ndarray, np.ndarray]:
    """Index the lowest edge id joining each unordered node pair.

    Returns:
        ``(keys, first_eid)`` — sorted unordered-pair keys
        (``min·n + max``) and, per key, the smallest edge id realizing
        that pair. Query with :func:`lookup_pairs`.
    """
    lo = np.minimum(edge_u, edge_v)
    hi = np.maximum(edge_u, edge_v)
    key = lo * np.int64(num_nodes) + hi
    keys, first_idx = np.unique(key, return_index=True)
    return keys, first_idx.astype(WIDE_DTYPE)


def lookup_pairs(
    keys: np.ndarray,
    first_eid: np.ndarray,
    num_nodes: int,
    us: np.ndarray,
    vs: np.ndarray,
) -> np.ndarray:
    """Look up :func:`pair_first_edge_index` for pair arrays.

    Returns:
        Per queried pair, the smallest edge id joining it, or ``-1``
        when no edge does.
    """
    us = np.asarray(us, dtype=WIDE_DTYPE)
    vs = np.asarray(vs, dtype=WIDE_DTYPE)
    query = np.minimum(us, vs) * np.int64(num_nodes) + np.maximum(us, vs)
    pos = np.searchsorted(keys, query)
    pos_clipped = np.minimum(pos, len(keys) - 1) if len(keys) else pos
    out = np.full(len(query), -1, dtype=WIDE_DTYPE)
    if len(keys):
        hit = keys[pos_clipped] == query
        out[hit] = first_eid[pos_clipped[hit]]
    return out


def group_by_key(
    keys: np.ndarray, values: np.ndarray, num_groups: int
) -> list[np.ndarray]:
    """Group ``values`` by integer ``keys`` in ``0..num_groups-1``.

    Within a group, values keep their input order (stable). Returns one
    array per group (possibly empty).
    """
    keys = np.asarray(keys, dtype=WIDE_DTYPE)
    order = np.argsort(keys, kind="stable")
    sorted_vals = np.asarray(values)[order]
    counts = np.bincount(keys, minlength=num_groups)
    bounds = np.cumsum(counts[:-1]) if num_groups > 1 else []
    return np.split(sorted_vals, bounds)

"""Rooted spanning trees and tree routing, array-native.

Trees are the load-bearing structure of the whole paper: the congestion
approximator is a set of rooted trees, `R·b` is a subtree aggregation,
`Rᵀ·y` is a root-to-leaf prefix sum of edge prices, and the final
residual demand of Algorithm 1 is routed on a maximum-weight spanning
tree. This module implements all of those tree operations centrally
(each corresponds to the distributed convergecast/downcast the paper
performs on the virtual trees, cf. Section 9 and Corollary 9.3).

A :class:`RootedTree` is a parent-pointer array over nodes ``0..n-1``
with per-edge capacities on the (child -> parent) edges. A tree built
from graph edges (:func:`bfs_tree`, :func:`spanning_tree_from_edges`
and the spanning-tree constructors on top of it) also records which
graph edge each (child -> parent) edge is, so nothing downstream looks
that edge up again. On top of the parent array it caches, built once
per tree:

* a DFS **Euler tour** (``order`` / ``tin`` / ``tout``), making every
  subtree aggregation two cumulative-sum lookups and every
  root-to-path sum one range-update pass — the same index arithmetic
  the congestion approximator's stacked operator fuses across trees;
* a lazily built **binary-lifting table**, making batched LCA (and so
  stretch and induced-cut computations over all graph edges at once)
  a vectorized O(log depth) scan instead of a per-edge Python walk.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import TreeError
from repro.graphs import kernels
from repro.graphs.csr import WIDE_DTYPE, build_csr
from repro.graphs.graph import SMALL_GRAPH_LIMIT, Graph, fifo_bfs

__all__ = [
    "RootedTree",
    "spanning_tree_from_edges",
    "bfs_tree",
    "tree_route_demand",
    "induced_cut_capacities",
]


class RootedTree:
    """A rooted tree on nodes ``0 .. n-1`` stored as a parent array.

    Attributes:
        parent: ``parent[v]`` is the parent of ``v``; ``parent[root]``
            is ``-1``.
        root: The root node.
        capacity: ``capacity[v]`` is the capacity of the edge
            ``(v, parent[v])``; ``capacity[root]`` is ignored (0).
        parent_edge: ``parent_edge[v]`` is the id of the graph edge
            joining ``v`` and ``parent[v]`` (``WIDE_DTYPE``), ``-1`` at
            the root. Set by the builders that root a tree on graph
            edges; ``None`` for a tree built from a bare parent array
            (the virtual trees, ``congest.build_bfs_tree``).

    Construction validates acyclicity and computes depths in one
    amortized pass; the Euler intervals, child lists, and the
    binary-lifting table are built lazily on first use and cached
    (trees that are only constructed — the common case inside the
    j-tree recursion — never pay for them).
    """

    def __init__(
        self,
        parent: Sequence[int],
        capacity: Sequence[float] | None = None,
        parent_edge: Sequence[int] | None = None,
    ) -> None:
        if isinstance(parent, np.ndarray):
            self._parent_arr = parent.astype(WIDE_DTYPE)
            self.parent = self._parent_arr.tolist()
        else:
            self.parent = [int(p) for p in parent]
            self._parent_arr = np.asarray(self.parent, dtype=WIDE_DTYPE)
        n = len(self.parent)
        roots = np.flatnonzero(self._parent_arr < 0)
        if len(roots) != 1:
            raise TreeError(f"tree must have exactly one root, found {len(roots)}")
        self.root = int(roots[0])
        if np.any(self._parent_arr >= n):
            v = int(np.argmax(self._parent_arr >= n))
            raise TreeError(f"parent[{v}] = {self.parent[v]} out of range")
        if capacity is None:
            self.capacity = np.zeros(n)
        else:
            if len(capacity) != n:
                raise TreeError("capacity array must have one entry per node")
            self.capacity = np.asarray(capacity, dtype=float).copy()
        self.capacity[self.root] = 0.0
        self.parent_edge: np.ndarray | None = None
        if parent_edge is not None:
            self.parent_edge = np.asarray(parent_edge, dtype=WIDE_DTYPE)
            if self.parent_edge.shape != (n,):
                raise TreeError("parent_edge must have one entry per node")
        self._depth_list = self._validate_depths()
        self._euler: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._children_cache: list[list[int]] | None = None
        self._depth_arr: np.ndarray | None = None
        self._lift: np.ndarray | None = None

    def _validate_depths(self) -> list[int]:
        """Depth of every node by memoized parent-chain walks.

        One amortized O(n) pass that doubles as validation: with a
        single root, a chain that revisits this walk's own trail (or
        runs past n hops) is a cycle, and acyclicity plus one root
        implies every node reaches the root.
        """
        n = self.num_nodes
        parent = self.parent
        depth = [-1] * n
        depth[self.root] = 0
        for v in range(n):
            if depth[v] >= 0:
                continue
            chain = []
            w = v
            while depth[w] < 0:
                chain.append(w)
                if len(chain) > n:
                    raise TreeError(
                        "parent pointers contain a cycle or unreachable "
                        f"nodes (node {v} never reaches the root)"
                    )
                w = parent[w]
            d = depth[w]
            for u in reversed(chain):
                d += 1
                depth[u] = d
        return depth

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.parent)

    def _ensure_euler(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Build (lazily, once) the Euler intervals every aggregation
        runs on: one DFS pass yielding preorder + entry/exit indices."""
        if self._euler is None:
            n = self.num_nodes
            children = self._children()
            order = [0] * n
            tin = [0] * n
            tout = [0] * n
            clock = 0
            stack: list[int] = [~self.root, self.root]
            while stack:
                node = stack.pop()
                if node < 0:
                    tout[~node] = clock
                    continue
                order[clock] = node
                tin[node] = clock
                clock += 1
                # Push in reverse so children are *visited* ascending.
                for child in reversed(children[node]):
                    stack.append(~child)
                    stack.append(child)
            self._euler = (
                np.asarray(order, dtype=WIDE_DTYPE),
                np.asarray(tin, dtype=WIDE_DTYPE),
                np.asarray(tout, dtype=WIDE_DTYPE),
            )
        return self._euler

    def _children(self) -> list[list[int]]:
        if self._children_cache is None:
            children: list[list[int]] = [[] for _ in range(self.num_nodes)]
            for v, p in enumerate(self.parent):
                if p >= 0:
                    children[p].append(v)
            self._children_cache = children
        return self._children_cache

    @property
    def euler_order(self) -> np.ndarray:
        """DFS preorder over nodes."""
        return self._ensure_euler()[0]

    @property
    def euler_tin(self) -> np.ndarray:
        """Entry index of each node in the Euler tour."""
        return self._ensure_euler()[1]

    @property
    def euler_tout(self) -> np.ndarray:
        """Exit index of each node: subtree of v is ``tin[v]:tout[v]``."""
        return self._ensure_euler()[2]

    @property
    def depths(self) -> np.ndarray:
        """Hop depth of every node below the root (int64 array)."""
        if self._depth_arr is None:
            self._depth_arr = np.asarray(self._depth_list, dtype=WIDE_DTYPE)
        return self._depth_arr

    def topological_order(self) -> list[int]:
        """Nodes in root-first order (every prefix closed under taking
        parents): DFS preorder with children visited ascending. Callers
        should rely only on the root-first property."""
        return self._ensure_euler()[0].tolist()

    def depth(self, node: int) -> int:
        """Hop depth of ``node`` below the root."""
        return self._depth_list[node]

    def height(self) -> int:
        """Maximum depth over all nodes."""
        return max(self._depth_list)

    def children(self) -> list[list[int]]:
        """Return the child lists of every node."""
        return [list(c) for c in self._children()]

    def path_to_root(self, node: int) -> list[int]:
        """Return the node sequence from ``node`` up to and including the
        root."""
        path = [node]
        while self.parent[path[-1]] >= 0:
            path.append(self.parent[path[-1]])
        return path

    # ------------------------------------------------------------------
    # Lowest common ancestors
    # ------------------------------------------------------------------
    def lca(self, u: int, v: int) -> int:
        """Lowest common ancestor by depth-equalizing walk (O(depth))."""
        depth = self._depth_list
        while depth[u] > depth[v]:
            u = self.parent[u]
        while depth[v] > depth[u]:
            v = self.parent[v]
        while u != v:
            u = self.parent[u]
            v = self.parent[v]
        return u

    def _lifting_table(self) -> np.ndarray:
        """Binary-lifting ancestor table ``up[k][v]`` (lazy, cached)."""
        if self._lift is None:
            n = self.num_nodes
            height = max(self._depth_list)
            levels = max(1, height.bit_length())
            up = np.empty((levels, n), dtype=WIDE_DTYPE)
            # Treat the root as its own ancestor so jumps saturate.
            base = self._parent_arr.copy()
            base[self.root] = self.root
            up[0] = base
            for k in range(1, levels):
                up[k] = up[k - 1][up[k - 1]]
            self._lift = up
        return self._lift

    def lca_batch(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Vectorized LCA for pair arrays (binary lifting)."""
        us = np.asarray(us, dtype=WIDE_DTYPE).copy()
        vs = np.asarray(vs, dtype=WIDE_DTYPE).copy()
        up = self._lifting_table()
        depth = self.depths
        # Lift the deeper endpoint up to the shallower one's depth.
        diff = depth[us] - depth[vs]
        swap = diff < 0
        us[swap], vs[swap] = vs[swap], us[swap]
        diff = np.abs(diff)
        for k in range(len(up)):
            take = (diff >> k) & 1 == 1
            if np.any(take):
                us[take] = up[k][us[take]]
        # Now equal depth: jump both while ancestors differ.
        for k in range(len(up) - 1, -1, -1):
            differs = up[k][us] != up[k][vs]
            if np.any(differs):
                us[differs] = up[k][us[differs]]
                vs[differs] = up[k][vs[differs]]
        out = np.where(us == vs, us, up[0][us])
        return out

    def path_length(
        self, u: int, v: int, edge_length: Sequence[float] | None = None
    ) -> float:
        """Length of the unique u-v tree path. ``edge_length[w]`` is the
        length of edge (w, parent[w]); hop count if omitted."""
        ancestor = self.lca(u, v)
        total = 0.0
        for start in (u, v):
            node = start
            while node != ancestor:
                total += 1.0 if edge_length is None else float(edge_length[node])
                node = self.parent[node]
        return total

    # ------------------------------------------------------------------
    # Aggregations (the paper's convergecast / downcast)
    # ------------------------------------------------------------------
    def subtree_sums(self, values: Sequence[float]) -> np.ndarray:
        """Return, for every node v, the sum of ``values`` over the
        subtree rooted at v (a convergecast): two prefix-sum lookups on
        the Euler tour."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.num_nodes,):
            raise TreeError("values must have one entry per node")
        order, tin, tout = self._ensure_euler()
        prefix = np.concatenate(([0.0], np.cumsum(values[order])))
        return prefix[tout] - prefix[tin]

    def prefix_sums_from_root(self, edge_values: Sequence[float]) -> np.ndarray:
        """Return, for every node v, the sum of ``edge_values[w]`` over
        the edges (w, parent[w]) on the root-to-v path (a downcast).

        This is exactly the node-potential computation π_v of Section
        9.1: with ``edge_values`` = edge prices, the result is the
        per-tree contribution to π. Implemented as one Euler range
        update: edge (w, p(w)) contributes to exactly the subtree of w.
        """
        edge_values = np.asarray(edge_values, dtype=float)
        if edge_values.shape != (self.num_nodes,):
            raise TreeError("edge_values must have one entry per node")
        diff = np.zeros(self.num_nodes + 1)
        nonroot = self._parent_arr >= 0
        _, tin, tout = self._ensure_euler()
        np.add.at(diff, tin[nonroot], edge_values[nonroot])
        np.subtract.at(diff, tout[nonroot], edge_values[nonroot])
        out = np.cumsum(diff[:-1])[tin]
        out[self.root] = 0.0
        return out

    def edge_flows_for_demand(self, demand: Sequence[float]) -> np.ndarray:
        """Route a demand vector on the tree; return per-edge signed flow.

        ``result[v]`` is the flow on edge (v, parent[v]), positive when
        flow moves from v toward the parent. Routing on a tree is
        unique: the flow out of subtree T_v equals the total demand
        inside T_v (paper Section 2, "routing flows on trees is
        trivial")."""
        demand = np.asarray(demand, dtype=float)
        flows = self.subtree_sums(demand)
        flows[self.root] = 0.0
        return flows

    def congestion_for_demand(self, demand: Sequence[float]) -> np.ndarray:
        """Per-edge congestion |flow| / capacity when routing ``demand``
        on the tree. This is one block of rows of the R operator."""
        flows = self.edge_flows_for_demand(demand)
        with np.errstate(divide="ignore", invalid="ignore"):
            congestion = np.abs(flows) / self.capacity
        congestion[self.root] = 0.0
        congestion[~np.isfinite(congestion)] = 0.0
        return congestion

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def as_graph(self) -> Graph:
        """Return the tree as a :class:`Graph` (edge (v, parent[v]) gets
        edge id ordering by child node)."""
        nonroot = np.flatnonzero(self._parent_arr >= 0)
        caps = self.capacity[nonroot]
        caps = np.where(caps > 0, caps, 1.0)
        return Graph._from_trusted_arrays(
            self.num_nodes, nonroot, self._parent_arr[nonroot], caps
        )


def bfs_tree(graph: Graph, root: int = 0) -> RootedTree:
    """Breadth-first spanning tree of a connected graph, rooted at
    ``root``. Each node hangs off the first reached neighbour in FIFO
    order; its ``parent_edge`` is the lowest-id edge joining the two,
    because adjacency rows are in edge-id order."""
    graph._check_node(root)
    graph.require_connected()
    if not graph.is_small():
        _, parent, parent_edge = kernels.bfs_parents(graph.csr(), root)
        return RootedTree(parent, parent_edge=parent_edge)
    n = graph.num_nodes
    parent = [-1] * n
    parent_edge = [-1] * n
    fifo_bfs(graph.adjacency_lists(), root, [-1] * n, parent, parent_edge)
    return RootedTree(parent, parent_edge=parent_edge)


def spanning_tree_from_edges(
    graph: Graph, edge_ids: Iterable[int], root: int = 0
) -> RootedTree:
    """Root the spanning tree of ``graph`` formed by the given edge ids
    at ``root`` (one BFS over those edges). The tree's ``parent_edge``
    holds the given ids, so callers need not look them up again.

    Raises:
        GraphError: If ``root`` is not a node of ``graph``.
        TreeError: If the edge set is not a spanning tree.
    """
    graph._check_node(root)
    n = graph.num_nodes
    ids = np.asarray(
        edge_ids if isinstance(edge_ids, np.ndarray) else list(edge_ids),
        dtype=WIDE_DTYPE,
    )
    if len(ids) != n - 1:
        raise TreeError(f"spanning tree needs {n - 1} edges, got {len(ids)}")
    tails, heads = graph.edge_index_arrays()
    if n + 2 * len(ids) >= SMALL_GRAPH_LIMIT:
        csr = build_csr(n, tails[ids], heads[ids])
        dist, parent, local_edge = kernels.bfs_parents(csr, root)
        if np.any(dist < 0):
            raise TreeError("edge set does not span the graph")
        # The kernel reports edges of the tree's own CSR; map them back.
        parent_edge = np.full(n, -1, dtype=WIDE_DTYPE)
        child = local_edge >= 0
        parent_edge[child] = ids[local_edge[child]]
        return RootedTree(parent, parent_edge=parent_edge)
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    ends = zip(tails[ids].tolist(), heads[ids].tolist(), ids.tolist())
    for u, v, eid in ends:
        adjacency[u].append((v, eid))
        adjacency[v].append((u, eid))
    parent = [-1] * n
    parent_edge = [-1] * n
    if len(fifo_bfs(adjacency, root, [-1] * n, parent, parent_edge)) != n:
        raise TreeError("edge set does not span the graph")
    return RootedTree(parent, parent_edge=parent_edge)


def induced_cut_capacities(graph: Graph, tree: RootedTree) -> np.ndarray:
    """For each tree edge (v, parent[v]), compute the capacity in
    ``graph`` of the cut (T_v, V \\ T_v) its subtree induces.

    This is exactly the multicommodity-flow magnitude |f'| of the
    paper's Section 8.1 (Lemmas 8.1/8.3): routing cap(e) units along the
    tree for every graph edge e loads tree edge (v, p(v)) with the total
    capacity of graph edges having exactly one endpoint in T_v — i.e.
    the induced cut capacity. Computed with one batched-LCA pass plus
    one Euler subtree sum:
    cut(T_v) = Σ_{e incident to T_v} cap(e) − 2·Σ_{e inside T_v} cap(e).

    That difference cancels when a cut is far smaller than the capacity
    around it, so a row small enough to have lost its digits is summed
    again directly over the edges crossing it.

    The LCA pass is most of the cost and depends only on the tree and
    the edge endpoints, not on the capacities; a caller that recomputes
    the cuts of one tree over many capacity epochs
    (``TreeCongestionApproximator.refresh_capacities``) keeps the edge
    LCAs and runs only :func:`_cuts_from_edge_lcas`, the folds below.
    """
    if tree.num_nodes != graph.num_nodes:
        raise TreeError("tree and graph node counts differ")
    tails, heads = graph.edge_index_arrays()
    return _cuts_from_edge_lcas(graph, [tree], [tree.lca_batch(tails, heads)])[0]


def _cuts_from_edge_lcas(
    graph: Graph, trees: Sequence[RootedTree], edge_lcas: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """:func:`induced_cut_capacities` of each tree in ``trees`` given
    ``edge_lcas[i][e]``, the LCA in ``trees[i]`` of edge e's endpoints:
    the same folds, bit for bit, with the tree-independent incident
    capacities scattered once for all trees."""
    n = graph.num_nodes
    tails, heads = graph.edge_index_arrays()
    caps = graph.capacities()
    incident = np.zeros(n)
    np.add.at(incident, tails, caps)
    np.add.at(incident, heads, caps)
    twice = 2.0 * caps
    # Each row is a difference of partial sums up to 4·Σcap in size,
    # accumulated over n + m terms, so its rounding error stays below
    # about 8(n+m)·eps·Σcap. A row within 10⁶ of that bound may be off
    # by more than 1e-6 of itself: recompute it as the capacity of the
    # edges with exactly one endpoint in T_v, the nodes whose Euler
    # position lies in [tin[v], tout[v]).
    limit = 1e6 * 8 * (n + graph.num_edges) * np.finfo(float).eps * caps.sum()
    cuts = []
    for tree, lcas in zip(trees, edge_lcas):
        # An edge {u, v} lies inside T_w iff w is an ancestor of
        # lca(u, v). Accumulate 2*cap at the LCA, then take subtree
        # sums of (incident - 2*cap_at_lca).
        at_lca = np.zeros(n)
        np.add.at(at_lca, lcas, twice)
        cut = tree.subtree_sums(incident - at_lca)
        cut[tree.root] = 0.0
        suspect = cut <= limit
        suspect[tree.root] = False
        if np.any(suspect):
            tin, tout = tree.euler_tin, tree.euler_tout
            tail_at, head_at = tin[tails], tin[heads]
            for v in np.flatnonzero(suspect).tolist():
                lo, hi = tin[v], tout[v]
                crossing = ((lo <= tail_at) & (tail_at < hi)) != (
                    (lo <= head_at) & (head_at < hi)
                )
                cut[v] = caps[crossing].sum()
        cuts.append(cut)
    return cuts


def tree_route_demand(
    graph: Graph, tree: RootedTree, demand: Sequence[float]
) -> np.ndarray:
    """Route ``demand`` on a spanning tree built from ``graph``'s edges,
    returning a flow vector indexed by *graph* edge ids.

    Each tree edge (v, parent[v]) carries its flow on the tree's own
    edge, ``tree.parent_edge[v]``. Used for Algorithm 1's final
    residual routing.

    Raises:
        TreeError: If the tree records no graph edges, or an edge it
            records does not join ``v`` and ``parent[v]`` in ``graph``.
    """
    if tree.parent_edge is None:
        raise TreeError("tree records no graph edges to route on")
    demand = np.asarray(demand, dtype=float)
    flows_on_tree = tree.edge_flows_for_demand(demand)
    nonroot = np.flatnonzero(tree.parent_edge >= 0)
    eids = tree.parent_edge[nonroot]
    parents = tree._parent_arr[nonroot]
    if eids.size and int(eids.max()) >= graph.num_edges:
        raise TreeError("tree records edges the graph does not have")
    tails, heads = graph.edge_index_arrays()
    tails, heads = tails[eids], heads[eids]
    # Positive tree flow moves v -> p; positive graph flow moves
    # tail -> head. Align signs.
    forward = (tails == nonroot) & (heads == parents)
    if not np.all(forward | ((heads == nonroot) & (tails == parents))):
        raise TreeError("a recorded edge does not join its child and parent")
    flow = np.zeros(graph.num_edges)
    signs = np.where(forward, 1.0, -1.0)
    np.add.at(flow, eids, signs * flows_on_tree[nonroot])
    return flow

"""Distributed cluster graphs (paper Definition 5.1).

A cluster graph partitions the network nodes into clusters, each with a
leader and a rooted spanning tree inside the cluster, plus a multigraph
of inter-cluster edges where every cluster edge is realized by a
*physical* edge of the underlying network (the ψ map, condition IV).
The recursive j-tree hierarchy (Section 8) maintains exactly this
structure level by level; :class:`ClusterGraph` is its concrete
representation, and :meth:`merge_along_forest` performs the level
transition (new clusters = forest components, internal trees spliced
together through the physical edges realizing forest edges).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import GraphError, TreeError
from repro.graphs.graph import Graph

__all__ = ["ClusterGraph"]


@dataclass
class ClusterGraph:
    """Definition 5.1, centrally represented.

    Attributes:
        base: The underlying network graph G.
        assignment: ``assignment[v]`` = cluster index of network node v.
        parent: ``parent[v]`` = parent *network node* of v inside its
            cluster tree (-1 if v is its cluster's root/leader).
        roots: ``roots[c]`` = root network node (leader) of cluster c.
        quotient: The inter-cluster multigraph (one node per cluster).
        edge_origin: ``edge_origin[j]`` = base-graph edge id realizing
            quotient edge j (the ψ map).
    """

    base: Graph
    assignment: list[int]
    parent: list[int]
    roots: list[int]
    quotient: Graph
    edge_origin: list[int]

    # ------------------------------------------------------------------
    @classmethod
    def trivial(cls, graph: Graph) -> "ClusterGraph":
        """The level-0 cluster graph: every node its own cluster, and
        ``graph`` itself is the quotient.

        The quotient is shared, not copied: the hierarchy builds one
        trivial cluster graph per sample, and sharing keeps the input
        graph's cached CSR, adjacency and connectivity warm across all
        O(log n) samples. Callers must not mutate the quotient of a
        trivial cluster graph; every level transition builds a new one.
        """
        return cls(
            base=graph,
            assignment=list(range(graph.num_nodes)),
            parent=[-1] * graph.num_nodes,
            roots=list(range(graph.num_nodes)),
            quotient=graph,
            edge_origin=list(range(graph.num_edges)),
        )

    @property
    def num_clusters(self) -> int:
        return self.quotient.num_nodes

    def cluster_members(self) -> list[list[int]]:
        """Return the member network nodes of every cluster."""
        members: list[list[int]] = [[] for _ in range(self.num_clusters)]
        for v, c in enumerate(self.assignment):
            members[c].append(v)
        return members

    def cluster_tree_depth(self) -> int:
        """Maximum depth of any cluster's internal tree (invariant 2 of
        Section 4 tracks this as Õ(√n))."""
        depth = [0] * self.base.num_nodes
        # parent pointers form forests; compute depths iteratively.
        order: list[int] = []
        children: list[list[int]] = [[] for _ in range(self.base.num_nodes)]
        for v, p in enumerate(self.parent):
            if p >= 0:
                children[p].append(v)
        stack = [r for r in self.roots]
        while stack:
            node = stack.pop()
            order.append(node)
            for ch in children[node]:
                depth[ch] = depth[node] + 1
                stack.append(ch)
        if len(order) != self.base.num_nodes:
            raise TreeError("cluster trees do not cover all nodes")
        return max(depth) if depth else 0

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check all four conditions of Definition 5.1.

        Raises:
            GraphError / TreeError: On any violated condition.
        """
        n = self.base.num_nodes
        if len(self.assignment) != n or len(self.parent) != n:
            raise GraphError("assignment/parent must cover every node")
        # (I) clusters partition V — assignment is total by construction;
        # check cluster ids are exactly 0..N-1.
        used = set(self.assignment)
        if used != set(range(self.num_clusters)):
            raise GraphError("cluster ids must be exactly 0..N-1")
        # (II) one leader per cluster, inside the cluster.
        if len(self.roots) != self.num_clusters:
            raise GraphError("roots must have one entry per cluster")
        for c, r in enumerate(self.roots):
            if self.assignment[r] != c:
                raise GraphError(f"root {r} of cluster {c} not a member")
            if self.parent[r] != -1:
                raise TreeError(f"root {r} of cluster {c} has a parent")
        # (III) cluster trees: parents are members of the same cluster,
        # connected via base-graph edges, acyclic, spanning the cluster.
        base_pairs = {
            (min(e.u, e.v), max(e.u, e.v)) for e in self.base.edges()
        }
        seen_from_root = [False] * n
        children: list[list[int]] = [[] for _ in range(n)]
        for v, p in enumerate(self.parent):
            if p < 0:
                continue
            if self.assignment[p] != self.assignment[v]:
                raise TreeError(
                    f"parent pointer {v}->{p} crosses clusters"
                )
            if (min(v, p), max(v, p)) not in base_pairs:
                raise TreeError(f"tree edge ({v},{p}) not a graph edge")
            children[p].append(v)
        stack = list(self.roots)
        while stack:
            node = stack.pop()
            if seen_from_root[node]:
                raise TreeError("cluster trees contain a cycle")
            seen_from_root[node] = True
            stack.extend(children[node])
        if not all(seen_from_root):
            raise TreeError("cluster trees do not span their clusters")
        # (IV) ψ maps each quotient edge to a base edge between the
        # right clusters.
        if len(self.edge_origin) != self.quotient.num_edges:
            raise GraphError("edge_origin must cover every quotient edge")
        for j in range(self.quotient.num_edges):
            cu, cv = self.quotient.endpoints(j)
            u, v = self.base.endpoints(self.edge_origin[j])
            if {self.assignment[u], self.assignment[v]} != {cu, cv}:
                raise GraphError(
                    f"quotient edge {j} maps to base edge between wrong "
                    f"clusters"
                )

    # ------------------------------------------------------------------
    def reroot_cluster(self, cluster: int, new_root: int) -> None:
        """Re-root one cluster's internal tree at ``new_root`` (a member)
        by reversing the parent pointers along the old-root path."""
        if self.assignment[new_root] != cluster:
            raise GraphError(
                f"node {new_root} is not in cluster {cluster}"
            )
        path = [new_root]
        while self.parent[path[-1]] >= 0:
            path.append(self.parent[path[-1]])
        for child, parent in zip(path, path[1:]):
            self.parent[parent] = child
        self.parent[new_root] = -1
        self.roots[cluster] = new_root

    def merge_along_forest(
        self,
        forest_parent: list[int],
        forest_edge: list[int],
        new_quotient: Graph,
        new_edge_origin: list[int],
        component_of: list[int],
    ) -> "ClusterGraph":
        """Build the next-level cluster graph.

        Args:
            forest_parent: Per current cluster, its parent cluster in
                the sampled j-tree's forest (-1 at component roots —
                the portals).
            forest_edge: Per current cluster, the *quotient* edge id
                realizing the edge to the forest parent (-1 at roots).
            new_quotient: Core multigraph over the new clusters.
            new_edge_origin: Base-graph edge id for each core edge.
            component_of: Per current cluster, its new cluster index.

        Returns:
            The next-level :class:`ClusterGraph`. The internal trees of
            merged clusters are spliced via the physical edges realizing
            the forest edges (re-rooting child clusters as needed).
        """
        parent = list(self.parent)
        assignment = [component_of[c] for c in self.assignment]
        num_new = new_quotient.num_nodes
        roots = [-1] * num_new
        # Splice each non-root cluster into its forest parent.
        scratch = ClusterGraph(
            base=self.base,
            assignment=list(self.assignment),
            parent=parent,
            roots=list(self.roots),
            quotient=self.quotient,
            edge_origin=self.edge_origin,
        )
        for c in range(self.num_clusters):
            if forest_parent[c] < 0:
                roots[component_of[c]] = scratch.roots[c]
                continue
            qe = forest_edge[c]
            u, v = self.base.endpoints(self.edge_origin[qe])
            # Orient: u must lie in cluster c, v in the parent cluster.
            if self.assignment[u] != c:
                u, v = v, u
            if (
                self.assignment[u] != c
                or self.assignment[v] != forest_parent[c]
            ):
                raise GraphError(
                    f"forest edge for cluster {c} not realized by a "
                    "physical edge between the right clusters"
                )
            scratch.reroot_cluster(c, u)
            scratch.parent[u] = v
        if any(r < 0 for r in roots):
            raise GraphError("some new cluster has no root (no portal)")
        return ClusterGraph(
            base=self.base,
            assignment=assignment,
            parent=scratch.parent,
            roots=roots,
            quotient=new_quotient,
            edge_origin=new_edge_origin,
        )

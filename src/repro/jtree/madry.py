"""One step of Madry's j-tree construction (paper §4 and §8.2–8.3).

Given the current cluster multigraph (the "core" from the previous
recursion level) and an edge length function, one step produces a
Θ(j)-tree:

1. compute a low average-stretch spanning tree T w.r.t. the lengths
   (Theorem 3.1);
2. compute, for every tree edge, the load |f'| of embedding the graph
   into T — equal to the capacity of the cut the edge's subtree induces
   (Lemma 8.1/8.3) — and the relative load rload = |f'| / cap;
3. partition tree edges into load classes (R/2^i, R/2^{i-1}]; find the
   minimal class i0 with Ω(j / log n) edges whose higher classes hold
   at most j edges; remove those higher-class edges (the set F);
4. compute portals, skeleton, and the deleted path-edge set D
   (:mod:`repro.jtree.skeleton`);
5. the forest T \\ (F ∪ D), rooted at the portals, plus the core edges
   (graph edges crossing components at original capacity, D edges at
   their tree capacity) form the j-tree.

The relative loads feed the multiplicative-weights update
(:mod:`repro.jtree.mwu`) that turns repeated steps into an
(α, H[j])-decomposition (Lemma 8.4).

The step is split into two stages so the MWU loop can defer work it
may never need: :func:`madry_tree_phase` (stages 1–3: the spanning
tree, loads, and removal set — everything the weight update consumes,
and everything that draws randomness) and :func:`finish_jtree_step`
(stages 4–5: skeleton, portals, forest orientation, and core edges —
deterministic given the phase, so it can be run for *only the sampled*
iteration of a distribution; cf. :func:`repro.jtree.mwu.mwu_tree_phases`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.graphs.trees import RootedTree, induced_cut_capacities
from repro.jtree.skeleton import SkeletonResult, build_skeleton
from repro.lsst.akpw import akpw_spanning_tree
from repro.util.rng import as_generator

__all__ = [
    "CoreEdge",
    "JTreeStep",
    "TreePhase",
    "madry_tree_phase",
    "finish_jtree_step",
    "madry_jtree_step",
    "select_load_classes",
]


@dataclass(frozen=True)
class CoreEdge:
    """An edge of the j-tree's core multigraph.

    Attributes:
        component_u / component_v: Endpoint components (new clusters).
        capacity: Core capacity (original capacity for crossing graph
            edges; the tree capacity cap_T for D-edges, per §8.3).
        quotient_edge: The quotient edge this core edge is realized by
            (a physical network edge via the cluster graph's ψ map).
        is_path_edge: True for D-edges (deleted skeleton path edges).
    """

    component_u: int
    component_v: int
    capacity: float
    quotient_edge: int
    is_path_edge: bool


@dataclass
class TreePhase:
    """The randomness-consuming first stage of a Madry step.

    Everything the multiplicative-weights update needs (Lemma 8.4 uses
    only the relative loads), plus everything :func:`finish_jtree_step`
    needs to deterministically complete the j-tree.

    Attributes:
        tree: The spanning tree T of the quotient; ``tree.parent_edge``
            is the quotient edge realizing (c, parent(c)).
        tree_capacity: cap_T per child node (induced cut capacities).
        rload: Relative load per child node (cap_T / cap).
        rload_per_edge: Relative load per *quotient edge* (0 off-tree)
            — the MWU update vector.
        removed: Sorted child node ids whose parent edge went into F.
        phases: SplitGraph phases consumed (round accounting).
    """

    tree: RootedTree
    tree_capacity: np.ndarray
    rload: np.ndarray
    rload_per_edge: np.ndarray
    removed: list[int]
    phases: int


@dataclass
class JTreeStep:
    """Everything one Madry step produces.

    Attributes:
        tree: The spanning tree T of the quotient; ``tree.parent_edge``
            is the quotient edge realizing (c, parent(c)).
        tree_capacity: cap_T per child node (induced cut capacities).
        rload: Relative load per child node (cap_T / cap).
        rload_per_edge: Relative load per *quotient edge* (0 off-tree) —
            the MWU update vector.
        removed_edges: Child node ids whose parent edge went into F.
        skeleton: Portal/skeleton/D data.
        forest_parent: Per cluster, parent cluster in the j-tree forest
            (-1 at portals).
        forest_edge: Per cluster, quotient edge to the forest parent.
        component_of: Per cluster, its component (new cluster) index.
        core_u / core_v / core_cap / core_origin / core_is_path:
            Parallel arrays of the core multigraph's edges (endpoint
            components, capacity, realizing quotient edge, D-flag) in
            quotient-edge-id order — the array-native form the
            hierarchy consumes; :attr:`core_edges` materializes the
            per-edge view lazily.
        num_components: Number of new clusters (= core size).
        phases: SplitGraph phases consumed (round accounting).
    """

    tree: RootedTree
    tree_capacity: np.ndarray
    rload: np.ndarray
    rload_per_edge: np.ndarray
    removed_edges: list[int]
    skeleton: SkeletonResult
    forest_parent: list[int]
    forest_edge: list[int]
    component_of: list[int]
    core_u: np.ndarray
    core_v: np.ndarray
    core_cap: np.ndarray
    core_origin: np.ndarray
    core_is_path: np.ndarray
    num_components: int
    phases: int
    _core_edges_cache: list[CoreEdge] | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def core_edges(self) -> list[CoreEdge]:
        """Per-edge :class:`CoreEdge` view of the core arrays (lazy)."""
        if self._core_edges_cache is None:
            self._core_edges_cache = [
                CoreEdge(int(u), int(v), float(c), int(q), bool(d))
                for u, v, c, q, d in zip(
                    self.core_u.tolist(),
                    self.core_v.tolist(),
                    self.core_cap.tolist(),
                    self.core_origin.tolist(),
                    self.core_is_path.tolist(),
                )
            ]
        return self._core_edges_cache


def select_load_classes(
    rload: np.ndarray, children: list[int], j: int
) -> list[int]:
    """Choose the removal set F by load classes (paper §4 step 3).

    Args:
        rload: Relative load per child node.
        children: Child node ids carrying tree edges (all non-roots).
        j: Target size bound: |F| <= j.

    Returns:
        Child node ids whose parent edges form F (the classes strictly
        above the first class containing Ω(j / log n) edges).
    """
    if not children:
        return []
    loads = np.array([rload[c] for c in children])
    r_max = float(loads.max())
    if r_max <= 0:
        return []
    # class index of edge: i such that rload in (R/2^i, R/2^{i-1}],
    # i.e. ratio R/rload in [2^{i-1}, 2^i) and i = floor(log2 ratio)+1.
    with np.errstate(divide="ignore"):
        ratio = np.where(loads > 0, r_max / loads, np.inf)
    finite = np.isfinite(ratio)
    class_index = np.full(len(loads), 63, dtype=int)
    class_index[finite] = (
        np.floor(np.log2(np.maximum(ratio[finite], 1.0))).astype(int) + 1
    )
    i_max = int(class_index.max())
    quota = max(1, int(j / max(1.0, math.log2(len(children) + 1))))
    prefix = 0
    for i in range(1, i_max + 1):
        size_i = int((class_index == i).sum())
        if size_i >= quota or prefix + size_i > j:
            # classes 1..i-1 are removed (they hold `prefix` <= j edges)
            return [
                c
                for c, ci in zip(children, class_index)
                if ci < i
            ]
        prefix += size_i
    # Every class was small and the total fits within j: remove all but
    # the last class (keeps Ω(j / log) near the new max).
    return [c for c, ci in zip(children, class_index) if ci < i_max]


def madry_tree_phase(
    quotient: Graph,
    lengths: Sequence[float] | None,
    j: int,
    rng: np.random.Generator | int | None = None,
    extra_removals: Sequence[int] = (),
    removal_policy: str = "classes",
) -> TreePhase:
    """Run stages 1–3 of a Madry step (tree, loads, removal set).

    This is the only part of a step that consumes randomness; see
    :func:`madry_jtree_step` for the argument semantics.
    """
    rng = as_generator(rng)
    n = quotient.num_nodes
    if n < 2:
        raise GraphError("madry step needs at least 2 clusters")
    if lengths is None:
        lengths = 1.0 / quotient.capacities()
    lsst = akpw_spanning_tree(quotient, lengths=lengths, rng=rng)
    tree = lsst.tree
    nonroot = np.flatnonzero(tree.parent_edge >= 0)
    child_eids = tree.parent_edge[nonroot]

    # Tree capacities = induced cut capacities (the |f'| of Lemma 8.3).
    tree_capacity = induced_cut_capacities(quotient, tree)
    caps = quotient.capacities()
    rload = np.zeros(n)
    rload[nonroot] = tree_capacity[nonroot] / caps[child_eids]
    rload_per_edge = np.zeros(quotient.num_edges)
    rload_per_edge[child_eids] = rload[nonroot]

    children = nonroot.tolist()
    if removal_policy == "classes":
        removed = set(select_load_classes(rload, children, j))
    elif removal_policy == "topj":
        by_load = sorted(children, key=lambda c: -rload[c])
        removed = set(by_load[: min(j, max(0, len(children) - 1))])
    else:
        raise GraphError(f"unknown removal_policy {removal_policy!r}")
    removed.update(int(c) for c in extra_removals if tree.parent[c] >= 0)
    return TreePhase(
        tree=tree,
        tree_capacity=tree_capacity,
        rload=rload,
        rload_per_edge=rload_per_edge,
        removed=sorted(removed),
        phases=lsst.phases,
    )


def finish_jtree_step(quotient: Graph, phase: TreePhase) -> JTreeStep:
    """Run stages 4–5 of a Madry step (skeleton, forest, core edges).

    Deterministic given ``phase`` — no randomness is consumed, so the
    MWU loop can run it for only the iteration it actually sampled.
    """
    n = quotient.num_nodes
    tree = phase.tree
    tree_capacity = phase.tree_capacity
    parent_edge = tree.parent_edge
    removed = phase.removed

    # Forest T \ F and primary portals.
    removed_set = set(removed)
    children = np.flatnonzero(np.asarray(tree.parent, dtype=np.int64) >= 0)
    forest_edges = [
        (c, tree.parent[c], float(tree_capacity[c]))
        for c in children.tolist()
        if c not in removed_set
    ]
    primary = set()
    for c in removed:
        primary.add(c)
        primary.add(tree.parent[c])
    skeleton = build_skeleton(n, forest_edges, primary)

    # Root every component at its portal; orient the forest.
    deleted_keys = {
        (a, b) for a, b, _ in skeleton.deleted_path_edges
    }
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for c, p, _ in forest_edges:
        if (min(c, p), max(c, p)) in deleted_keys:
            continue
        adjacency[c].append(p)
        adjacency[p].append(c)
    forest_parent = [-1] * n
    forest_edge = [-1] * n
    tec = parent_edge.tolist()
    for comp_index, portal in enumerate(skeleton.component_portal):
        stack = [portal]
        seen = {portal}
        while stack:
            v = stack.pop()
            for w in adjacency[v]:
                if w in seen:
                    continue
                seen.add(w)
                forest_parent[w] = v
                forest_edge[w] = (
                    tec[w] if tree.parent[w] == v else tec[v]
                )
                stack.append(w)

    # Core edges: quotient edges crossing components (original capacity)
    # plus D edges (tree capacity). D edges physically cross components.
    # Emitted in quotient-edge-id order, matching the legacy loop: a
    # spanning tree realizes each node pair by a unique edge, so each
    # D pair is hit by exactly one tree edge and needs no dedup.
    component = np.asarray(skeleton.component, dtype=np.int64)
    tails, heads = quotient.edge_index_arrays()
    comp_u = component[tails]
    comp_v = component[heads]
    eids = np.flatnonzero(comp_u != comp_v)
    e_tails, e_heads = tails[eids], heads[eids]
    is_tree = (parent_edge[e_tails] == eids) | (parent_edge[e_heads] == eids)
    core_cap = quotient.capacities()[eids].copy()
    is_d = np.zeros(len(eids), dtype=bool)
    if skeleton.deleted_path_edges:
        d_arr = np.asarray(
            [(a, b) for a, b, _ in skeleton.deleted_path_edges],
            dtype=np.int64,
        )
        d_caps = np.asarray(
            [cap for _, _, cap in skeleton.deleted_path_edges], dtype=float
        )
        d_keys = d_arr[:, 0] * np.int64(n) + d_arr[:, 1]
        d_order = np.argsort(d_keys)
        d_keys = d_keys[d_order]
        d_caps = d_caps[d_order]
        e_keys = np.minimum(e_tails, e_heads).astype(np.int64) * np.int64(
            n
        ) + np.maximum(e_tails, e_heads)
        pos = np.searchsorted(d_keys, e_keys)
        pos_c = np.minimum(pos, len(d_keys) - 1)
        found = d_keys[pos_c] == e_keys
        is_d = is_tree & found
        core_cap[is_d] = d_caps[pos_c[is_d]]
    return JTreeStep(
        tree=tree,
        tree_capacity=tree_capacity,
        rload=phase.rload,
        rload_per_edge=phase.rload_per_edge,
        removed_edges=list(removed),
        skeleton=skeleton,
        forest_parent=forest_parent,
        forest_edge=forest_edge,
        component_of=component.tolist(),
        core_u=comp_u[eids],
        core_v=comp_v[eids],
        core_cap=core_cap,
        core_origin=eids,
        core_is_path=is_d,
        num_components=len(skeleton.component_portal),
        phases=phase.phases,
    )


def madry_jtree_step(
    quotient: Graph,
    lengths: Sequence[float] | None,
    j: int,
    rng: np.random.Generator | int | None = None,
    extra_removals: Sequence[int] = (),
    removal_policy: str = "classes",
) -> JTreeStep:
    """Run one Madry construction step on a cluster multigraph.

    Args:
        quotient: The core multigraph from the previous level.
        lengths: Edge lengths for the spanning tree (None = 1/cap).
        j: The j parameter (bounds |F| and hence portal count < 4j).
        rng: Randomness source.
        extra_removals: Additional child node ids to force into F (the
            paper's Õ(√n) random depth-control edges, Lemma 8.2).
        removal_policy: ``"classes"`` — the load-class rule of §4 step 3
            (F may be empty when the top class is already large);
            ``"topj"`` — §8.2's "repeatedly delete the edge with the
            largest relative load" reading: F = the j highest-load tree
            edges, which guarantees ~Θ(j) portals and hence genuinely
            multi-level recursion.

    Returns:
        A :class:`JTreeStep`.
    """
    phase = madry_tree_phase(
        quotient,
        lengths,
        j,
        rng=rng,
        extra_removals=extra_removals,
        removal_policy=removal_policy,
    )
    return finish_jtree_step(quotient, phase)

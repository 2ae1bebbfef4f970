"""The recursive hierarchy: sampling virtual trees (Theorem 8.10).

Each sample interleaves three ingredients per level, exactly as the
paper's recursion does:

1. **sparsify** the current core to Õ(N) edges (Lemma 6.1);
2. build a truncated **MWU distribution of j-trees** with
   j = N / (4β) (Lemma 8.4) and **sample** one;
3. the sampled j-tree's forest merges clusters (the cluster-graph level
   transition of Section 4); its core becomes the next level's graph.

When the core is small enough the remaining graph is collapsed by a
single low-stretch spanning tree (the paper finishes the construction
"locally" once N ≤ n^{1/2+o(1)}; a centralized implementation can
simply finish at a constant-size threshold).

The sampled **virtual tree** materializes as a genuine spanning tree of
the input graph — every virtual edge is realized by a physical edge
(invariant 4 of Section 4) — and its edges are assigned the *exact*
capacities of the cuts their subtrees induce in G. That choice makes
the lower-bound half of the congestion-approximator property
unconditional (every row of R is a true cut of G; cf. Lemma 3.3's
one-sided argument), while the tree distribution controls the upper
bound α.

Independent samples
-------------------

Lemma 3.3 needs O(log n) *independent* samples.
:func:`sample_virtual_trees` spawns one child generator per sample and
runs :func:`sample_virtual_tree` on each, one after another. Two things
keep a sample cheap:

* its level-0 core is the input graph itself, shared rather than
  copied: nothing in the recursion mutates a core, so every sample
  reuses the graph's cached CSR, adjacency and connectivity;
* within a level, only the **sampled** MWU iteration pays for
  skeleton, portals and core edges: the MWU loop
  (:func:`repro.jtree.mwu.mwu_tree_phases`) keeps only each
  iteration's cheap :class:`~repro.jtree.madry.TreePhase`, and
  :func:`~repro.jtree.madry.finish_jtree_step`, which consumes no
  randomness, runs once per level on the phase the sample picked.

Stage-to-paper map: the per-level sparsifier is Lemma 6.1; each MWU
iteration is one Madry step (§4 steps 1–3 = Theorem 3.1 trees plus the
Lemma 8.1/8.3 loads), the λ-weighting is Lemma 8.4, skeleton/portals
are Lemmas 8.5/8.8, the level transition is the cluster-graph merge of
Definition 5.1, and the final collapse is the "finish locally" step of
Theorem 8.10; the O(log n) independent samples assemble the
congestion approximator of Lemma 3.3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.cluster_graph import ClusterGraph
from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.graphs.trees import RootedTree, induced_cut_capacities
from repro.jtree.madry import JTreeStep, finish_jtree_step
from repro.jtree.mwu import mwu_tree_phases
from repro.lsst.akpw import akpw_spanning_tree
from repro.sparsify.sparsifier import sparsification_target, sparsify
from repro.util.rng import as_generator, spawn

__all__ = [
    "VirtualTree",
    "HierarchyParams",
    "sample_virtual_tree",
    "sample_virtual_trees",
]


@dataclass
class HierarchyParams:
    """Tunables of the recursive construction.

    Attributes:
        beta: Core shrink factor per level; defaults to the paper's
            2^(log n)^(3/4), floored at 2.
        trees_per_level: MWU iterations per level (the paper constructs
            Õ(β) per level and samples one; Lemma 3.3 needs only
            O(log n) total samples, so a small constant per level keeps
            each sample cheap).
        final_threshold: Collapse the remaining core with one spanning
            tree once it has at most this many clusters.
        sparsify_cores: Whether to run the Lemma 6.1 sparsifier between
            levels (the paper always does; disabling is an ablation).
        max_levels: Safety bound on recursion depth; exhausting it with
            the core still above the threshold raises
            :class:`~repro.errors.GraphError` (a stalled recursion is a
            bug, not something to paper over with one giant collapse).
        removal_policy: Passed to the Madry step ("classes" follows §4
            step 3 and may terminate early; "topj" forces Θ(j)-size
            cores and deep recursion, cf. §8.2).
    """

    beta: float | None = None
    trees_per_level: int = 3
    final_threshold: int | None = None
    sparsify_cores: bool = True
    max_levels: int = 64
    removal_policy: str = "classes"

    def resolved_beta(self, num_nodes: int) -> float:
        if self.beta is not None:
            return max(2.0, float(self.beta))
        log_n = max(2.0, math.log2(num_nodes))
        return max(2.0, 2.0 ** (log_n ** 0.75))

    def resolved_threshold(self, num_nodes: int) -> int:
        if self.final_threshold is not None:
            return max(2, int(self.final_threshold))
        return max(3, int(math.isqrt(num_nodes)))


@dataclass
class VirtualTree:
    """A sampled virtual tree (one row-block of the approximator R).

    Attributes:
        tree: Rooted spanning tree of the input graph; the capacity of
            edge (v, parent(v)) is the exact capacity of the cut that
            T_v induces in the input graph.
        levels: Number of j-tree recursion levels used.
        cluster_counts: Core size after each level (diagnostics; the
            paper predicts geometric decay by factor ~β).
        phases: Total SplitGraph phases consumed (round accounting).
        sparsifier_rounds: Total sparsifier peeling rounds.
    """

    tree: RootedTree
    levels: int
    cluster_counts: list[int] = field(default_factory=list)
    phases: int = 0
    sparsifier_rounds: int = 0


def _finish_with_spanning_tree(
    cg: ClusterGraph, rng: np.random.Generator
) -> tuple[ClusterGraph, int]:
    """Collapse the remaining core with one low-stretch spanning tree;
    returns the one-cluster graph and the AKPW phases spent."""
    quotient = cg.quotient
    lengths = 1.0 / quotient.capacities()
    lsst = akpw_spanning_tree(quotient, lengths=lengths, rng=rng)
    merged = cg.merge_along_forest(
        forest_parent=lsst.tree.parent,
        forest_edge=lsst.tree.parent_edge.tolist(),
        new_quotient=Graph(1),
        new_edge_origin=[],
        component_of=[0] * quotient.num_nodes,
    )
    return merged, lsst.phases


def _sparsify_core(
    cg: ClusterGraph, rng: np.random.Generator
) -> tuple[ClusterGraph, int]:
    """Sparsify the core to Õ(N) edges when it is above the Lemma 6.1
    target; returns the cluster graph and the peeling rounds spent."""
    quotient = cg.quotient
    target = sparsification_target(quotient.num_nodes, 0.5)
    if quotient.num_edges <= target:
        return cg, 0
    result = sparsify(quotient, rng=rng, target_edges=target)
    sparse = ClusterGraph(
        base=cg.base,
        assignment=cg.assignment,
        parent=cg.parent,
        roots=cg.roots,
        quotient=result.graph,
        edge_origin=[cg.edge_origin[e] for e in result.edge_origin],
    )
    return sparse, result.rounds


def _merge_level(cg: ClusterGraph, step: JTreeStep) -> ClusterGraph:
    """Merge the clusters along the sampled j-tree's forest; its core
    becomes the next level's quotient."""
    if step.num_components >= cg.num_clusters:
        raise GraphError("j-tree step made no progress")
    if len(step.core_cap) and float(step.core_cap.min()) <= 0:
        raise GraphError("j-tree core produced a non-positive capacity")
    new_quotient = Graph._from_trusted_arrays(
        step.num_components, step.core_u, step.core_v, step.core_cap
    )
    # Cores stay connected through sparsify (spanner skeleton) and
    # contraction; seeding saves one BFS per downstream AKPW call.
    new_quotient._connected_cache = True
    new_origin = (
        np.asarray(cg.edge_origin, dtype=np.int64)[step.core_origin].tolist()
    )
    return cg.merge_along_forest(
        forest_parent=step.forest_parent,
        forest_edge=step.forest_edge,
        new_quotient=new_quotient,
        new_edge_origin=new_origin,
        component_of=step.component_of,
    )


def sample_virtual_tree(
    graph: Graph,
    rng: np.random.Generator | int | None = None,
    params: HierarchyParams | None = None,
) -> VirtualTree:
    """Sample one virtual tree from the recursive distribution.

    Args:
        graph: Connected capacitated input graph G.
        rng: Randomness source.
        params: Hierarchy tunables.

    Returns:
        A :class:`VirtualTree` whose ``tree`` spans G.

    Raises:
        GraphError: On disconnected input, a stalled j-tree step, or
            ``max_levels`` exhaustion.
    """
    graph.require_connected()
    rng = as_generator(rng)
    params = params or HierarchyParams()
    if graph.num_nodes == 1:
        return VirtualTree(tree=RootedTree([-1]), levels=0)
    beta = params.resolved_beta(graph.num_nodes)
    threshold = params.resolved_threshold(graph.num_nodes)
    cg = ClusterGraph.trivial(graph)
    cluster_counts = [cg.num_clusters]
    phases = 0
    sparsifier_rounds = 0
    levels = 0
    while cg.num_clusters > threshold and levels < params.max_levels:
        if params.sparsify_cores:
            cg, rounds = _sparsify_core(cg, rng)
            sparsifier_rounds += rounds
        quotient = cg.quotient
        j = max(1, int(quotient.num_nodes / (4.0 * beta)))
        tree_phases, weights, _ = mwu_tree_phases(
            quotient,
            j,
            params.trees_per_level,
            rng=rng,
            removal_policy=params.removal_policy,
        )
        index = int(rng.choice(len(tree_phases), p=weights))
        step = finish_jtree_step(quotient, tree_phases[index])
        phases += sum(phase.phases for phase in tree_phases)
        cg = _merge_level(cg, step)
        cluster_counts.append(cg.num_clusters)
        levels += 1
    if cg.num_clusters > threshold:
        raise GraphError(
            f"hierarchy exhausted max_levels={params.max_levels} "
            f"with {cg.num_clusters} clusters still above the "
            f"threshold {threshold}"
        )
    if cg.num_clusters > 1:
        cg, lsst_phases = _finish_with_spanning_tree(cg, rng)
        phases += lsst_phases
        cluster_counts.append(1)
    tree = RootedTree(cg.parent)
    tree.capacity[:] = induced_cut_capacities(graph, tree)
    return VirtualTree(
        tree=tree,
        levels=levels,
        cluster_counts=cluster_counts,
        phases=phases,
        sparsifier_rounds=sparsifier_rounds,
    )


def sample_virtual_trees(
    graph: Graph,
    num_samples: int,
    rng: np.random.Generator | int | None = None,
    params: HierarchyParams | None = None,
) -> list[VirtualTree]:
    """Sample ``num_samples`` independent virtual trees (Lemma 3.3).

    Args:
        graph: Connected capacitated input graph G.
        num_samples: How many trees to draw (the O(log n) of Lemma 3.3).
        rng: Randomness source; each sample runs
            :func:`sample_virtual_tree` on its own child generator
            spawned from it.
        params: Hierarchy tunables (shared across samples).

    Returns:
        A list of ``num_samples`` :class:`VirtualTree` objects.
    """
    graph.require_connected()
    rng = as_generator(rng)
    if num_samples <= 0:
        return []
    return [
        sample_virtual_tree(graph, rng=child, params=params)
        for child in spawn(rng, num_samples)
    ]

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

Batched sampling
----------------

Lemma 3.3 needs O(log n) *independent* samples, and
:func:`sample_virtual_trees` draws them all in one level-synchronous
pass instead of running the recursion once per sample:

* every sample advances through the same level structure in lockstep,
  each driven by its own child generator (spawned exactly as the
  legacy per-tree loop spawns them, so the two paths are
  draw-for-draw identical — the golden tests pin this);
* samples whose recursion paths still coincide (they hold the *same*
  core object — always true at level 0, where the cores are the
  shared input graph and its cached CSR) have their per-iteration MWU
  length updates computed as one stacked ``(num_samples × num_edges)``
  NumPy evaluation (:func:`repro.jtree.mwu.mwu_lengths`) instead of a
  Python loop per tree;
* the level-0 core is *shared*, not copied, per sample: nothing in the
  recursion mutates a core, so all samples reuse the input graph's
  cached CSR/adjacency/connectivity instead of re-deriving them;
* within a level, only the **sampled** MWU iteration pays for
  skeleton/portals/core-edge materialization: each iteration keeps
  only its cheap :class:`~repro.jtree.madry.TreePhase`, and
  :func:`~repro.jtree.madry.finish_jtree_step` — deterministic,
  consuming no randomness — runs once per level on the sampled phase
  (the same lazy loop :func:`repro.jtree.mwu.sample_jtree_step`
  exposes for a single quotient).

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
from repro.jtree.madry import finish_jtree_step, madry_tree_phase
from repro.jtree.mwu import mwu_lengths, _mwu_lambda
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
    cg: ClusterGraph, rng: np.random.Generator, phases_acc: list[int]
) -> ClusterGraph:
    """Collapse the remaining core with one low-stretch spanning tree."""
    quotient = cg.quotient
    lengths = 1.0 / quotient.capacities()
    lsst = akpw_spanning_tree(quotient, lengths=lengths, rng=rng)
    phases_acc.append(lsst.phases)
    tree = lsst.tree
    chosen_by_pair: dict[tuple[int, int], int] = {}
    for eid in lsst.tree_edges:
        u, v = quotient.endpoints(eid)
        chosen_by_pair[(min(u, v), max(u, v))] = eid
    forest_parent = list(tree.parent)
    forest_edge = [-1] * quotient.num_nodes
    for c in range(quotient.num_nodes):
        p = tree.parent[c]
        if p >= 0:
            forest_edge[c] = chosen_by_pair[(min(c, p), max(c, p))]
    single = Graph(1)
    return cg.merge_along_forest(
        forest_parent=forest_parent,
        forest_edge=forest_edge,
        new_quotient=single,
        new_edge_origin=[],
        component_of=[0] * quotient.num_nodes,
    )


class _SampleState:
    """One virtual-tree sample's recursion state, advanced level by
    level so the batched driver can run many samples in lockstep.

    The methods partition one level of the legacy loop into
    ``level_begin`` (sparsify + MWU init), ``mwu_iterate`` (one Madry
    tree phase; the caller supplies the lengths so it can compute them
    stacked across samples), and ``level_end`` (sample the iteration,
    finish it, merge the cluster graph). Each sample owns its
    generator, so any interleaving across samples leaves the
    per-sample draw sequences — and therefore the outputs — identical
    to running the samples one after another.
    """

    __slots__ = (
        "rng",
        "params",
        "beta",
        "threshold",
        "cg",
        "cluster_counts",
        "phases_acc",
        "sparsifier_rounds",
        "levels",
        "quotient",
        "origin",
        "j",
        "caps",
        "potentials",
        "tree_phases",
        "raw_weights",
        "weight_total",
    )

    def __init__(
        self,
        cg: ClusterGraph,
        rng: np.random.Generator,
        params: HierarchyParams,
        beta: float,
        threshold: int,
    ) -> None:
        self.rng = rng
        self.params = params
        self.beta = beta
        self.threshold = threshold
        self.cg = cg
        self.cluster_counts = [cg.num_clusters]
        self.phases_acc: list[int] = []
        self.sparsifier_rounds = 0
        self.levels = 0

    def active(self) -> bool:
        return (
            self.cg.num_clusters > self.threshold
            and self.levels < self.params.max_levels
        )

    def level_begin(self) -> None:
        """Sparsify the core if needed and reset the MWU accumulators."""
        quotient, origin = self.cg.quotient, self.cg.edge_origin
        if self.params.sparsify_cores:
            target = sparsification_target(quotient.num_nodes, 0.5)
            if quotient.num_edges > target:
                result = sparsify(quotient, rng=self.rng, target_edges=target)
                self.sparsifier_rounds += result.rounds
                origin = [origin[e] for e in result.edge_origin]
                quotient = result.graph
                self.cg = ClusterGraph(
                    base=self.cg.base,
                    assignment=self.cg.assignment,
                    parent=self.cg.parent,
                    roots=self.cg.roots,
                    quotient=quotient,
                    edge_origin=origin,
                )
        self.quotient = quotient
        self.origin = origin
        self.j = max(1, int(quotient.num_nodes / (4.0 * self.beta)))
        self.caps = quotient.capacities()
        self.potentials = np.zeros(quotient.num_edges)
        self.tree_phases = []
        self.raw_weights = []
        self.weight_total = 0.0

    def mwu_needs_iteration(self) -> bool:
        return (
            len(self.tree_phases) < self.params.trees_per_level
            and self.weight_total < 1.0
        )

    def mwu_iterate(self, lengths: np.ndarray) -> None:
        """One Madry tree phase with the supplied MWU lengths."""
        phase = madry_tree_phase(
            self.quotient,
            lengths,
            self.j,
            rng=self.rng,
            removal_policy=self.params.removal_policy,
        )
        lam, _ = _mwu_lambda(
            self.weight_total, float(phase.rload_per_edge.max())
        )
        self.tree_phases.append(phase)
        self.raw_weights.append(lam)
        self.weight_total += lam
        self.potentials = self.potentials + lam * phase.rload_per_edge

    def level_end(self) -> None:
        """Sample one iteration, finish it, and merge the level."""
        weights = np.asarray(self.raw_weights, dtype=float)
        weights = weights / weights.sum()
        index = int(self.rng.choice(len(self.tree_phases), p=weights))
        step = finish_jtree_step(self.quotient, self.tree_phases[index])
        self.phases_acc.append(sum(p.phases for p in self.tree_phases))
        if step.num_components >= self.cg.num_clusters:
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
            np.asarray(self.origin, dtype=np.int64)[step.core_origin].tolist()
        )
        self.cg = self.cg.merge_along_forest(
            forest_parent=step.forest_parent,
            forest_edge=step.forest_edge,
            new_quotient=new_quotient,
            new_edge_origin=new_origin,
            component_of=step.component_of,
        )
        self.cluster_counts.append(self.cg.num_clusters)
        self.levels += 1

    def finish(self, graph: Graph) -> VirtualTree:
        """Collapse any remainder and materialize the virtual tree."""
        if self.cg.num_clusters > self.threshold:
            raise GraphError(
                f"hierarchy exhausted max_levels={self.params.max_levels} "
                f"with {self.cg.num_clusters} clusters still above the "
                f"threshold {self.threshold}"
            )
        if self.cg.num_clusters > 1:
            self.cg = _finish_with_spanning_tree(
                self.cg, self.rng, self.phases_acc
            )
            self.cluster_counts.append(1)
        tree = RootedTree(self.cg.parent)
        capacities = induced_cut_capacities(graph, tree)
        tree = RootedTree(self.cg.parent, capacities)
        return VirtualTree(
            tree=tree,
            levels=self.levels,
            cluster_counts=self.cluster_counts,
            phases=sum(self.phases_acc),
            sparsifier_rounds=self.sparsifier_rounds,
        )


def _run_level_sequential(state: _SampleState) -> None:
    state.level_begin()
    while state.mwu_needs_iteration():
        state.mwu_iterate(mwu_lengths(state.potentials, state.caps))
    state.level_end()


def _make_states(
    graph: Graph,
    rngs: list[np.random.Generator],
    params: HierarchyParams,
) -> list[_SampleState]:
    n = graph.num_nodes
    beta = params.resolved_beta(n)
    threshold = params.resolved_threshold(n)
    shared = ClusterGraph.trivial(graph, share_quotient=True)
    return [
        _SampleState(shared, rng, params, beta, threshold) for rng in rngs
    ]


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
    state = _make_states(graph, [rng], params)[0]
    while state.active():
        _run_level_sequential(state)
    return state.finish(graph)


def sample_virtual_trees(
    graph: Graph,
    num_samples: int,
    rng: np.random.Generator | int | None = None,
    params: HierarchyParams | None = None,
    batched: bool = True,
) -> list[VirtualTree]:
    """Sample ``num_samples`` independent virtual trees (Lemma 3.3).

    Args:
        graph: Connected capacitated input graph G.
        num_samples: How many trees to draw (the O(log n) of Lemma 3.3).
        rng: Randomness source; each sample runs on its own child
            generator spawned from it, exactly as the per-tree loop
            would.
        params: Hierarchy tunables (shared across samples).
        batched: Run all samples level-synchronously, sharing coinciding
            cores and stacking the MWU length updates (the default).
            ``False`` runs the samples one after another — kept as the
            reference path; both produce identical trees for a fixed
            seed (golden-tested).

    Returns:
        A list of ``num_samples`` :class:`VirtualTree` objects.
    """
    graph.require_connected()
    rng = as_generator(rng)
    params = params or HierarchyParams()
    if num_samples <= 0:
        return []
    children = spawn(rng, num_samples)
    if graph.num_nodes == 1:
        return [
            VirtualTree(tree=RootedTree([-1]), levels=0) for _ in children
        ]
    if not batched:
        return [
            sample_virtual_tree(graph, rng=child, params=params)
            for child in children
        ]
    states = _make_states(graph, children, params)
    active = [s for s in states if s.active()]
    while active:
        for state in active:
            state.level_begin()
        # MWU iterations in lockstep: samples holding the *same* core
        # object get their length updates computed as one stacked
        # (num_samples × num_edges) evaluation.
        pending = [s for s in active if s.mwu_needs_iteration()]
        while pending:
            groups: dict[int, list[_SampleState]] = {}
            for state in pending:
                groups.setdefault(id(state.quotient), []).append(state)
            for group in groups.values():
                if len(group) > 1:
                    stacked = mwu_lengths(
                        np.stack([s.potentials for s in group]),
                        group[0].caps,
                    )
                    for row, state in zip(stacked, group):
                        state.mwu_iterate(row)
                else:
                    state = group[0]
                    state.mwu_iterate(
                        mwu_lengths(state.potentials, state.caps)
                    )
            pending = [s for s in pending if s.mwu_needs_iteration()]
        for state in active:
            state.level_end()
        active = [s for s in states if s.active()]
    return [state.finish(graph) for state in states]

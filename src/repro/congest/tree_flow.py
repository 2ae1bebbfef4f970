"""Distributed tree-flow aggregation (paper Lemma 8.1) on the simulator.

Lemma 8.1 computes, for every edge of a rooted spanning tree, the total
capacity |f'| of graph edges crossing the cut induced by its subtree —
the tree capacities of Madry's construction. The distributed algorithm:

1. every node learns its list of tree ancestors (round r: each node
   forwards its (r)-th ancestor to its children — one id per round,
   O(depth) rounds);
2. endpoints of every graph edge exchange ancestor lists (pipelined one
   id per round over the edge);
3. each node locally computes, for each ancestor a, the capacity of its
   incident edges whose other endpoint lies *outside* a's subtree
   (checked against the exchanged ancestor lists);
4. a pipelined convergecast sums these per-ancestor contributions up
   the tree; the value arriving at (v, parent(v)) is exactly
   cut(T_v) = |f'(v, parent v)|.

Everything is message-faithful: each message carries O(1) ids, so the
whole computation takes O(depth + #ancestors) = O(depth) round-ish
windows, matching Lemma 8.1's O(d) bound. Tests compare the result
against the centralized :func:`repro.graphs.trees.induced_cut_capacities`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.congest.model import CongestNetwork, Message, NodeContext
from repro.errors import TreeError
from repro.graphs.graph import Graph
from repro.graphs.trees import RootedTree

__all__ = ["TreeFlowRun", "distributed_tree_flow"]


@dataclass
class TreeFlowRun:
    """Result of the distributed |f'| computation.

    Attributes:
        cut_capacity: Per child node v, the computed capacity of the
            cut induced by T_v (index = child node id).
        rounds: Synchronous rounds used.
    """

    cut_capacity: np.ndarray
    rounds: int


class _TreeFlowNode:
    """Node program implementing Lemma 8.1's four phases.

    The phase schedule is time-driven with window ``W`` = a bound on
    the tree depth: ancestor learning takes W rounds, the pairwise
    ancestor-list exchange W rounds (one id per round per edge), and
    the pipelined convergecast W + depth rounds.
    """

    def __init__(
        self,
        node: int,
        tree: RootedTree,
        edge_map: list[int],
        window: int,
    ) -> None:
        self.node = node
        self.tree = tree
        self.edge_map = edge_map  # child -> graph edge to parent
        self.window = window
        self.ancestors: list[int] = []  # nearest first
        self._children: list[int] = []
        self._child_edges: dict[int, int] = {}
        self._round = 0
        # Per incident graph edge: the other endpoint's ancestor set.
        self._neighbor_ancestors: dict[int, set[int]] = {}
        self._neighbor_caps: dict[int, float] = {}
        self._neighbor_id: dict[int, int] = {}
        # Convergecast state: per-ancestor-index accumulated sums.
        self._contribution: list[float] = []
        self._received: list[int] = []
        self._next_to_send = 0
        #: Output: the cut capacity for this node's parent edge.
        self.cut_value: float | None = None

    def init(self, ctx: NodeContext) -> None:
        parent = self.tree.parent[self.node]
        if parent >= 0:
            self.ancestors = [parent]
        for child in range(self.tree.num_nodes):
            if self.tree.parent[child] == self.node:
                self._children.append(child)
                self._child_edges[child] = self.edge_map[child]
        for nbr, eid, cap in ctx.incident:
            self._neighbor_ancestors[eid] = {nbr}
            self._neighbor_caps[eid] = cap
            self._neighbor_id[eid] = nbr

    # ------------------------------------------------------------------
    def on_round(self, ctx: NodeContext, inbox: Sequence[Message]) -> bool:
        w = self.window
        step = self._round
        for msg in inbox:
            kind = msg.payload[0]
            if kind == "anc":
                # Parent forwards its (k)-th ancestor; append if new.
                ancestor = int(msg.payload[1])
                if ancestor >= 0 and ancestor not in self.ancestors:
                    self.ancestors.append(ancestor)
            elif kind == "alist":
                self._neighbor_ancestors[msg.edge].add(int(msg.payload[1]))
            elif kind == "sum":
                index, amount = int(msg.payload[1]), float(msg.payload[2])
                self._ensure_contributions()
                if index < len(self._contribution):
                    self._contribution[index] += amount
                self._received[index] += 1

        # Phase 1 (rounds 0 .. w-1): ancestor dissemination. In round
        # r, send your r-th ancestor (if any) to every child.
        if step < w:
            if step < len(self.ancestors):
                ancestor = self.ancestors[step]
                for child in self._children:
                    ctx.send(self._child_edges[child], ("anc", ancestor))
        # Phase 2 (rounds w .. 2w-1): exchange ancestor lists pairwise.
        elif step < 2 * w:
            k = step - w
            if k < len(self.ancestors):
                for _, eid, _ in ctx.incident:
                    ctx.send(eid, ("alist", self.ancestors[k]))
        # Phase 3+4 (rounds >= 2w): pipelined convergecast, one
        # ancestor index per round once all children reported it.
        else:
            self._ensure_contributions()
            chain = [self.node] + self.ancestors
            if (
                self._next_to_send < len(self._contribution)
                and self._received[self._next_to_send]
                >= self._expected_reports(self._next_to_send)
            ):
                i = self._next_to_send
                total = self._contribution[i]
                target = chain[i]  # the subtree root this sum belongs to
                if target == self.node:
                    # Completed: this is cut(T_node).
                    self.cut_value = total
                else:
                    # Forward to the parent, re-indexed for its chain.
                    parent = self.tree.parent[self.node]
                    ctx.send(
                        self.edge_map[self.node], ("sum", i - 1, total)
                    )
                self._next_to_send += 1
        self._round += 1
        done = self._next_to_send >= len(self._contribution or [0])
        return step >= 2 * w and done and self._round > 2 * w + 1

    # ------------------------------------------------------------------
    def _ensure_contributions(self) -> None:
        if self._contribution:
            return
        # contribution[i] = capacity of incident edges leaving the
        # subtree of chain[i] (chain[0] = self, then ancestors).
        chain = [self.node] + self.ancestors
        self._contribution = [0.0] * len(chain)
        self._received = [0] * len(chain)
        for eid, other_ancestors in self._neighbor_ancestors.items():
            cap = self._neighbor_caps[eid]
            other_chain = other_ancestors | {self._neighbor_id[eid]}
            for i, subtree_root in enumerate(chain):
                # Edge leaves T_root iff the other endpoint is not in
                # T_root, i.e. root is not among the other endpoint's
                # ancestors-or-self.
                if subtree_root not in other_chain:
                    self._contribution[i] += cap

    def _expected_reports(self, index: int) -> int:
        # Child v reports its chain position index+1 sums... every
        # child forwards exactly one "sum" per index; children's index
        # i+1 maps to our index i, so we expect len(children) reports
        # for every index except the deepest ones children lack. For
        # simplicity, expect a report from each child whose subtree
        # depth reaches this ancestor — children always have the
        # ancestor (it is an ancestor of theirs too), so:
        return len(self._children)


def distributed_tree_flow(
    graph: Graph,
    tree: RootedTree,
    network: CongestNetwork | None = None,
    max_rounds: int = 500_000,
) -> TreeFlowRun:
    """Compute induced-cut capacities distributedly (Lemma 8.1).

    Args:
        graph: The host graph; capacities are the |f'| weights.
        tree: A rooted spanning tree built from the graph's edges (such
            as :func:`~repro.graphs.trees.bfs_tree`); each node talks
            to its parent over ``tree.parent_edge``.
        network: Optional simulator (a fresh one is built otherwise).
        max_rounds: Safety cap.

    Returns:
        A :class:`TreeFlowRun`; ``cut_capacity[v]`` equals the
        centralized ``induced_cut_capacities(graph, tree)[v]`` for
        every non-root v (verified in tests).

    Raises:
        TreeError: If the tree records no graph edges.
    """
    if tree.parent_edge is None:
        raise TreeError("tree records no graph edges to send messages on")
    edge_map = tree.parent_edge.tolist()
    window = tree.height() + 1
    net = network or CongestNetwork(graph)
    result = net.run(
        lambda v: _TreeFlowNode(v, tree, edge_map, window),
        max_rounds=max_rounds,
    )
    cuts = np.zeros(graph.num_nodes)
    for v, state in enumerate(result.states):
        if tree.parent[v] >= 0 and state.cut_value is not None:
            cuts[v] = state.cut_value
    return TreeFlowRun(cut_capacity=cuts, rounds=result.rounds)

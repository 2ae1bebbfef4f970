"""Broadcast, convergecast, and pipelined aggregation on a tree.

These are the communication primitives behind the paper's Lemma 5.1
("k independent convergecasts or broadcasts on a depth-D tree complete
in D + k rounds, using pipelining") and behind every `R·b` / `Rᵀ·y`
product in Section 9. All three run for real on the CONGEST simulator
so their round counts can be measured and compared with the stated
bounds.

All primitives take a precomputed rooted tree that records each
node's parent edge, as :func:`~repro.congest.bfs.build_bfs_tree`
returns it, and raise :class:`~repro.errors.TreeError` for one that
does not. Node ``v``'s program gets ``edge_map`` (``edge_map[u]`` is
the graph edge from ``u`` to its parent) and its own child list:
local knowledge, exactly as the paper assumes after BFS construction.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import CongestModelError, TreeError
from repro.congest.model import CongestNetwork, Message, NodeContext
from repro.graphs.graph import Graph
from repro.graphs.trees import RootedTree

__all__ = [
    "BroadcastNode",
    "ConvergecastSumNode",
    "PipelinedAggregationNode",
    "broadcast",
    "convergecast_sum",
    "pipelined_aggregate",
]


def _tree_links(tree: RootedTree) -> tuple[list[int], list[list[int]]]:
    """The tree's parent edge per node (``-1`` at the root) and its
    child lists, read once per run."""
    if tree.parent_edge is None:
        raise TreeError("tree records no graph edges to send messages on")
    return tree.parent_edge.tolist(), tree.children()


class BroadcastNode:
    """Flood a value from the root down a given tree. Terminates when
    the value is known and forwarded; total rounds = tree height + O(1)."""

    def __init__(
        self, node: int, tree: RootedTree, edge_map: list[int],
        children: list[int], value: Any = None,
    ) -> None:
        self.node = node
        self.tree = tree
        self.edge_map = edge_map
        self.value = value if node == tree.root else None
        self._forwarded = False
        self._child_edges = [edge_map[child] for child in children]

    def init(self, ctx: NodeContext) -> None:
        pass

    def on_round(self, ctx: NodeContext, inbox: Sequence[Message]) -> bool:
        if self.value is None:
            for msg in inbox:
                if msg.edge == self.edge_map[self.node]:
                    self.value = msg.payload
        if self.value is not None and not self._forwarded:
            for eid in self._child_edges:
                ctx.send(eid, self.value)
            self._forwarded = True
            return False
        return self._forwarded


class ConvergecastSumNode:
    """Sum values up a tree: each node forwards (its value + all
    children's sums) once every child has reported. The root ends up
    with the global sum; rounds = tree height + O(1)."""

    def __init__(
        self, node: int, tree: RootedTree, edge_map: list[int],
        children: list[int], value: float,
    ) -> None:
        self.node = node
        self.tree = tree
        self.edge_map = edge_map
        self.value = float(value)
        self.result: float | None = None
        self._pending_children = set(children)
        self._sent = False

    def init(self, ctx: NodeContext) -> None:
        pass

    def on_round(self, ctx: NodeContext, inbox: Sequence[Message]) -> bool:
        for msg in inbox:
            if msg.sender in self._pending_children:
                self.value += float(msg.payload)
                self._pending_children.discard(msg.sender)
        if not self._pending_children and not self._sent:
            if self.node == self.tree.root:
                self.result = self.value
            else:
                ctx.send(self.edge_map[self.node], self.value)
            self._sent = True
            return False
        return self._sent


class PipelinedAggregationNode:
    """Pipelined convergecast of k independent sums (Lemma 5.1's
    "D + k rounds" claim).

    Each node holds a k-vector. Sums are computed coordinate by
    coordinate, one coordinate injected into the pipe per round: a node
    forwards coordinate i once all children's coordinate-i reports have
    arrived. Since children finish coordinate i at most one round after
    coordinate i-1, the pipeline drains in height + k + O(1) rounds.
    """

    def __init__(
        self,
        node: int,
        tree: RootedTree,
        edge_map: list[int],
        children: list[int],
        values: Sequence[float],
    ) -> None:
        self.node = node
        self.tree = tree
        self.edge_map = edge_map
        self.values = [float(x) for x in values]
        self.k = len(self.values)
        self.result: list[float] | None = None
        self._received = [0] * self.k
        self._next_to_send = 0
        self._num_children = len(children)

    def init(self, ctx: NodeContext) -> None:
        pass

    def on_round(self, ctx: NodeContext, inbox: Sequence[Message]) -> bool:
        for msg in inbox:
            index, amount = msg.payload
            self.values[index] += float(amount)
            self._received[index] += 1
        # Send the lowest coordinate whose children have all reported.
        if (
            self._next_to_send < self.k
            and self._received[self._next_to_send] == self._num_children
        ):
            i = self._next_to_send
            if self.node != self.tree.root:
                ctx.send(self.edge_map[self.node], (i, self.values[i]))
            self._next_to_send += 1
        finished = self._next_to_send >= self.k
        if finished and self.node == self.tree.root:
            self.result = list(self.values)
        return finished


def broadcast(
    graph: Graph,
    tree: RootedTree,
    value: Any,
    network: CongestNetwork | None = None,
) -> tuple[list[Any], int]:
    """Broadcast ``value`` from the tree root; returns (per-node values,
    rounds)."""
    edge_map, children = _tree_links(tree)
    net = network or CongestNetwork(graph)
    result = net.run(
        lambda v: BroadcastNode(v, tree, edge_map, children[v], value)
    )
    return [state.value for state in result.states], result.rounds


def convergecast_sum(
    graph: Graph,
    tree: RootedTree,
    values: Sequence[float],
    network: CongestNetwork | None = None,
) -> tuple[float, int]:
    """Sum per-node values at the root; returns (sum, rounds)."""
    edge_map, children = _tree_links(tree)
    net = network or CongestNetwork(graph)
    result = net.run(
        lambda v: ConvergecastSumNode(
            v, tree, edge_map, children[v], values[v]
        )
    )
    root_state = result.states[tree.root]
    if root_state.result is None:
        raise CongestModelError(
            "convergecast finished without delivering a sum to the root"
        )
    return float(root_state.result), result.rounds


def pipelined_aggregate(
    graph: Graph,
    tree: RootedTree,
    values: Sequence[Sequence[float]],
    network: CongestNetwork | None = None,
) -> tuple[list[float], int]:
    """Compute k independent sums (values[v] is node v's k-vector) with
    pipelining; returns (k sums at the root, rounds ≈ height + k)."""
    edge_map, children = _tree_links(tree)
    net = network or CongestNetwork(graph)
    result = net.run(
        lambda v: PipelinedAggregationNode(
            v, tree, edge_map, children[v], values[v]
        )
    )
    root_state = result.states[tree.root]
    if root_state.result is None:
        raise CongestModelError(
            "pipelined aggregation finished without a result at the root"
        )
    return list(root_state.result), result.rounds

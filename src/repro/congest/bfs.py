"""Distributed BFS-tree construction.

The global BFS tree is the paper's workhorse for long-distance
communication (Lemma 5.1, Section 9): broadcasts, convergecasts, and
pipelined aggregations all run over it. A BFS tree rooted at ``r``
completes in at most ``ecc(r) + 1 <= D + 1`` rounds — a bound the test
suite verifies on the simulator.
"""

from __future__ import annotations

from typing import Sequence

from repro.congest.model import CongestNetwork, Message, NodeContext
from repro.graphs.graph import Graph
from repro.graphs.trees import RootedTree

__all__ = ["BFSNode", "build_bfs_tree"]


class BFSNode:
    """Per-node state machine for BFS-tree construction.

    Round 1: the root announces itself. Each node adopts the first
    announcer as parent (ties broken by sender id) and re-announces the
    next round. A node terminates one round after announcing.

    Attributes (outputs):
        parent: Parent node id (-1 at the root, None if never reached).
        parent_edge: Edge id to the parent.
        level: BFS level (hop distance from root).
    """

    def __init__(self, node: int, root: int) -> None:
        self.node = node
        self.root = root
        self.parent: int | None = -1 if node == root else None
        self.parent_edge: int | None = None
        self.level: int | None = 0 if node == root else None
        self._announced = False

    def init(self, ctx: NodeContext) -> None:
        pass

    def on_round(self, ctx: NodeContext, inbox: Sequence[Message]) -> bool:
        if self.level is None:
            offers = [
                msg for msg in inbox if isinstance(msg.payload, tuple)
                and msg.payload[0] == "bfs"
            ]
            if offers:
                best = min(offers, key=lambda m: m.sender)
                self.parent = best.sender
                self.parent_edge = best.edge
                self.level = int(best.payload[1]) + 1
        if self.level is not None and not self._announced:
            ctx.send_to_all_neighbors(("bfs", self.level))
            self._announced = True
            return False
        return self._announced


def build_bfs_tree(
    graph: Graph, root: int = 0, network: CongestNetwork | None = None
) -> tuple[RootedTree, int]:
    """Build a BFS tree on the CONGEST simulator.

    Returns:
        ``(tree, rounds)`` — the rooted tree, whose ``parent_edge``
        holds the edge each node adopted its parent over, and the
        number of synchronous rounds the construction took
        (≤ ecc(root) + 2).
    """
    net = network or CongestNetwork(graph)
    result = net.run(lambda v: BFSNode(v, root))
    parent = [state.parent if state.parent is not None else -2
              for state in result.states]
    parent_edge = [-1 if state.parent_edge is None else state.parent_edge
                   for state in result.states]
    tree = RootedTree(parent, parent_edge=parent_edge)
    return tree, result.rounds

"""Synchronous CONGEST-model simulator.

Implements the model of the paper's Section 1.1: ``n`` nodes, each
knowing only its own identifier and incident edges; synchronous rounds;
``O(log n)``-bit messages per edge per direction per round.

The simulator is message-faithful: every message a node sends is
size-checked against the bandwidth budget (a configurable number of
"words", each standing for an O(log n)-bit field), and delivery happens
strictly at the next round boundary. Algorithms are written as per-node
state machines (:class:`NodeAlgorithm`); the network runs them in
lockstep and counts rounds.

Only the *primitives* (BFS, broadcast, convergecast, pipelining,
push-relabel) run on this simulator — the full Sherman pipeline would
need Θ(rounds · m) simulated messages, which is exactly why the paper's
round accounting is composed analytically in :mod:`repro.congest.cost`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Protocol, Sequence

from repro.errors import (
    CongestModelError,
    MessageTooLargeError,
    RoundLimitExceededError,
)
from repro.graphs.graph import Graph

__all__ = [
    "Message",
    "NodeContext",
    "NodeAlgorithm",
    "CongestNetwork",
    "RunResult",
    "message_words",
]

#: Default number of O(log n)-bit words a single message may carry.
#: CONGEST allows O(log n) bits; a small constant number of id-sized
#: fields is the standard reading.
DEFAULT_WORDS_PER_MESSAGE = 4


def message_words(payload: Any) -> int:  # repolint: disable=no-recursion -- depth is the nesting of a CONGEST message payload, not the size of the graph
    """Count the O(log n)-bit words a payload occupies.

    Ints, floats, bools, None and short strings count as one word each;
    tuples/lists count the sum of their elements. This is the unit the
    bandwidth check uses.
    """
    if payload is None or isinstance(payload, (int, float, bool)):
        return 1
    if isinstance(payload, str):
        # A string is packed into 8-byte words.
        return max(1, math.ceil(len(payload) / 8))
    if isinstance(payload, (tuple, list)):
        return sum(message_words(item) for item in payload)
    if isinstance(payload, dict):
        return sum(
            message_words(k) + message_words(v) for k, v in payload.items()
        )
    raise CongestModelError(
        f"unsupported message payload type {type(payload).__name__}"
    )


@dataclass(frozen=True)
class Message:
    """A message delivered to a node.

    Attributes:
        sender: Node id of the sender.
        edge: Edge id it arrived on.
        payload: The content (ints/floats/tuples...).
    """

    sender: int
    edge: int
    payload: Any


class NodeContext:
    """Per-node view of the network handed to algorithms.

    Nodes may inspect only local information: their id, their incident
    edges (with capacities), and the total node count (standard
    assumption; n or a poly upper bound is known to all nodes).
    """

    def __init__(self, network: "CongestNetwork", node: int) -> None:
        self._network = network
        self.node = node
        self.num_nodes = network.graph.num_nodes
        #: list of (neighbor, edge_id, capacity) for incident edges.
        self.incident: list[tuple[int, int, float]] = [
            (nbr, eid, network.graph.capacity(eid))
            for nbr, eid in network.graph.neighbors(node)
        ]

    def send(self, edge: int, payload: Any) -> None:
        """Queue ``payload`` on ``edge`` for delivery next round.

        Raises:
            MessageTooLargeError: If the payload exceeds the per-edge
                word budget.
            CongestModelError: If a second message is queued on the same
                edge in one round, or the edge is not incident.
        """
        self._network._queue_send(self.node, edge, payload)

    def send_to_all_neighbors(self, payload: Any) -> None:
        """Queue the same payload on every incident edge."""
        for _, eid, _ in self.incident:
            self.send(eid, payload)


class NodeAlgorithm(Protocol):
    """Per-node synchronous state machine.

    Implementations hold the *local* state of one node. The network
    calls :meth:`on_round` once per node per round with the messages
    delivered this round; the node queues sends via the context. A node
    signals local termination by returning True; the run stops when all
    nodes have terminated (or the algorithm class overrides
    :meth:`is_done` semantics via quiescence detection in the runner).
    """

    def init(self, ctx: NodeContext) -> None:
        """Called once before round 1."""
        ...

    def on_round(self, ctx: NodeContext, inbox: Sequence[Message]) -> bool:
        """Execute one round; return True when locally terminated."""
        ...


@dataclass
class RunResult:
    """Outcome of a simulated run.

    Attributes:
        rounds: Number of synchronous rounds executed.
        messages_sent: Total messages delivered over the run.
        max_words_per_round: Peak total words sent in any single round.
        states: The per-node algorithm objects (to read out results).
    """

    rounds: int
    messages_sent: int
    max_words_per_round: int
    states: list[Any] = field(default_factory=list)


class CongestNetwork:
    """Synchronous network over an undirected :class:`Graph`.

    Args:
        graph: The communication topology (capacities are visible to
            endpoints as edge attributes, per the paper's model).
        words_per_message: Bandwidth budget per edge per direction per
            round, in O(log n)-bit words.
    """

    def __init__(
        self, graph: Graph, words_per_message: int = DEFAULT_WORDS_PER_MESSAGE
    ) -> None:
        graph.require_connected()
        self.graph = graph
        self.words_per_message = words_per_message
        self._outbox: dict[tuple[int, int], Any] = {}
        self.rounds_executed = 0
        self.messages_sent = 0
        self.max_words_per_round = 0

    # ------------------------------------------------------------------
    def _queue_send(self, sender: int, edge: int, payload: Any) -> None:
        words = message_words(payload)
        if words > self.words_per_message:
            raise MessageTooLargeError(
                f"node {sender} tried to send {words} words on edge {edge}; "
                f"budget is {self.words_per_message} words per round"
            )
        u, v = self.graph.endpoints(edge)
        if sender not in (u, v):
            raise CongestModelError(
                f"node {sender} is not incident to edge {edge}"
            )
        key = (sender, edge)
        if key in self._outbox:
            raise CongestModelError(
                f"node {sender} queued two messages on edge {edge} in one round"
            )
        self._outbox[key] = payload

    # ------------------------------------------------------------------
    def run(
        self,
        algorithm_factory: Callable[[int], NodeAlgorithm],
        max_rounds: int = 10_000,
    ) -> RunResult:
        """Run one algorithm instance per node until global termination.

        Args:
            algorithm_factory: Called with each node id to create that
                node's state machine.
            max_rounds: Safety budget.

        Returns:
            A :class:`RunResult`; per-node outputs live on the returned
            ``states`` objects.

        Raises:
            RoundLimitExceededError: If not all nodes terminate within
                ``max_rounds``.
        """
        n = self.graph.num_nodes
        contexts = [NodeContext(self, v) for v in range(n)]
        states = [algorithm_factory(v) for v in range(n)]
        for v in range(n):
            states[v].init(contexts[v])

        inboxes: list[list[Message]] = [[] for _ in range(n)]
        rounds = 0
        all_done = False
        while not all_done:
            if rounds >= max_rounds:
                raise RoundLimitExceededError(
                    f"algorithm did not terminate within {max_rounds} rounds"
                )
            self._outbox = {}
            # Termination is evaluated per round: the run ends when every
            # node reports done in the *same* round (quiescence), so a
            # node may become active again after a temporary lull.
            all_done = True
            for v in range(n):
                finished = states[v].on_round(contexts[v], inboxes[v])
                all_done = all_done and bool(finished)
            # Deliver.
            inboxes = [[] for _ in range(n)]
            words_this_round = 0
            for (sender, edge), payload in self._outbox.items():
                u, w = self.graph.endpoints(edge)
                receiver = w if sender == u else u
                inboxes[receiver].append(Message(sender, edge, payload))
                self.messages_sent += 1
                words_this_round += message_words(payload)
            self.max_words_per_round = max(
                self.max_words_per_round, words_this_round
            )
            rounds += 1
            # If messages are in flight, the system is not quiescent even
            # when every node reported done this round.
            if all_done and any(box for box in inboxes):
                all_done = False
        self.rounds_executed += rounds
        return RunResult(
            rounds=rounds,
            messages_sent=self.messages_sent,
            max_words_per_round=self.max_words_per_round,
            states=states,
        )

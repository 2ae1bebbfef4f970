"""Warm workspace pool for the flow server.

AlmostRoute's inner loop is allocation free *given* a
:class:`~repro.core.almost_route.RouteWorkspace`; the workspace itself
is a dozen m/n/row-shaped buffers whose allocation (and first-touch
page faulting) is pure per-query overhead in a serve-many setting. The
pool keeps workspaces warm across queries: acquire pops a ready one
(or builds on first use), release pushes it back. Single queries and
every column of a batch check out the same kind of workspace, since a
batch is routed one demand at a time.

Shape safety rides on the ``ensure`` contract: a released workspace is
only re-admitted if its ``shape_key`` still matches the pool's bound
(graph, approximator) pair, and ``rebind`` (called by the server after
a graph mutation or approximator rebuild) drops every pooled workspace
whose shapes went stale. Acquire/release are lock-protected so a server
can be driven from multiple request threads.
"""

from __future__ import annotations

# The serving pool guards acquire/release with a plain Lock so a
# FlowServer can be driven from multiple request threads; it never
# spawns workers or maps work.
import threading  # repolint: disable=pool-bypass -- Lock only, no pool primitives

from repro.core.almost_route import RouteWorkspace
from repro.core.approximator import TreeCongestionApproximator
from repro.graphs.graph import Graph

__all__ = ["WorkspacePool"]


class WorkspacePool:
    """Reusable routing workspaces for one (graph, approximator) pair."""

    #: Lock contract, machine-checked by repolint's lock-discipline
    #: rule: a FlowServer may be driven from multiple request threads,
    #: so every lexical write to these outside __init__ must sit
    #: inside ``with self._lock``.
    _GUARDED_BY = (
        "_singles",
        "_graph",
        "_approximator",
        "_shape_key",
        "created_singles",
    )

    def __init__(
        self, graph: Graph, approximator: TreeCongestionApproximator
    ) -> None:
        self._lock = threading.Lock()
        self._singles: list[RouteWorkspace] = []
        self.created_singles = 0
        self.rebind(graph, approximator)

    def rebind(
        self, graph: Graph, approximator: TreeCongestionApproximator
    ) -> None:
        """Point the pool at a (possibly new) pair, dropping every
        pooled workspace whose shapes no longer fit."""
        with self._lock:
            self._graph = graph
            self._approximator = approximator
            key = (graph.num_edges, graph.num_nodes, approximator.num_rows)
            self._shape_key = key
            self._singles = [
                ws for ws in self._singles if ws.shape_key == key
            ]

    def acquire(self) -> RouteWorkspace:
        """Pop a warm workspace, building one on a dry pool.

        A failed checkout is recoverable by design: the server falls
        back to a per-call workspace (the solver allocates internally)
        and counts the degradation."""
        with self._lock:
            if self._singles:
                return self._singles.pop()
            self.created_singles += 1
            graph, approximator = self._graph, self._approximator
        return RouteWorkspace(graph, approximator)

    def release(self, workspace: RouteWorkspace) -> None:
        """Return a workspace to the pool (silently dropped if its
        shapes went stale, e.g. released after a rebind)."""
        with self._lock:
            if workspace.shape_key == self._shape_key:
                self._singles.append(workspace)

    def pooled_counts(self) -> int:
        """Idle workspaces in the pool right now."""
        with self._lock:
            return len(self._singles)

"""FlowServer — build-once / serve-many routing over one graph.

The paper's target workload (and the ROADMAP north star) is one graph
serving many demand queries: the congestion approximator costs ~n·log n
tree samples to build but answers any demand, so amortizing one build
over a query stream changes the economics completely. The server owns
a built :class:`~repro.core.approximator.TreeCongestionApproximator`
and a version-keyed :class:`~repro.serve.cache.ResultCache`, and
serves single demands (:meth:`FlowServer.route`,
:meth:`FlowServer.route_st`) and stacked multi-demand batches
(:meth:`FlowServer.route_batch`).

There is one miss path. A single query and every column of a batch
take the same steps: cache lookup, salvaged warm seed, one-shot solve,
one retry of an unexpected failure, cache put. Every solve attempt,
the retry included, is a one-shot solver call that builds its own
workspace, so no attempt can see another's buffers. A batch column is
therefore the one-shot answer bit for bit, singles and batch columns
share one cache namespace (a demand routed inside a batch hits later
as a single query and vice versa), and a demand repeated within one
batch is solved once. Solves, builds and rebuilds all run on the
calling thread.

Recovery is invisible in results and counted in
:meth:`FlowServer.health`: a solve failure that is not a
:class:`~repro.errors.ReproError` is retried once. What is not
recovered surfaces typed: a failure that survives its retry, a missed
deadline, a poisoned batch column (isolated to its slot).

Mutation safety: every entry point first compares the graph's
cache-invalidation counter (``Graph._version``) against the epoch the
cache and approximator were built in. Under the default
``refresh="rebuild"`` policy a moved version drops the cached results
exactly once and rebuilds the approximator from the stored seed.
Under ``refresh="incremental"`` a capacity-only move recomputes every
tree's cut capacities exactly
(:meth:`~repro.core.approximator.TreeCongestionApproximator.refresh_capacities`:
same trees, same α, nothing resampled) and turns the old epoch's cached
flows into warm-start seeds; a structural mutation or a journal
overflow takes the rebuild path. Either way every row of R is a cut of
the live graph, so ``‖Rb‖∞ ≤ opt`` holds after every epoch move.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable, Literal, Sequence

import numpy as np

from repro.core.accelerated import accelerated_almost_route
from repro.core.almost_route import AlmostRouteResult, almost_route
from repro.core.approximator import (
    TreeCongestionApproximator,
    build_congestion_approximator,
)
from repro.errors import (
    DeadlineExceededError,
    GraphError,
    ReproError,
    ServingError,
)
from repro.graphs.graph import Graph
from repro.graphs.journal import rescale_flow
from repro.serve.cache import CacheStats, ResultCache, demand_digest
from repro.util.validation import st_demand

__all__ = ["FlowServer", "ServerHealth", "ServerStats"]

#: solver name -> ``(one-shot solver,)``: the one routing loop every
#: query and batch column runs through. The values stay tuples because
#: tracing tools rebuild this table by iterating each entry.
_SOLVERS: dict[str, tuple[Callable[..., AlmostRouteResult]]] = {
    "plain": (almost_route,),
    "accelerated": (accelerated_almost_route,),
}


@dataclass
class ServerStats:
    """Serving counters plus a snapshot of the cache stats.

    ``incremental_refreshes`` counts epoch moves absorbed by the
    journal-driven exact cut refresh (``refresh="incremental"``)
    instead of a full rebuild; ``warm_starts`` counts queries seeded
    from a salvaged previous-epoch flow instead of starting cold.
    """

    single_queries: int = 0
    batch_queries: int = 0
    batched_columns: int = 0
    rebuilds: int = 0
    incremental_refreshes: int = 0
    warm_starts: int = 0
    cache: CacheStats | None = None


@dataclass(frozen=True)
class ServerHealth:
    """Degradation and failure snapshot for one :class:`FlowServer`.

    Recovery is invisible in results by contract, so this snapshot is
    how operators see that the server has been absorbing failures.

    Attributes:
        workspace_fallbacks: Always 0. Every solve builds its own
            workspace, so there is no checkout left to fail. The field
            stays only because perfbench's report still reads it
            (ROADMAP direction 5 lists it for removal).
        column_failures: Demand columns that ended as a
            :class:`~repro.errors.ServingError` (the error-isolation
            contract: one poisoned column never fails its batch).
        miss_retries: Solves retried once after raising something
            other than a :class:`~repro.errors.ReproError`.
        deadline_hits: Requests that exceeded their deadline.
        last_error: ``repr``-style description of the most recent
            absorbed failure (``None`` when the server never failed).
    """

    workspace_fallbacks: int
    column_failures: int
    miss_retries: int
    deadline_hits: int
    last_error: str | None


class FlowServer:
    """Serve routing queries against one graph, building R once.

    Drive one server from one thread. It holds no lock, and every solve
    writes scratch buffers that outlive it (the stacked operator's
    planes and ``Graph.excess``'s signed buffer), so two concurrent
    solves would corrupt each other; ROADMAP direction 1 moves those
    buffers into the per-call workspace.

    Args:
        graph: The capacitated graph to serve.
        approximator: Optional prebuilt congestion approximator; built
            from ``rng`` when omitted.
        epsilon: Target AlmostRoute accuracy shared by all queries
            (part of every cache key).
        solver: ``"plain"`` (Algorithm 2) or ``"accelerated"``
            (momentum variant, footnote 3).
        max_iterations: Optional per-query gradient budget override.
        cache_capacity: LRU capacity of the result cache (``0``
            disables caching).
        rng: Seed used to build the approximator, and to rebuild it
            on every rebuild. A capacity refresh draws nothing.
        refresh: Mutation policy: ``"rebuild"`` (default) reconstructs
            the approximator from ``rng`` when the graph version moves;
            ``"incremental"`` consumes the graph's epoch delta journal:
            for a capacity-only delta every tree's cut rows are
            recomputed exactly in place (the trees and α are kept;
            nothing is resampled), salvaged same-digest cache entries
            become warm-start seeds for their next query, and the full
            rebuild is reserved for structural mutations or journal
            overflow. Warm-started results satisfy the same
            ``(1+ε)·α`` guarantee as cold ones. Large cumulative
            capacity drift can outgrow the build's α; rebuild then.
        deadline: Per-request wall-clock budget in seconds (``None``
            disables it). Checked cooperatively before every solve
            attempt — an in-flight solve completes before the deadline
            is observed — and raises
            :class:`~repro.errors.DeadlineExceededError`.
    """

    def __init__(
        self,
        graph: Graph,
        approximator: TreeCongestionApproximator | None = None,
        *,
        epsilon: float = 0.1,
        solver: Literal["plain", "accelerated"] = "plain",
        max_iterations: int | None = None,
        cache_capacity: int = 1024,
        rng: np.random.Generator | int | None = 0,
        refresh: Literal["rebuild", "incremental"] = "rebuild",
        deadline: float | None = None,
    ) -> None:
        if solver not in _SOLVERS:
            raise GraphError(
                f"solver must be one of {sorted(_SOLVERS)}, got {solver!r}"
            )
        if refresh not in ("rebuild", "incremental"):
            raise GraphError(
                f"refresh must be 'rebuild' or 'incremental', got {refresh!r}"
            )
        eps = float(epsilon)
        if not 0 < eps <= 1:
            raise GraphError(f"epsilon must be in (0, 1], got {epsilon}")
        if deadline is not None and not deadline > 0:
            raise GraphError(
                f"deadline must be > 0 seconds or None, got {deadline}"
            )
        self.graph = graph
        self.epsilon = eps
        self.solver = solver
        self.max_iterations = max_iterations
        self.refresh = refresh
        self.deadline = deadline
        self._rng = rng
        if approximator is None:
            approximator = build_congestion_approximator(graph, rng=rng)
        elif approximator.graph is not graph:
            raise GraphError(
                "approximator was built for a different graph object"
            )
        self.approximator = approximator
        self._cache = ResultCache(cache_capacity)
        self._cache.sync_epoch(graph._version)
        self._epoch = graph._version
        self._edge_count = graph.num_edges
        self._single_queries = 0
        self._batch_queries = 0
        self._batched_columns = 0
        self._rebuilds = 0
        self._incremental_refreshes = 0
        self._warm_starts = 0
        # Warm-start seeds salvaged by the incremental refresh: query
        # key -> previous-epoch flow rescaled to the live capacities.
        # Replaced wholesale at each epoch move (so a seed is always
        # exactly one journal delta away from the epoch it serves in)
        # and consumed on use.
        self._warm_seeds: dict[tuple, np.ndarray] = {}
        # Health / degradation state (see ServerHealth).
        self._column_failures = 0
        self._miss_retries = 0
        self._deadline_hits = 0
        self._last_error: str | None = None

    # ------------------------------------------------------------------
    # Mutation detection
    # ------------------------------------------------------------------
    def _sync(self) -> None:
        """Catch up with graph mutations before serving a query.

        Drops (or, under ``refresh="incremental"``, salvages) old-epoch
        cached results exactly once, then either refreshes the
        approximator's cuts from the journal or rebuilds it.
        """
        version = self.graph._version
        if version == self._epoch:
            return
        structural = self.graph.num_edges != self._edge_count
        delta = None
        if self.refresh == "incremental" and not structural:
            # None when the journal cannot vouch for the interval
            # (overflow, or a structural mutation re-based it): fall
            # through to the full rebuild below.
            delta = self.graph.deltas_since(self._epoch)
        if delta is not None:
            # Capacity-only delta with a sound journal: recompute the
            # cuts in place and convert old-epoch cache entries into
            # warm-start seeds instead of waste.
            salvaged = self._cache.salvage_epoch(version)
            self.approximator.refresh_capacities()
            self._incremental_refreshes += 1
            self._warm_seeds = {
                key: rescale_flow(result.flow, delta)
                for key, result in salvaged.items()
                if isinstance(result, AlmostRouteResult)
            }
        else:
            self._cache.sync_epoch(version)
            self._warm_seeds = {}
            self.approximator = build_congestion_approximator(
                self.graph, rng=self._rng
            )
            self._rebuilds += 1
        self._epoch = version
        self._edge_count = self.graph.num_edges

    # ------------------------------------------------------------------
    # Query keys
    # ------------------------------------------------------------------
    def _query_key(self, demand: np.ndarray) -> tuple:
        return (
            self.solver,
            self.epsilon,
            self.max_iterations,
            demand_digest(demand),
        )

    # ------------------------------------------------------------------
    # Supervision (deadline)
    # ------------------------------------------------------------------
    def _deadline_at(self) -> float | None:
        return (
            None if self.deadline is None else time.monotonic() + self.deadline
        )

    def _check_deadline(self, deadline_at: float | None) -> None:
        """Cooperative deadline check, called before every solve."""
        if deadline_at is not None and time.monotonic() > deadline_at:
            self._deadline_hits += 1
            raise DeadlineExceededError(
                f"request exceeded its {self.deadline}s deadline"
            )

    def _solve(
        self, demand: np.ndarray, seed: np.ndarray | None
    ) -> AlmostRouteResult:
        """Solve one missed demand: the one call every miss makes, from
        :meth:`route` or from a :meth:`route_batch` column."""
        (solver,) = _SOLVERS[self.solver]
        return solver(
            self.graph,
            self.approximator,
            demand,
            self.epsilon,
            max_iterations=self.max_iterations,
            initial_flow=seed,
        )

    def _serve(
        self, demand: np.ndarray, use_cache: bool, deadline_at: float | None
    ) -> AlmostRouteResult:
        """The one miss path, shared by :meth:`route` and every column
        of :meth:`route_batch`.

        A cache hit returns the stored result. A miss solves with the
        salvaged warm seed for this demand, if any (gated on
        ``use_cache`` because the seed is cache-derived state, and
        consumed only by a successful solve). A failure that is not a
        :class:`~repro.errors.ReproError` is retried once. Each attempt
        is a fresh one-shot solver call with its own workspace, so a
        failed attempt leaves nothing half written for the retry.

        Raises:
            DeadlineExceededError: The request ran out of time.
            ReproError: The solve raised it (e.g. an invalid demand).
            Exception: Anything else the solve raised twice in a row.
        """
        key = self._query_key(demand)
        if use_cache:
            cached = self._cache.get(key)
            if cached is not None:
                return cached
        seed = self._warm_seeds.get(key) if use_cache else None
        retried = False
        while True:
            self._check_deadline(deadline_at)
            try:
                result = self._solve(demand, seed)
            except Exception as exc:
                if isinstance(exc, ReproError) or retried:
                    raise
                retried = True
                self._miss_retries += 1
                self._last_error = f"{type(exc).__name__}: {exc}"
                continue
            if seed is not None:
                self._warm_seeds.pop(key, None)
                self._warm_starts += 1
            self._cache.put(key, result)
            return result

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def route(
        self, demand: Sequence[float], use_cache: bool = True
    ) -> AlmostRouteResult:
        """Route one demand vector, hitting the result cache when the
        same query was served this epoch (by single or batched call).

        Cached results are shared objects — treat them as read-only.
        An unexpected solve failure is retried once. A failure that
        persists raises: a :class:`~repro.errors.ReproError` as is,
        anything else wrapped in a :class:`~repro.errors.ServingError`
        carrying it as
        ``__cause__``.
        """
        self._sync()
        self._single_queries += 1
        demand = np.ascontiguousarray(demand, dtype=float)
        try:
            return self._serve(demand, use_cache, self._deadline_at())
        except ReproError:
            raise
        except Exception as exc:
            raise ServingError(
                f"routing failed: {type(exc).__name__}: {exc}"
            ) from exc

    def route_st(
        self, source: int, sink: int, value: float = 1.0, use_cache: bool = True
    ) -> AlmostRouteResult:
        """Route an s-t demand of the given value."""
        return self.route(
            st_demand(self.graph, source, sink, value), use_cache=use_cache
        )

    def route_batch(
        self,
        demands: Iterable[Sequence[float]] | np.ndarray,
        use_cache: bool = True,
        errors: Literal["raise", "return"] = "raise",
    ) -> list[AlmostRouteResult]:
        """Route ``Q`` stacked demands, one column at a time.

        Every column takes the same miss path as :meth:`route`, so it
        is bit-identical to the single answer and is cached
        individually: batches and singles warm each other, and a demand
        repeated within the batch is solved once (the later column is a
        cache hit).

        Error isolation: a column whose routing fails gets a
        :class:`~repro.errors.ServingError` carrying the cause chain,
        while every other column routes normally (bit-identical to a
        clean run). With ``errors="raise"`` (default) the first such
        failure is raised after the whole batch is served; with
        ``errors="return"`` the ``ServingError`` objects are returned
        in the failed columns' positions instead. A deadline hit
        raises at once.
        """
        if errors not in ("raise", "return"):
            raise GraphError(
                f"errors must be 'raise' or 'return', got {errors!r}"
            )
        self._sync()
        demands = np.ascontiguousarray(demands, dtype=float)
        if demands.ndim != 2:
            raise GraphError(
                f"expected a (Q, n) demand plane, got shape {demands.shape}"
            )
        num_queries = demands.shape[0]
        self._batch_queries += 1
        self._batched_columns += num_queries
        deadline_at = self._deadline_at()
        results: list[AlmostRouteResult | ServingError] = []
        for q in range(num_queries):
            try:
                results.append(self._serve(demands[q], use_cache, deadline_at))
            except DeadlineExceededError:
                raise
            except Exception as exc:
                failure = ServingError(
                    f"demand column {q} failed to route: "
                    f"{type(exc).__name__}: {exc}"
                )
                failure.__cause__ = exc
                self._column_failures += 1
                self._last_error = f"{type(exc).__name__}: {exc}"
                results.append(failure)
        if errors == "raise":
            for item in results:
                if isinstance(item, ServingError):
                    raise item
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> ServerStats:
        return ServerStats(
            single_queries=self._single_queries,
            batch_queries=self._batch_queries,
            batched_columns=self._batched_columns,
            rebuilds=self._rebuilds,
            incremental_refreshes=self._incremental_refreshes,
            warm_starts=self._warm_starts,
            cache=self._cache.stats(),
        )

    def health(self) -> ServerHealth:
        """Degradation snapshot (see :class:`ServerHealth`): what the
        server has absorbed and what it surfaced."""
        return ServerHealth(
            workspace_fallbacks=0,
            column_failures=self._column_failures,
            miss_retries=self._miss_retries,
            deadline_hits=self._deadline_hits,
            last_error=self._last_error,
        )

    def cache_stats(self) -> CacheStats:
        return self._cache.stats()

    @property
    def cache(self) -> ResultCache:
        return self._cache

"""FlowServer — build-once / serve-many routing over one graph.

The paper's target workload (and the ROADMAP north star) is one graph
serving many demand queries: the congestion approximator costs ~n·log n
tree samples to build but answers any demand, so amortizing one build
over a query stream changes the economics completely. The server owns

* a built :class:`~repro.core.approximator.TreeCongestionApproximator`,
* a warm :class:`~repro.serve.pool.WorkspacePool` of routing
  workspaces, and
* a version-keyed :class:`~repro.serve.cache.ResultCache`,

and serves single demands (:meth:`FlowServer.route`,
:meth:`FlowServer.route_st`) and stacked multi-demand batches
(:meth:`FlowServer.route_batch`).

There is one miss path. A single query and every column of a batch
take the same steps: cache lookup, salvaged warm seed, workspace
checkout, one-shot solve (fault site ``serve.miss``), pool-loss retry
and circuit breaker, cache put. A batch column is therefore the
one-shot answer bit for bit, singles and batch columns share one cache
namespace (a demand routed inside a batch hits later as a single query
and vice versa), and a demand repeated within one batch is solved once.

Mutation safety: every entry point first compares the graph's
cache-invalidation counter (``Graph._version``) against the epoch the
cache and approximator were built in. A moved version drops the cached
results exactly once and — under the default ``refresh="rebuild"``
policy — rebuilds the approximator from the stored seed and rebinds
the workspace pool. ``refresh="reuse"`` keeps the (now stale) tree
approximator as a documented approximation: routing still uses the
live capacities through ``graph.capacities()``, but the cut structure
R reflects the pre-mutation graph, so quality degrades gracefully
instead of paying a rebuild. Structural mutations (``add_edge``)
always flush the pool, since every workspace is m-shaped.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Literal, Sequence

import numpy as np

from repro.core.accelerated import accelerated_almost_route
from repro.core.almost_route import (
    AlmostRouteResult,
    RouteWorkspace,
    almost_route,
)
from repro.core.approximator import (
    TreeCongestionApproximator,
    build_congestion_approximator,
)
from repro.errors import (
    DeadlineExceededError,
    GraphError,
    PoolFailureError,
    ReproError,
    ServingError,
)
from repro.faults import fault_point
from repro.graphs.graph import Graph
from repro.graphs.journal import rescale_flow
from repro.parallel.config import ParallelConfig, resolve_config
from repro.parallel.pool import PoolStats, get_pool
from repro.serve.cache import CacheStats, ResultCache, demand_digest
from repro.serve.pool import WorkspacePool
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
    journal-driven scoped refresh (``refresh="incremental"``) instead
    of a full rebuild; ``warm_starts`` counts queries seeded from a
    salvaged previous-epoch flow instead of starting cold.
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
        workspace_fallbacks: Solves that ran on a per-call workspace
            because the warm-pool checkout failed.
        column_failures: Demand columns that ended as a
            :class:`~repro.errors.ServingError` (the error-isolation
            contract: one poisoned column never fails its batch).
        miss_retries: Solves retried once on a fresh workspace after
            raising something other than a pool loss or a
            :class:`~repro.errors.ReproError`.
        deadline_hits: Requests that exceeded their deadline.
        pool_failures: :class:`~repro.errors.PoolFailureError` events
            absorbed by the circuit-breaker machinery.
        breaker_trips: Backend degradations taken
            (process → thread → serial).
        consecutive_pool_failures: Current trip progress toward the
            next degradation.
        configured_backend: The backend the server was configured with.
        effective_backend: The backend requests currently run on.
        degraded: Whether the breaker has moved the server off its
            configured backend (see :meth:`FlowServer.reset_breaker`).
        last_error: ``repr``-style description of the most recent
            absorbed failure (``None`` when the server never failed).
        shard_pool: Stats of the shard pool serving the effective
            backend (``None`` for serial / single-worker execution).
        incremental_refreshes: Epoch moves absorbed by the
            journal-driven scoped refresh instead of a full rebuild
            (``refresh="incremental"`` only).
        warm_starts: Queries seeded from a salvaged previous-epoch
            flow instead of starting cold.
    """

    workspace_fallbacks: int
    column_failures: int
    miss_retries: int
    deadline_hits: int
    pool_failures: int
    breaker_trips: int
    consecutive_pool_failures: int
    configured_backend: str
    effective_backend: str
    degraded: bool
    last_error: str | None
    shard_pool: PoolStats | None
    incremental_refreshes: int = 0
    warm_starts: int = 0


class FlowServer:
    """Serve routing queries against one graph, building R once.

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
        parallel: Optional sharded-execution config for the operator
            products (results are bit-identical either way).
        rng: Seed used to build — and, under ``refresh="rebuild"`` /
            ``refresh="incremental"``, re-build or re-sample — the
            approximator.
        refresh: Mutation policy: ``"rebuild"`` (default) reconstructs
            the approximator from ``rng`` when the graph version moves;
            ``"reuse"`` keeps the stale tree structure (documented
            approximation — live capacities, pre-mutation cuts);
            ``"incremental"`` consumes the graph's epoch delta journal:
            for capacity-only deltas the approximator's cut rows are
            refreshed in place (journal-intersecting trees resampled),
            salvaged same-digest cache entries become warm-start seeds
            for their next query, and the full rebuild is reserved for
            structural mutations or journal overflow. Warm-started
            results satisfy the same ``(1+ε)·α`` guarantee and
            cross-backend bit-identity as cold ones.
        deadline: Per-request wall-clock budget in seconds (``None``
            disables it). Checked cooperatively before every solve
            attempt — an in-flight solve completes before the deadline
            is observed — and raises
            :class:`~repro.errors.DeadlineExceededError`.
        breaker_threshold: Consecutive pool losses tolerated before
            the circuit-breaker degrades the execution backend one
            step (process → thread → serial); results stay
            bit-identical by the determinism contract, so degradation
            trades throughput for availability, never correctness.
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
        parallel: ParallelConfig | None = None,
        rng: np.random.Generator | int | None = 0,
        refresh: Literal["rebuild", "reuse", "incremental"] = "rebuild",
        deadline: float | None = None,
        breaker_threshold: int = 3,
    ) -> None:
        if solver not in _SOLVERS:
            raise GraphError(
                f"solver must be one of {sorted(_SOLVERS)}, got {solver!r}"
            )
        if refresh not in ("rebuild", "reuse", "incremental"):
            raise GraphError(
                "refresh must be 'rebuild', 'reuse' or 'incremental', "
                f"got {refresh!r}"
            )
        eps = float(epsilon)
        if not 0 < eps <= 1:
            raise GraphError(f"epsilon must be in (0, 1], got {epsilon}")
        if deadline is not None and not deadline > 0:
            raise GraphError(
                f"deadline must be > 0 seconds or None, got {deadline}"
            )
        if breaker_threshold < 1:
            raise GraphError(
                f"breaker_threshold must be >= 1, got {breaker_threshold}"
            )
        self.graph = graph
        self.epsilon = eps
        self.solver = solver
        self.max_iterations = max_iterations
        self.parallel = parallel
        self.refresh = refresh
        self.deadline = deadline
        self.breaker_threshold = breaker_threshold
        self._rng = rng
        if approximator is None:
            approximator = build_congestion_approximator(
                graph, rng=rng, parallel=parallel
            )
        elif approximator.graph is not graph:
            raise GraphError(
                "approximator was built for a different graph object"
            )
        self.approximator = approximator
        self._cache = ResultCache(cache_capacity)
        self._cache.sync_epoch(graph._version)
        self._pool = WorkspacePool(graph, approximator)
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
        self._effective_parallel = parallel
        self._workspace_fallbacks = 0
        self._column_failures = 0
        self._miss_retries = 0
        self._deadline_hits = 0
        self._pool_failures = 0
        self._breaker_trips = 0
        self._consecutive_pool_failures = 0
        self._last_error: str | None = None

    # ------------------------------------------------------------------
    # Mutation detection
    # ------------------------------------------------------------------
    def _sync(self) -> None:
        """Catch up with graph mutations before serving a query.

        Drops (or, under ``refresh="incremental"``, salvages) old-epoch
        cached results exactly once and applies the refresh policy to
        the approximator and workspace pool.
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
            # Capacity-only delta with a sound journal: patch the
            # operator in place, keep the pooled workspaces (their
            # shape key is epoch-independent), and convert old-epoch
            # cache entries into warm-start seeds instead of waste.
            salvaged = self._cache.salvage_epoch(version)
            if delta.num_edges:
                self.approximator.refresh_capacities(
                    delta.edge_ids, rng=self._rng
                )
            self._incremental_refreshes += 1
            self._warm_seeds = {
                key: rescale_flow(result.flow, delta)
                for key, result in salvaged.items()
                if isinstance(result, AlmostRouteResult)
            }
        else:
            self._cache.sync_epoch(version)
            self._warm_seeds = {}
            if self.refresh in ("rebuild", "incremental"):
                self.approximator = build_congestion_approximator(
                    self.graph, rng=self._rng, parallel=self.parallel
                )
                self._rebuilds += 1
                self._pool.rebind(self.graph, self.approximator)
            elif structural:
                # Stale approximator kept by policy, but the m-shaped
                # workspaces cannot survive an edge-count change.
                self._pool.rebind(self.graph, self.approximator)
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
    # Supervision (deadline, workspace fallback, circuit-breaker)
    # ------------------------------------------------------------------
    def _current_parallel(self) -> ParallelConfig | None:
        """The execution config requests run on right now (the
        configured one until the circuit-breaker degrades it)."""
        return self._effective_parallel

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

    def _acquire(self) -> RouteWorkspace | None:
        """Warm-pool checkout with fallback: a failed checkout means
        the solver allocates a per-call workspace (slower, identical
        results) — a counted degradation, never a failed request."""
        try:
            return self._pool.acquire()
        except Exception as exc:
            self._workspace_fallbacks += 1
            self._last_error = f"{type(exc).__name__}: {exc}"
            return None

    def _note_pool_failure(self, exc: PoolFailureError) -> bool:
        """Record a pool loss; returns whether the caller should retry.

        Below ``breaker_threshold`` consecutive losses the retry stays
        on the current backend (the pool already retried internally —
        this is a second chance after a respawn).  At the threshold the
        breaker trips: the effective backend degrades one step
        (process → thread → serial) and the counter resets.  ``False``
        means every degradation is exhausted and the caller must
        surface a :class:`~repro.errors.ServingError`."""
        self._pool_failures += 1
        self._consecutive_pool_failures += 1
        self._last_error = f"{type(exc).__name__}: {exc}"
        if self._consecutive_pool_failures < self.breaker_threshold:
            return True
        resolved = resolve_config(self._current_parallel())
        if resolved.workers <= 1 or resolved.backend == "serial":
            return False
        if resolved.backend == "process":
            self._effective_parallel = replace(resolved, backend="thread")
        else:
            self._effective_parallel = replace(resolved, backend="serial")
        self._breaker_trips += 1
        self._consecutive_pool_failures = 0
        return True

    def reset_breaker(self) -> None:
        """Restore the configured execution backend after a degradation
        (operators call this once the underlying fault is resolved)."""
        self._effective_parallel = self.parallel
        self._consecutive_pool_failures = 0

    @fault_point("serve.miss", kinds=("raise", "hang"))
    def _solve(
        self,
        demand: np.ndarray,
        workspace: RouteWorkspace | None,
        seed: np.ndarray | None,
    ) -> AlmostRouteResult:
        """Solve one missed demand (fault site ``serve.miss``)."""
        (solver,) = _SOLVERS[self.solver]
        return solver(
            self.graph,
            self.approximator,
            demand,
            self.epsilon,
            max_iterations=self.max_iterations,
            workspace=workspace,
            parallel=self._current_parallel(),
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
        consumed only by a successful solve), on a pooled workspace.
        Pool loss retries under the circuit breaker; any other failure
        that is not a :class:`~repro.errors.ReproError` is retried once
        on a fresh workspace. A workspace whose solve failed is
        dropped, never re-pooled: a failed (or, on the thread backend,
        still-running) shard may have written it.

        Raises:
            DeadlineExceededError: The request ran out of time.
            ServingError: Pool loss persisted through every
                circuit-breaker degradation.
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
            workspace = self._acquire()
            try:
                result = self._solve(demand, workspace, seed)
            except PoolFailureError as exc:
                if self._note_pool_failure(exc):
                    continue
                raise ServingError(
                    "routing failed: worker-pool loss persisted "
                    "through every circuit-breaker degradation"
                ) from exc
            except Exception as exc:
                if isinstance(exc, ReproError) or retried:
                    raise
                retried = True
                self._miss_retries += 1
                self._last_error = f"{type(exc).__name__}: {exc}"
                continue
            if workspace is not None:
                self._pool.release(workspace)
            self._consecutive_pool_failures = 0
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
        Pool loss is absorbed by the circuit-breaker (retry, then
        backend degradation) and any other unexpected solve failure is
        retried once. A failure that persists raises: a
        :class:`~repro.errors.ReproError` as is, anything else wrapped
        in a :class:`~repro.errors.ServingError` carrying it as
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
        server has absorbed, what it surfaced, and which backend it is
        currently running on."""
        configured = resolve_config(self.parallel)
        effective = resolve_config(self._current_parallel())
        shard_pool: PoolStats | None = None
        if effective.workers > 1 and effective.backend != "serial":
            shard_pool = get_pool(effective).stats.snapshot()
        return ServerHealth(
            workspace_fallbacks=self._workspace_fallbacks,
            column_failures=self._column_failures,
            miss_retries=self._miss_retries,
            deadline_hits=self._deadline_hits,
            pool_failures=self._pool_failures,
            breaker_trips=self._breaker_trips,
            consecutive_pool_failures=self._consecutive_pool_failures,
            configured_backend=configured.backend,
            effective_backend=effective.backend,
            degraded=effective.backend != configured.backend,
            last_error=self._last_error,
            shard_pool=shard_pool,
            incremental_refreshes=self._incremental_refreshes,
            warm_starts=self._warm_starts,
        )

    def cache_stats(self) -> CacheStats:
        return self._cache.stats()

    @property
    def cache(self) -> ResultCache:
        return self._cache

    @property
    def pool(self) -> WorkspacePool:
        return self._pool

"""Chaos suite: deterministic fault injection + supervised recovery.

The fault framework's contract, pinned here site by site:

* every injected failure ends in either a **bit-identical recovered
  result** or a **typed** :class:`~repro.errors.ReproError` — never a
  hang (every armed map runs under a timeout), never a partial write,
  never a silent wrong answer;
* recovery is *invisible*: shards are pure functions of their
  arguments, so the only observable of a fired fault is the plan's
  ``fired()`` counter and the owning layer's stats;
* the ``REPRO_FAULTS`` grammar is strictly validated — a typo raises
  :class:`~repro.errors.FaultSpecError` instead of silently running
  fault-free;
* :class:`~repro.faults.InjectedFault` is deliberately **not** a
  ``ReproError``: it models an unexpected crash, and an escaped raw
  instance is a recovery bug by definition.

CI's ``chaos`` job runs this file under ``REPRO_WORKERS=2`` and then
sweeps ``REPRO_FAULTS`` over the ordinary equivalence suites (recovery
is only real if tests that never heard of faults stay green).
"""

from __future__ import annotations

import numpy as np
import pytest

from parallel_harness import (
    assert_arrays_identical,
    assert_recovery_invisible,
)
from repro.errors import (
    ArenaError,
    DeadlineExceededError,
    FaultSpecError,
    GraphError,
    PoolFailureError,
    ReproError,
    ServingError,
)
from repro.faults import (
    FAULT_POINTS,
    SITES,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    active_plan,
    faults_active,
    parse_fault_specs,
    plan_from_env,
    set_fault_plan,
    use_faults,
)
from repro.core import (
    accelerated_almost_route,
    almost_route,
    build_congestion_approximator,
)
from repro.faults.plan import UNLIMITED
from repro.graphs.generators import random_connected
from repro.parallel import (
    ParallelConfig,
    RecoveryPolicy,
    shutdown_pools,
    use_config,
    use_recovery,
)
from repro.parallel.arena import SharedArena
from repro.parallel.pool import _fork_available, get_pool
from repro.serve import FlowServer
from repro.util.validation import st_demand

EPS = 0.4

#: Fast supervision for injected-fault tests: tight-but-safe timeout,
#: two retry waves, no backoff sleep.
FAST = RecoveryPolicy(timeout=10.0, retries=2, backoff=0.0)

needs_fork = pytest.mark.skipif(
    not _fork_available(), reason="fork start method unavailable"
)


@pytest.fixture(autouse=True)
def _clean_slate():
    """Disarm any environment plan and reset pool state/stats per test."""
    set_fault_plan(None)
    shutdown_pools()
    yield
    set_fault_plan(None)
    shutdown_pools()


def _square(block: np.ndarray) -> np.ndarray:
    return block * block


def _raise_graph_error(block: np.ndarray) -> np.ndarray:
    raise GraphError("deterministic library error from a shard")


def _tasks(seed: int, count: int = 4):
    """Fresh read-only arrays each call — the arena export cache is
    keyed by array identity, so reusing arrays across scenarios would
    let a cached segment absorb the injection before it fires."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        block = rng.normal(size=256)
        block.flags.writeable = False
        out.append((block,))
    return out


def _pool(backend: str):
    return get_pool(ParallelConfig(workers=2, backend=backend, min_size=0))


# ----------------------------------------------------------------------
# Spec grammar + validation
# ----------------------------------------------------------------------
class TestSpecGrammar:
    def test_defaults(self):
        spec = FaultSpec.parse("pool.worker")
        assert spec.site == "pool.worker"
        assert spec.kind == SITES["pool.worker"][0] == "raise"
        assert spec.at == 1 and spec.count == 1

    def test_full_clause(self):
        spec = FaultSpec.parse("pool.worker:hang@3*2")
        assert (spec.site, spec.kind, spec.at, spec.count) == (
            "pool.worker",
            "hang",
            3,
            2,
        )
        assert [spec.covers(v) for v in range(1, 6)] == [
            False,
            False,
            True,
            True,
            False,
        ]

    def test_unlimited(self):
        spec = FaultSpec.parse("serve.miss:raise@2*inf")
        assert spec.count == UNLIMITED
        assert not spec.covers(1)
        assert spec.covers(2) and spec.covers(10_000)

    def test_comma_separated_list(self):
        specs = parse_fault_specs(
            " pool.dispatch@1 , arena.export:enospc*2 ,, "
        )
        assert [s.site for s in specs] == ["pool.dispatch", "arena.export"]
        assert specs[1].count == 2

    @pytest.mark.parametrize(
        ("clause", "fragment"),
        [
            ("pool.wrker", "pool.worker"),  # typo'd site: names valid sites
            ("pool.worker:explode", "raise"),  # unknown kind: names kinds
            ("arena.export:enoent", "enospc"),  # kind from another site
            ("pool.worker@0", "1-based"),  # visits are 1-based
            ("pool.worker*0", "count"),  # count must be >= 1 or inf
            ("pool.worker@@2", "malformed"),  # broken syntax
            ("POOL.WORKER", "malformed"),  # grammar is lowercase, strictly
        ],
    )
    def test_garbage_raises_typed_error(self, clause, fragment):
        # The message must name the valid vocabulary so a typo is
        # self-diagnosing from the traceback alone.
        with pytest.raises(FaultSpecError) as excinfo:
            FaultSpec.parse(clause)
        assert fragment in str(excinfo.value)

    def test_fault_spec_error_is_repro_error(self):
        assert issubclass(FaultSpecError, ReproError)

    def test_injected_fault_is_not_repro_error(self):
        # The deliberate asymmetry the whole suite leans on: injected
        # crashes are *unexpected* failures that recovery must absorb
        # or translate; a typed ReproError is a deliberate surfacing.
        assert not issubclass(InjectedFault, ReproError)

    def test_plan_from_env(self):
        assert plan_from_env({}) is None
        assert plan_from_env({"REPRO_FAULTS": "   "}) is None
        plan = plan_from_env({"REPRO_FAULTS": "pool.worker:exit@2"})
        assert plan is not None
        assert plan.specs[0].kind == "exit" and plan.specs[0].at == 2
        with pytest.raises(FaultSpecError):
            plan_from_env({"REPRO_FAULTS": "pool.worker:exit@oops"})


# ----------------------------------------------------------------------
# Plan semantics
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_explicit_schedule_counts_visits_and_firings(self):
        plan = FaultPlan(["pool.dispatch@2"])
        assert plan.maybe_fire("pool.dispatch") is None
        action = plan.maybe_fire("pool.dispatch")
        assert action is not None and action.kind == "raise"
        assert plan.maybe_fire("pool.dispatch") is None
        assert plan.visits()["pool.dispatch"] == 3
        assert plan.fired()["pool.dispatch"] == 1

    def test_unknown_site_rejected_at_fire_time(self):
        plan = FaultPlan()
        with pytest.raises(FaultSpecError):
            plan.maybe_fire("pool.nonsense")

    def test_seeded_schedule_is_deterministic_per_site(self):
        def pattern(seed):
            plan = FaultPlan(seed=seed, rate=0.5, sites=("pool.dispatch",))
            return [
                plan.maybe_fire("pool.dispatch") is not None
                for _ in range(64)
            ]

        first, again = pattern(7), pattern(7)
        assert first == again
        assert any(first) and not all(first)
        assert pattern(8) != first

    def test_seeded_schedule_needs_a_seed(self):
        with pytest.raises(FaultSpecError):
            FaultPlan(rate=0.5)

    def test_use_faults_scopes_activation(self):
        plan = FaultPlan(["pool.dispatch@1"])
        assert not faults_active()
        with use_faults(plan):
            assert faults_active()
            assert active_plan() is plan
        assert not faults_active()

    def test_every_site_has_a_registered_owner(self):
        # Importing the owning modules (done at the top of this file,
        # transitively) must register a fault point for every site in
        # the catalogue — an orphaned site is untestable dead grammar.
        assert set(FAULT_POINTS) == set(SITES)


# ----------------------------------------------------------------------
# Pool recovery: thread backend
# ----------------------------------------------------------------------
class TestThreadRecovery:
    def test_worker_raise_once_is_recovered(self):
        plan = FaultPlan(["pool.worker:raise@1"])
        pool = _pool("thread")
        with use_faults(plan), use_recovery(FAST):
            assert_recovery_invisible(pool, _square, _tasks(11))
        assert plan.fired()["pool.worker"] == 1
        assert pool.stats.worker_faults == 1
        assert pool.stats.retries == 1
        assert pool.stats.failures == 0

    def test_dispatch_raise_once_is_recovered(self):
        plan = FaultPlan(["pool.dispatch@1"])
        pool = _pool("thread")
        with use_faults(plan), use_recovery(FAST):
            assert_recovery_invisible(pool, _square, _tasks(12))
        assert plan.fired()["pool.dispatch"] == 1
        assert pool.stats.dispatch_faults == 1

    def test_persistent_fault_surfaces_typed_with_cause(self):
        plan = FaultPlan(["pool.worker*inf"])
        pool = _pool("thread")
        with use_faults(plan), use_recovery(FAST):
            with pytest.raises(PoolFailureError) as excinfo:
                pool.map(_square, _tasks(13))
        assert isinstance(excinfo.value.__cause__, InjectedFault)
        assert pool.stats.failures == 1
        assert pool.stats.retries == FAST.retries

    def test_thread_hang_times_out_typed_without_retry(self):
        # A hung *thread* cannot be preempted and still owns the
        # caller's scratch, so the pool surfaces a typed failure
        # instead of re-executing into shared state.
        plan = FaultPlan(["pool.worker:hang@1"], hang_seconds=1.0)
        pool = _pool("thread")
        with use_faults(plan), use_recovery(
            RecoveryPolicy(timeout=0.2, retries=2, backoff=0.0)
        ):
            with pytest.raises(PoolFailureError):
                pool.map(_square, _tasks(14))
        assert pool.stats.timeouts == 1
        assert pool.stats.retries == 0
        shutdown_pools()  # drop the pool still running the hung shard

    def test_repro_error_from_shard_propagates_without_retry(self):
        # Deterministic library errors are not faults: retrying them
        # would re-raise identically and mask the real diagnosis.
        pool = _pool("thread")
        with use_recovery(FAST):
            with pytest.raises(GraphError):
                pool.map(_raise_graph_error, _tasks(15))
        assert pool.stats.retries == 0


# ----------------------------------------------------------------------
# Pool recovery: process backend (fork + shared-memory arena)
# ----------------------------------------------------------------------
@needs_fork
class TestProcessRecovery:
    def test_worker_raise_once_is_recovered(self):
        plan = FaultPlan(["pool.worker:raise@1"])
        pool = _pool("process")
        with use_faults(plan), use_recovery(FAST):
            assert_recovery_invisible(pool, _square, _tasks(21))
        assert plan.fired()["pool.worker"] == 1
        assert pool.stats.worker_faults == 1
        assert pool.stats.retries == 1

    def test_worker_exit_is_detected_and_reexecuted(self):
        # os._exit in a worker: the shard's result never arrives; the
        # parent detects it by timeout, respawns the pool, and
        # re-executes only the missing shard.
        plan = FaultPlan(["pool.worker:exit@1"])
        pool = _pool("process")
        with use_faults(plan), use_recovery(
            RecoveryPolicy(timeout=1.0, retries=2, backoff=0.0)
        ):
            assert_recovery_invisible(pool, _square, _tasks(22))
        assert plan.fired()["pool.worker"] == 1
        assert pool.stats.timeouts >= 1
        assert pool.stats.respawns >= 1

    def test_worker_hang_is_preempted_by_respawn(self):
        plan = FaultPlan(["pool.worker:hang@1"], hang_seconds=10.0)
        pool = _pool("process")
        with use_faults(plan), use_recovery(
            RecoveryPolicy(timeout=0.5, retries=2, backoff=0.0)
        ):
            assert_recovery_invisible(pool, _square, _tasks(23))
        assert pool.stats.timeouts >= 1
        assert pool.stats.respawns >= 1

    def test_attach_enoent_falls_back_to_fresh_segments(self):
        # A worker that cannot attach the arena's cached segment
        # (externally unlinked) reports ENOENT; the parent discards
        # the stale entry and retries the shard on per-call segments.
        plan = FaultPlan(["arena.attach:enoent@1"])
        pool = _pool("process")
        with use_faults(plan), use_recovery(FAST):
            assert_recovery_invisible(pool, _square, _tasks(24))
        assert plan.fired()["arena.attach"] == 1
        assert pool.stats.attach_failures == 1
        assert pool.stats.degraded_exports == 1

    def test_persistent_fault_surfaces_typed(self):
        plan = FaultPlan(["pool.worker*inf"])
        pool = _pool("process")
        with use_faults(plan), use_recovery(FAST):
            with pytest.raises(PoolFailureError) as excinfo:
                pool.map(_square, _tasks(25))
        assert isinstance(excinfo.value.__cause__, InjectedFault)


# ----------------------------------------------------------------------
# Arena degradation
# ----------------------------------------------------------------------
class TestArenaRecovery:
    def test_enospc_once_recovered_by_drain_and_retry(self):
        arena = SharedArena()
        plan = FaultPlan(["arena.export:enospc@1"])
        (block,) = _tasks(31, count=1)[0]
        try:
            with use_faults(plan):
                ref = arena.export(block)
            assert ref.shape == block.shape
            assert plan.fired()["arena.export"] == 1
            assert len(arena) == 1
        finally:
            arena.release()

    def test_enospc_after_drain_exhaustion_is_typed_and_descriptive(self):
        arena = SharedArena()
        plan = FaultPlan(["arena.export:enospc@1*2"])  # initial + retry
        (block,) = _tasks(32, count=1)[0]
        try:
            with use_faults(plan):
                with pytest.raises(ArenaError) as excinfo:
                    arena.export(block)
            message = str(excinfo.value)
            # The error must name the byte budget and the live working
            # set — the two numbers an operator needs to re-tune.
            assert "byte budget" in message
            assert "working set" in message
            assert isinstance(excinfo.value.__cause__, OSError)
        finally:
            arena.release()

    @needs_fork
    def test_pool_degrades_to_transient_segments_bit_identically(self):
        # Arena export fails twice (initial + post-drain retry) ->
        # ArenaError absorbed by the pool as a counted degradation to
        # per-call transient segments; results stay bit-identical.
        plan = FaultPlan(["arena.export:enospc@1*2"])
        pool = _pool("process")
        with use_faults(plan), use_recovery(FAST):
            assert_recovery_invisible(pool, _square, _tasks(33))
        assert plan.fired()["arena.export"] == 2
        assert pool.stats.degraded_exports == 1
        assert pool.stats.failures == 0


# ----------------------------------------------------------------------
# Serving layer
# ----------------------------------------------------------------------
@pytest.fixture()
def graph():
    return random_connected(40, 0.12, rng=601)


@pytest.fixture()
def server(graph):
    return FlowServer(graph, epsilon=EPS, rng=602)


def _plane(graph, seed, num_queries):
    rng = np.random.default_rng(seed)
    plane = rng.normal(size=(num_queries, graph.num_nodes))
    plane -= plane.mean(axis=1, keepdims=True)
    return plane


class TestServeRecovery:
    def test_checkout_failure_falls_back_to_fresh_workspace(
        self, graph, server
    ):
        demand = st_demand(graph, 0, graph.num_nodes - 1)
        baseline = server.route(demand, use_cache=False)
        plan = FaultPlan(["serve.checkout*inf"])
        with use_faults(plan):
            served = server.route(demand, use_cache=False)
        assert_arrays_identical("flow", baseline.flow, served.flow)
        assert served.iterations == baseline.iterations
        assert plan.fired()["serve.checkout"] >= 1
        assert server.health().workspace_fallbacks >= 1

    def test_miss_failure_retries_and_stays_bit_identical(
        self, graph, server
    ):
        plane = _plane(graph, 41, 4)
        baseline = server.route_batch(plane, use_cache=False)
        plan = FaultPlan(["serve.miss@1"])
        with use_faults(plan):
            chaotic = server.route_batch(plane, use_cache=False)
        for q, (want, have) in enumerate(zip(baseline, chaotic)):
            assert_arrays_identical(f"flow[{q}]", want.flow, have.flow)
            assert want.iterations == have.iterations
        assert plan.fired()["serve.miss"] == 1
        assert server.health().miss_retries == 1
        assert server.health().column_failures == 0

    def test_miss_failure_on_route_is_retried(self, graph, server):
        """A single route takes the same miss path: one injected
        failure is retried on a fresh workspace, invisibly."""
        demand = st_demand(graph, 0, graph.num_nodes - 1)
        baseline = server.route(demand, use_cache=False)
        plan = FaultPlan(["serve.miss@1"])
        with use_faults(plan):
            served = server.route(demand, use_cache=False)
        assert_arrays_identical("flow", baseline.flow, served.flow)
        assert_arrays_identical("residual", baseline.residual, served.residual)
        assert served.iterations == baseline.iterations
        assert plan.fired()["serve.miss"] == 1
        assert server.health().miss_retries == 1

    def test_persistent_miss_failure_on_route_is_typed(self, graph, server):
        """A failure that survives the retry never escapes raw: route
        wraps it in a ServingError carrying the fault as its cause."""
        demand = st_demand(graph, 0, graph.num_nodes - 1)
        with use_faults(FaultPlan(["serve.miss@1*2"])):
            with pytest.raises(ServingError) as excinfo:
                server.route(demand, use_cache=False)
        assert isinstance(excinfo.value.__cause__, InjectedFault)
        assert server.health().miss_retries == 1

    def test_persistent_miss_failure_fails_only_its_column(
        self, graph, server
    ):
        plane = _plane(graph, 44, 4)
        baseline = server.route_batch(plane, use_cache=False)
        plan = FaultPlan(["serve.miss@1*2"])
        with use_faults(plan):
            results = server.route_batch(
                plane, use_cache=False, errors="return"
            )
        failure = results[0]
        assert isinstance(failure, ServingError)
        assert "column 0" in str(failure)
        assert isinstance(failure.__cause__, InjectedFault)
        for q in (1, 2, 3):
            assert_arrays_identical(
                f"flow[{q}]", baseline[q].flow, results[q].flow
            )
            assert baseline[q].iterations == results[q].iterations
        assert plan.fired()["serve.miss"] == 2
        assert server.health().column_failures == 1

    def test_poisoned_column_is_isolated_with_cause_chain(
        self, graph, server
    ):
        plane = _plane(graph, 42, 4)
        baseline = server.route_batch(plane, use_cache=False)
        poisoned = plane.copy()
        poisoned[2, 0] = np.nan
        results = server.route_batch(
            poisoned, use_cache=False, errors="return"
        )
        failure = results[2]
        assert isinstance(failure, ServingError)
        assert "column 2" in str(failure)
        assert failure.__cause__ is not None
        for q in (0, 1, 3):
            assert_arrays_identical(
                f"flow[{q}]", baseline[q].flow, results[q].flow
            )
        assert server.health().column_failures >= 1
        # errors="raise" (the default) surfaces the same typed error.
        with pytest.raises(ServingError):
            server.route_batch(poisoned, use_cache=False)

    def test_errors_mode_is_validated(self, graph, server):
        with pytest.raises(GraphError):
            server.route_batch(_plane(graph, 43, 2), errors="ignore")

    def test_deadline_surfaces_typed(self, graph):
        strict = FlowServer(graph, epsilon=EPS, rng=602, deadline=1e-9)
        with pytest.raises(DeadlineExceededError):
            strict.route(st_demand(graph, 0, 5), use_cache=False)
        assert strict.health().deadline_hits == 1
        # DeadlineExceededError is a ServingError is a ReproError.
        assert issubclass(DeadlineExceededError, ServingError)

    def test_health_snapshot_starts_clean(self, graph):
        health = FlowServer(graph, epsilon=EPS, rng=602).health()
        assert health.workspace_fallbacks == 0
        assert health.column_failures == 0
        assert health.miss_retries == 0
        assert health.deadline_hits == 0
        assert health.last_error is None


# ----------------------------------------------------------------------
# Routing never reaches a worker pool
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "router", ["almost_route", "accelerated_almost_route", "FlowServer.route"]
)
def test_routing_never_dispatches_to_a_pool(graph, router):
    """Under a sharded process default with every pool dispatch armed
    to fail, routing on an approximator built beforehand answers bit
    for bit like a plain run and never visits a dispatch: products run
    on the calling thread."""
    approximator = build_congestion_approximator(graph, rng=602)
    server = FlowServer(graph, approximator=approximator, epsilon=EPS)
    demand = st_demand(graph, 0, graph.num_nodes - 1)

    def route():
        if router == "FlowServer.route":
            return server.route(demand, use_cache=False)
        solver = (
            almost_route if router == "almost_route" else accelerated_almost_route
        )
        return solver(graph, approximator, demand, EPS)

    expected = route()
    plan = FaultPlan(["pool.dispatch*inf"])
    sharded = ParallelConfig(workers=2, backend="thread", min_size=0)
    with use_config(sharded), use_faults(plan):
        result = route()
    assert_arrays_identical("flow", expected.flow, result.flow)
    assert result.iterations == expected.iterations
    assert plan.visits()["pool.dispatch"] == 0


# ----------------------------------------------------------------------
# REPRO_FAULTS sweep: every (site, kind) the env grammar can name,
# driven exactly as the env would drive it, against each backend that
# exercises the site. Contract: bit-identical recovery or a typed
# ReproError — nothing else escapes, and nothing hangs.
# ----------------------------------------------------------------------
_SWEEP = [
    ("thread", "pool.dispatch@1"),
    ("thread", "pool.dispatch:hang@1"),
    ("thread", "pool.worker@1"),
    ("thread", "pool.worker:hang@1"),
    ("thread", "pool.worker:exit@1"),  # degrades to raise in threads
    ("process", "pool.dispatch@1"),
    ("process", "pool.worker@1"),
    ("process", "pool.worker:hang@1"),
    ("process", "pool.worker:exit@1"),
    ("process", "arena.export:enospc@1"),
    ("process", "arena.export:enospc@1*2"),
    ("process", "arena.attach:enoent@1"),
]


@pytest.mark.parametrize(
    ("backend", "spec"), _SWEEP, ids=[f"{b}-{s}" for b, s in _SWEEP]
)
def test_env_spec_sweep(backend, spec):
    if backend == "process" and not _fork_available():
        pytest.skip("fork start method unavailable")
    plan = plan_from_env({"REPRO_FAULTS": spec})
    assert plan is not None
    tasks = _tasks(99)
    expected = [_square(*task) for task in tasks]
    pool = _pool(backend)
    with use_faults(plan), use_recovery(
        RecoveryPolicy(timeout=1.5, retries=3, backoff=0.0)
    ):
        try:
            got = pool.map(_square, tasks)
        except ReproError:
            # Typed surfacing is within contract (e.g. a thread-pool
            # timeout, which cannot safely re-execute).
            assert sum(plan.fired().values()) >= 1
            return
    for i, (want, have) in enumerate(zip(expected, got)):
        assert_arrays_identical(f"{spec}[shard {i}]", want, have)
    assert sum(plan.fired().values()) >= 1

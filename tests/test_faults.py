"""Chaos suite: deterministic fault injection + supervised recovery.

The fault framework's contract, pinned here site by site:

* every injected failure ends in either a **bit-identical recovered
  result** or a **typed** :class:`~repro.errors.ReproError` — never a
  hang, never a partial write, never a silent wrong answer;
* recovery is *invisible*: a retried solve is a fresh solve of the
  same inputs, so the only observable of a fired fault is the plan's
  ``fired()`` counter and the server's ``health()``;
* the ``REPRO_FAULTS`` grammar is strictly validated — a typo raises
  :class:`~repro.errors.FaultSpecError` instead of silently running
  fault-free;
* :class:`~repro.faults.InjectedFault` is deliberately **not** a
  ``ReproError``: it models an unexpected crash, and an escaped raw
  instance is a recovery bug by definition.

CI's ``chaos`` job runs this file and then sweeps ``REPRO_FAULTS`` over
the ordinary serving suites (recovery is only real if tests that never
heard of faults stay green).
"""

from __future__ import annotations

import numpy as np
import pytest

from parallel_harness import assert_arrays_identical
from repro.errors import (
    DeadlineExceededError,
    FaultSpecError,
    GraphError,
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
    parse_fault_specs,
    plan_from_env,
    set_fault_plan,
    use_faults,
)
from repro.faults.plan import UNLIMITED
from repro.graphs.generators import random_connected
from repro.serve import FlowServer
from repro.util.validation import st_demand

EPS = 0.4


@pytest.fixture(autouse=True)
def _clean_slate():
    """Disarm any environment plan per test."""
    set_fault_plan(None)
    yield
    set_fault_plan(None)


# ----------------------------------------------------------------------
# Spec grammar + validation
# ----------------------------------------------------------------------
class TestSpecGrammar:
    def test_defaults(self):
        spec = FaultSpec.parse("serve.miss")
        assert spec.site == "serve.miss"
        assert spec.kind == SITES["serve.miss"][0] == "raise"
        assert spec.at == 1 and spec.count == 1

    def test_full_clause(self):
        spec = FaultSpec.parse("serve.miss:hang@3*2")
        assert (spec.site, spec.kind, spec.at, spec.count) == (
            "serve.miss",
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
            " serve.checkout@1 , serve.miss:hang*2 ,, "
        )
        assert [s.site for s in specs] == ["serve.checkout", "serve.miss"]
        assert specs[1].count == 2

    @pytest.mark.parametrize(
        ("clause", "fragment"),
        [
            ("serve.mis", "serve.miss"),  # typo'd site: names valid sites
            ("serve.miss:explode", "raise"),  # unknown kind: names kinds
            ("serve.checkout:hang", "raise"),  # kind from another site
            ("serve.miss@0", "1-based"),  # visits are 1-based
            ("serve.miss*0", "count"),  # count must be >= 1 or inf
            ("serve.miss@@2", "malformed"),  # broken syntax
            ("SERVE.MISS", "malformed"),  # grammar is lowercase, strictly
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
        plan = plan_from_env({"REPRO_FAULTS": "serve.miss:hang@2"})
        assert plan is not None
        assert plan.specs[0].kind == "hang" and plan.specs[0].at == 2
        with pytest.raises(FaultSpecError):
            plan_from_env({"REPRO_FAULTS": "serve.miss:hang@oops"})


# ----------------------------------------------------------------------
# Plan semantics
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_explicit_schedule_counts_visits_and_firings(self):
        plan = FaultPlan(["serve.miss@2"])
        assert plan.maybe_fire("serve.miss") is None
        action = plan.maybe_fire("serve.miss")
        assert action is not None and action.kind == "raise"
        assert plan.maybe_fire("serve.miss") is None
        assert plan.visits()["serve.miss"] == 3
        assert plan.fired()["serve.miss"] == 1

    def test_unknown_site_rejected_at_fire_time(self):
        plan = FaultPlan()
        with pytest.raises(FaultSpecError):
            plan.maybe_fire("serve.nonsense")

    def test_use_faults_scopes_activation(self):
        plan = FaultPlan(["serve.miss@1"])
        assert active_plan() is None
        with use_faults(plan):
            assert active_plan() is plan
        assert active_plan() is None

    def test_every_site_has_a_registered_owner(self):
        # Importing the owning modules (done at the top of this file,
        # transitively) must register a fault point for every site in
        # the catalogue — an orphaned site is untestable dead grammar.
        assert set(FAULT_POINTS) == set(SITES)


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
# REPRO_FAULTS sweep: every (site, kind) the env grammar can name,
# driven exactly as the env would drive it, against FlowServer.route.
# Contract: bit-identical recovery or a typed ReproError — nothing else
# escapes, and nothing hangs.
# ----------------------------------------------------------------------
_SWEEP = ["serve.checkout:raise@1", "serve.miss:raise@1", "serve.miss:hang@1"]


def test_env_sweep_covers_every_site_and_kind():
    swept = {tuple(spec.split("@")[0].split(":")) for spec in _SWEEP}
    assert swept == {
        (site, kind) for site, kinds in SITES.items() for kind in kinds
    }


@pytest.mark.parametrize("spec", _SWEEP)
def test_env_spec_sweep(graph, spec):
    plan = plan_from_env({"REPRO_FAULTS": spec})
    assert plan is not None
    server = FlowServer(graph, epsilon=EPS, rng=602)
    demand = st_demand(graph, 0, graph.num_nodes - 1)
    expected = server.route(demand, use_cache=False)
    with use_faults(plan):
        try:
            result = server.route(demand, use_cache=False)
        except ReproError:
            # Typed surfacing is within contract.
            assert sum(plan.fired().values()) >= 1
            return
    assert_arrays_identical(f"{spec} flow", expected.flow, result.flow)
    assert_arrays_identical(
        f"{spec} residual", expected.residual, result.residual
    )
    assert result.iterations == expected.iterations
    assert plan.fired()[plan.specs[0].site] == 1

"""Serving recovery: failures injected at the server's one seam.

A *seam* is a method the server calls through that a test can replace
with ``monkeypatch``. The server has one: ``server._solve``, the
one-demand miss solve behind ``route``, ``route_st`` and every
``route_batch`` column. Each solve builds its own workspace, so there
is no workspace checkout left to fail.

:func:`inject` wraps it so that chosen calls stall or raise
:class:`Crash` before calling through. The recovery contract, pinned
here at every serving entry point:

* a recoverable failure (one crashed solve, a stalled solve) ends in
  an answer **bit-identical** to a fault-free twin server's, and is
  visible only in ``health()``;
* a failure that is not recovered surfaces **typed**: a crash that
  survives its retry, a missed deadline, a poisoned batch column —
  never raw, never a hang, never a silent wrong answer.

:class:`Crash` is deliberately **not** a
:class:`~repro.errors.ReproError`: it models an unexpected crash, and
one escaping raw from a public entry point is a recovery bug.
"""

from __future__ import annotations

import time
from operator import attrgetter

import numpy as np
import pytest

from parallel_harness import assert_arrays_identical
from repro.errors import (
    DeadlineExceededError,
    GraphError,
    ServingError,
)
from repro.graphs.generators import random_connected
from repro.serve import FlowServer
from repro.util.validation import st_demand

EPS = 0.4

#: How long an injected stall sleeps before the call goes through.
HANG_SECONDS = 0.05


class Crash(RuntimeError):
    """An injected crash; not a ``ReproError``, like any unexpected
    failure the server must absorb or translate."""


def inject(monkeypatch, server, seam, *, crash=(), hang=()):
    """Wrap the seam ``seam`` of ``server`` (``"_solve"``).

    On the 1-based call numbers in ``hang`` the wrapper sleeps
    :data:`HANG_SECONDS`, on those in ``crash`` it raises
    :class:`Crash` (after the stall when a call is in both); every
    other call goes straight through. Returns the list of call numbers
    seen so far, so a test can check that the seam was reached and how
    often."""
    owner_path, _, name = seam.rpartition(".")
    owner = attrgetter(owner_path)(server) if owner_path else server
    real = getattr(owner, name)
    calls: list[int] = []

    def wrapper(*args, **kwargs):
        calls.append(len(calls) + 1)
        if calls[-1] in hang:
            time.sleep(HANG_SECONDS)
        if calls[-1] in crash:
            raise Crash(f"injected crash on call {calls[-1]} of {seam}")
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


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


#: Every recoverable failure, on its first call: failure -> (seam,
#: injection, the health() counter that absorbs it). A stall is
#: absorbed by waiting and moves no counter.
FAILURES = {
    "miss_raise": ("_solve", {"crash": {1}}, "miss_retries"),
    "miss_hang": ("_solve", {"hang": {1}}, None),
}

#: Every serving entry point: entry -> call returning a list of results.
ENTRIES = {
    "route": lambda server, graph: [
        server.route(st_demand(graph, 0, graph.num_nodes - 1))
    ],
    "route_st": lambda server, graph: [
        server.route_st(3, graph.num_nodes - 2, 2.0)
    ],
    "route_batch": lambda server, graph: server.route_batch(
        _plane(graph, 41, 3)
    ),
}


def _assert_recovered(server, failure, calls, expected, served):
    """Bit-identical answers, the seam reached once per column (plus
    the retry), and exactly the failure's counter moved."""
    counter = FAILURES[failure][2]
    for q, (want, have) in enumerate(zip(expected, served, strict=True)):
        assert_arrays_identical(f"flow[{q}]", want.flow, have.flow)
        assert_arrays_identical(f"residual[{q}]", want.residual, have.residual)
        assert have.iterations == want.iterations
    health = server.health()
    assert len(calls) == len(served) + health.miss_retries
    assert {
        "miss_retries": health.miss_retries,
        "column_failures": health.column_failures,
    } == {
        "miss_retries": int(counter == "miss_retries"),
        "column_failures": 0,
    }


class TestServeRecovery:
    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("failure", sorted(FAILURES))
    def test_recovery_is_bit_identical(
        self, graph, monkeypatch, failure, entry
    ):
        twin = FlowServer(graph, epsilon=EPS, rng=602)
        expected = ENTRIES[entry](twin, graph)
        server = FlowServer(graph, epsilon=EPS, rng=602)
        seam, injection, _ = FAILURES[failure]
        calls = inject(monkeypatch, server, seam, **injection)
        served = ENTRIES[entry](server, graph)
        _assert_recovered(server, failure, calls, expected, served)

    @pytest.mark.parametrize("failure", sorted(FAILURES))
    def test_recovery_keeps_the_warm_seed(self, graph, monkeypatch, failure):
        """A failed first attempt after a capacity epoch move neither
        loses nor spends the salvaged warm seed: the answer is the
        fault-free warm answer."""
        demand = st_demand(graph, 0, graph.num_nodes - 1)
        twin, server = (
            FlowServer(graph, epsilon=EPS, rng=602, refresh="incremental")
            for _ in range(2)
        )
        twin.route(demand)
        server.route(demand)
        graph.set_capacity(0, graph.capacity(0) * 0.5)
        expected = [twin.route(demand)]
        seam, injection, _ = FAILURES[failure]
        calls = inject(monkeypatch, server, seam, **injection)
        served = [server.route(demand)]
        _assert_recovered(server, failure, calls, expected, served)
        stats = server.stats()
        assert stats.incremental_refreshes == 1
        assert stats.warm_starts == 1

    def test_miss_failure_on_route_is_retried(
        self, graph, server, monkeypatch
    ):
        """A crashed solve is retried once, invisibly."""
        demand = st_demand(graph, 0, graph.num_nodes - 1)
        baseline = server.route(demand, use_cache=False)
        calls = inject(monkeypatch, server, "_solve", crash={1})
        served = server.route(demand, use_cache=False)
        assert_arrays_identical("flow", baseline.flow, served.flow)
        assert_arrays_identical("residual", baseline.residual, served.residual)
        assert served.iterations == baseline.iterations
        assert len(calls) == 2
        assert server.health().miss_retries == 1

    def test_persistent_miss_failure_on_route_is_typed(
        self, graph, server, monkeypatch
    ):
        """A failure that survives the retry never escapes raw: route
        wraps it in a ServingError carrying the crash as its cause."""
        demand = st_demand(graph, 0, graph.num_nodes - 1)
        calls = inject(monkeypatch, server, "_solve", crash={1, 2})
        with pytest.raises(ServingError) as excinfo:
            server.route(demand, use_cache=False)
        assert isinstance(excinfo.value.__cause__, Crash)
        assert len(calls) == 2
        assert server.health().miss_retries == 1

    def test_persistent_miss_failure_fails_only_its_column(
        self, graph, server, monkeypatch
    ):
        plane = _plane(graph, 44, 4)
        baseline = server.route_batch(plane, use_cache=False)
        calls = inject(monkeypatch, server, "_solve", crash={1, 2})
        results = server.route_batch(plane, use_cache=False, errors="return")
        failure = results[0]
        assert isinstance(failure, ServingError)
        assert "column 0" in str(failure)
        assert isinstance(failure.__cause__, Crash)
        for q in (1, 2, 3):
            assert_arrays_identical(
                f"flow[{q}]", baseline[q].flow, results[q].flow
            )
            assert baseline[q].iterations == results[q].iterations
        # Column 0 crashed twice; the other three solved once each.
        assert len(calls) == 5
        assert server.health().column_failures == 1

    def test_deadline_stops_the_retry(self, graph, monkeypatch):
        """The deadline is checked before the retry too: a first solve
        that stalls past it and then crashes is counted as retried,
        but the second solve never runs."""
        strict = FlowServer(graph, epsilon=EPS, rng=602, deadline=0.02)
        calls = inject(monkeypatch, strict, "_solve", crash={1}, hang={1})
        with pytest.raises(DeadlineExceededError):
            strict.route(
                st_demand(graph, 0, graph.num_nodes - 1), use_cache=False
            )
        assert len(calls) == 1
        health = strict.health()
        assert health.miss_retries == 1
        assert health.deadline_hits == 1

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

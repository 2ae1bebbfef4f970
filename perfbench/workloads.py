"""The three workloads and the closed-loop driver that times them.

Every workload runs on one fixed graph (:mod:`perfbench.inputs`) with
one fixed approximator seed; the run seed draws only the request
stream. One client sends each request after the previous answer
arrived. Each workload has two op types: the *primary* op, whose
latency is ``latency_p10_ms``, and the *secondary* op
(``secondary_p10_ms``). ``serve_mixed`` also has cache *hits*, reported
per layer only. Every answer is checked, untimed, before the next
request goes out; a failed check or a raised error counts as a failed
op.
"""

from __future__ import annotations

import functools
import resource
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import numpy as np

from perfbench.cpu import FastCpu
from perfbench.inputs import (
    BUILD_SEED,
    approximator_hash,
    check_pinned,
    dense_demand,
    edge_arrays,
    graph_fingerprint,
    maxflow_pools,
    pool_demand,
)
from perfbench.spans import Recorder
from repro.core import (
    accelerated_almost_route,
    build_congestion_approximator,
    estimate_rounds,
    max_flow,
    min_congestion_flow,
)
from repro.flow.dinic import dinic_max_flow
from repro.flow.mst import maximum_spanning_tree
from repro.graphs.graph import Graph
from repro.graphs.trees import tree_route_demand
from repro.scenarios.invariants import GUARANTEE_SLACK
from repro.serve import FlowServer

EPSILON = 0.25
#: Identical set-ups per run, spread evenly through it; setup_s is the
#: fastest (the machine's speed drifts, see README.md).
SETUPS = 7
#: Every COMPARE_EVERY-th served answer is recomputed by a direct
#: library call on the server's current approximator.
COMPARE_EVERY = 8
#: In a traced run every TRACE_SKIP-th primary op runs untraced, to
#: measure the tracing overhead inside the same run.
TRACE_SKIP = 4
#: Longest wait for a fast vCPU before an op, as a share of the run.
PATIENCE_SHARE = 1 / 30


class AnswerError(Exception):
    """An answer failed its check."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise AnswerError(message)


@dataclass
class Op:
    """One request: ``run`` is timed, ``check`` is not. ``check`` raises
    :class:`AnswerError` on a wrong answer and returns the answer's
    certified approximation ratio (or ``None``)."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], float | None]


class Network:
    """The benchmark's own view of the graph, for checks that must not
    trust the library: incidence arithmetic on the pinned edge arrays
    and the capacities the workload wrote."""

    def __init__(
        self, num_nodes: int, u: np.ndarray, v: np.ndarray, capacity: np.ndarray
    ) -> None:
        self.num_nodes = num_nodes
        self.u = np.asarray(u, dtype=np.int64)
        self.v = np.asarray(v, dtype=np.int64)
        self.capacity = np.array(capacity, dtype=float)

    def excess(self, flow: np.ndarray) -> np.ndarray:
        """Net inflow per node; ``flow`` routes ``b`` iff ``b + excess = 0``."""
        n = self.num_nodes
        return np.bincount(self.v, weights=flow, minlength=n) - np.bincount(
            self.u, weights=flow, minlength=n
        )

    def congestion(self, flow: np.ndarray) -> float:
        return float(np.max(np.abs(flow) / self.capacity))

    def require_routes(self, demand: np.ndarray, flow: np.ndarray) -> None:
        error = float(np.max(np.abs(demand + self.excess(flow))))
        scale = max(1.0, float(np.max(np.abs(demand))))
        _require(
            error <= 1e-6 * scale,
            f"flow does not route its demand (error {error:.3g})",
        )


class Checker:
    """Untimed answer checks shared by the workloads."""

    def __init__(self, graph: Graph, net: Network) -> None:
        self.graph = graph
        self.net = net
        self.answers = 0
        self._tree: tuple[bytes, Any] | None = None

    def _guarantee(self, alpha: float, lower_bound: float, congestion: float) -> None:
        _require(
            lower_bound <= congestion * (1 + 1e-6) + 1e-12,
            f"lower bound {lower_bound:.6g} exceeds congestion {congestion:.6g}",
        )
        limit = (1 + EPSILON) * alpha * lower_bound * GUARANTEE_SLACK
        _require(
            congestion <= limit,
            f"congestion {congestion:.6g} above (1+eps)*alpha*lb*slack {limit:.6g}",
        )

    def max_flow(self, answer: Any, source: int, sink: int) -> float:
        """Feasible, conserving, and value <= exact <= certified bound."""
        net = self.net
        _require(
            bool(np.all(np.abs(answer.flow) <= net.capacity * (1 + 1e-9))),
            "max-flow exceeds a capacity",
        )
        demand = np.zeros(net.num_nodes)
        demand[source], demand[sink] = answer.value, -answer.value
        net.require_routes(demand, answer.flow)
        exact = dinic_max_flow(self.graph, source, sink).value
        _require(
            answer.value <= exact * (1 + 1e-9),
            f"value {answer.value:.6g} above exact {exact:.6g}",
        )
        _require(
            exact <= answer.certified_upper_bound * (1 + 1e-6),
            f"exact {exact:.6g} above certified bound "
            f"{answer.certified_upper_bound:.6g}",
        )
        ratio = answer.congestion_result.approximation_ratio_bound
        _require(ratio >= 1 - 1e-9, f"certified ratio {ratio:.6g} below 1")
        return ratio

    def congestion_flow(self, answer: Any, demand: np.ndarray, alpha: float) -> float:
        """A completed min-congestion flow within the guarantee."""
        _require(answer.converged, "did not converge")
        self.net.require_routes(demand, answer.flow)
        congestion = self.net.congestion(answer.flow)
        self._guarantee(alpha, answer.lower_bound, congestion)
        return congestion / answer.lower_bound

    def _completion(self, answer: Any, demand: np.ndarray) -> float:
        """Check a served answer and return the congestion of the flow
        that routes the whole demand: the answer plus its residual
        routed over a maximum spanning tree."""
        net = self.net
        _require(answer.converged, "did not converge")
        error = float(np.max(np.abs(demand + net.excess(answer.flow) - answer.residual)))
        _require(
            error <= 1e-9 * max(1.0, float(np.max(np.abs(demand)))),
            f"flow plus residual does not route the demand (error {error:.3g})",
        )
        key = net.capacity.tobytes()
        if self._tree is None or self._tree[0] != key:
            self._tree = (key, maximum_spanning_tree(self.graph))
        total = answer.flow + tree_route_demand(self.graph, self._tree[1], answer.residual)
        net.require_routes(demand, total)
        return net.congestion(total)

    def served(self, answer: Any, demand: np.ndarray, approximator: Any, warm: bool) -> float:
        """Check one served answer; every COMPARE_EVERY-th is recomputed
        by a direct library call (bit-identical when cold, within the
        guarantee when warm-started)."""
        lower_bound = approximator.estimate(demand)
        congestion = self._completion(answer, demand)
        self._guarantee(approximator.alpha, lower_bound, congestion)
        self.answers += 1
        if self.answers % COMPARE_EVERY == 0:
            direct = accelerated_almost_route(
                self.graph, approximator, demand, EPSILON
            )
            if warm:
                cold = self._completion(direct, demand)
                self._guarantee(approximator.alpha, lower_bound, cold)
                limit = (1 + EPSILON) * approximator.alpha * lower_bound * GUARANTEE_SLACK
                _require(
                    abs(congestion - cold) <= limit,
                    f"warm congestion {congestion:.6g} and cold {cold:.6g} disagree",
                )
            else:
                _require(
                    np.array_equal(direct.flow, answer.flow)
                    and direct.iterations == answer.iterations,
                    "served answer differs from the direct library call",
                )
        return congestion / lower_bound


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Maxflow:
    """Algorithm 1 as library calls on one prebuilt approximator.

    Primary: ``max_flow`` on an s-t pair. Secondary:
    ``min_congestion_flow`` on a dense demand. Two primaries per
    secondary; pairs and demands come from the pinned typical-work
    pools. The serving layer is bypassed.
    """

    num_nodes = 256

    def setup(self, graph: Graph) -> Any:
        approximator = build_congestion_approximator(graph, rng=BUILD_SEED)
        approximator.stacked()
        return approximator

    def stream(
        self, graph: Graph, approximator: Any, checker: Checker, rng: np.random.Generator
    ) -> Iterator[Op]:
        n = graph.num_nodes
        pairs, demand_ids = maxflow_pools(n)
        while True:
            for _ in range(2):
                source, sink = pairs[rng.integers(len(pairs))]
                yield Op(
                    "primary",
                    functools.partial(
                        max_flow, graph, source, sink,
                        epsilon=EPSILON, approximator=approximator,
                    ),
                    functools.partial(checker.max_flow, source=source, sink=sink),
                )
            demand = pool_demand(n, demand_ids[rng.integers(len(demand_ids))])
            yield Op(
                "secondary",
                functools.partial(
                    min_congestion_flow, graph, demand,
                    epsilon=EPSILON, approximator=approximator,
                ),
                functools.partial(
                    checker.congestion_flow, demand=demand, alpha=approximator.alpha
                ),
            )


class ServeMixed:
    """One accelerated ``FlowServer`` under a mix of fresh singles
    (primary, cache misses), 8-demand batches (secondary, about 15% of
    requests) and repeats of 16 popular demands (about 30%, cache hits
    after first use)."""

    num_nodes = 512
    batch = 8
    popular = 16

    def setup(self, graph: Graph) -> Any:
        server = FlowServer(
            graph, epsilon=EPSILON, solver="accelerated", rng=BUILD_SEED
        )
        server.approximator.stacked()
        return server

    def stream(
        self, graph: Graph, server: Any, checker: Checker, rng: np.random.Generator
    ) -> Iterator[Op]:
        n = graph.num_nodes
        popular = [dense_demand(rng, n) for _ in range(self.popular)]
        seen: set[int] = set()

        def check_one(answer: Any, demand: np.ndarray) -> float:
            return checker.served(answer, demand, server.approximator, warm=False)

        def check_batch(answers: list, plane: np.ndarray) -> None:
            _require(len(answers) == len(plane), "batch answer count differs")
            for answer, demand in zip(answers, plane):
                check_one(answer, demand)

        while True:
            draw = rng.random()
            if draw < 0.15:
                plane = np.stack([dense_demand(rng, n) for _ in range(self.batch)])
                yield Op(
                    "secondary",
                    functools.partial(server.route_batch, plane),
                    functools.partial(check_batch, plane=plane),
                )
                continue
            if draw < 0.45:
                index = int(rng.integers(self.popular))
                demand = popular[index]
                kind = "hit" if index in seen else "primary"
                seen.add(index)
            else:
                demand = dense_demand(rng, n)
                kind = "primary"
            yield Op(
                kind,
                functools.partial(server.route, demand),
                functools.partial(check_one, demand=demand),
            )


class UpdateStream:
    """One accelerated ``FlowServer(refresh="incremental")`` tracking 4
    demands while ~1% of the capacities are rewritten every cycle.

    Primary: the writes plus the first re-route (journal sync, scoped
    refresh, warm-started solve). Secondary: each further warm re-route.
    """

    num_nodes = 512
    tracked = 4
    write_share = 0.01

    def setup(self, graph: Graph) -> Any:
        server = FlowServer(
            graph,
            epsilon=EPSILON,
            solver="accelerated",
            refresh="incremental",
            rng=BUILD_SEED,
        )
        server.approximator.stacked()
        return server

    def stream(
        self, graph: Graph, server: Any, checker: Checker, rng: np.random.Generator
    ) -> Iterator[Op]:
        # The tracked demands are pinned: a warm re-route's work depends
        # on its demand, so only the writes come from the run seed.
        n = graph.num_nodes
        demands = [pool_demand(n, index) for index in range(self.tracked)]
        for demand in demands:  # cold first answers, untimed
            server.route(demand)
        return self._cycles(graph, server, checker, rng, demands)

    def _cycles(
        self,
        graph: Graph,
        server: Any,
        checker: Checker,
        rng: np.random.Generator,
        demands: list[np.ndarray],
    ) -> Iterator[Op]:
        m = graph.num_edges
        base = checker.net.capacity.copy()
        writes = max(1, round(self.write_share * m))

        def check(answer: Any, demand: np.ndarray) -> float:
            return checker.served(answer, demand, server.approximator, warm=True)

        def update(edges: np.ndarray, values: np.ndarray) -> Any:
            for eid, value in zip(edges.tolist(), values.tolist()):
                graph.set_capacity(eid, value)
            return server.route(demands[0])

        while True:
            edges = rng.choice(m, writes, replace=False)
            values = base[edges] * rng.uniform(0.5, 1.5, size=writes)
            checker.net.capacity[edges] = values
            yield Op(
                "primary",
                functools.partial(update, edges, values),
                functools.partial(check, demand=demands[0]),
            )
            for demand in demands[1:]:
                yield Op(
                    "secondary",
                    functools.partial(server.route, demand),
                    functools.partial(check, demand=demand),
                )


WORKLOADS = {"maxflow": Maxflow, "serve_mixed": ServeMixed, "update_stream": UpdateStream}


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
@dataclass
class RunResult:
    """Everything one run measured."""

    num_nodes: int
    num_edges: int
    graph_fingerprint: str
    approximator_hash: str
    num_trees: int
    alpha: float
    setup_seconds: list[float] = field(default_factory=list)
    samples: dict[str, list[float]] = field(
        default_factory=lambda: {"primary": [], "secondary": [], "hit": []}
    )
    ratios: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    server_counts: dict[str, float] = field(default_factory=dict)
    journal_sizes: list[int] = field(default_factory=list)
    untraced_primary: list[float] = field(default_factory=list)
    primary_answers: list[Any] = field(default_factory=list)
    recorder: Recorder | None = None
    graph: Graph | None = None


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _server_counts(server: Any) -> dict[str, float]:
    if server is None:
        return {}
    stats, health = server.stats(), server.health()
    return {
        "hits": stats.cache.hits,
        "misses": stats.cache.misses,
        "warm_starts": stats.warm_starts,
        "rebuilds": stats.rebuilds,
        "workspace_fallbacks": health.workspace_fallbacks,
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool = False,
    num_nodes: int | None = None,
    tamper: Callable[[Any], Any] | None = None,
) -> RunResult:
    """Run one workload for ``seconds`` of wall time.

    ``num_nodes`` overrides the pinned size (fast tests only; the
    fingerprint check is skipped then), and ``tamper`` rewrites every
    answer before its check (to prove the checks can fail).
    """
    workload = WORKLOADS[name]()
    n = num_nodes or workload.num_nodes
    u, v, capacity = edge_arrays(n)
    fingerprint = graph_fingerprint(u, v, capacity)
    if num_nodes is None:
        check_pinned(n, fingerprint)
    recorder = Recorder() if trace else None
    cpu = FastCpu(patience=seconds * PATIENCE_SHARE)

    def set_up() -> tuple[Graph, Any, float]:
        # A fresh Graph each time: Graph.copy() would share the cached
        # CSR and skip part of the work being measured.
        graph = Graph.from_edge_arrays(n, u, v, capacity)
        cpu.pin()
        with recorder.op("setup") if recorder else nullcontext():
            start = time.perf_counter()
            state = workload.setup(graph)
            elapsed = time.perf_counter() - start
        return graph, state, elapsed

    if recorder:
        recorder.install()
    try:
        graph, state, first = set_up()
        server = state if isinstance(state, FlowServer) else None
        approximator = server.approximator if server else state
        result = RunResult(
            num_nodes=n,
            num_edges=graph.num_edges,
            graph_fingerprint=fingerprint,
            approximator_hash=approximator_hash(approximator),
            num_trees=approximator.num_trees,
            alpha=float(approximator.alpha),
            setup_seconds=[first],
            recorder=recorder,
            graph=graph,
        )
        checker = Checker(graph, Network(n, u, v, capacity))
        rng = np.random.default_rng(seed)
        ops = workload.stream(graph, state, checker, rng)
        counts_before = _server_counts(server)
        _drive(result, ops, seconds, set_up, recorder, tamper, cpu)
        after = _server_counts(server)
        result.server_counts = {
            key: after[key] - counts_before[key] for key in after
        }
        return result
    finally:
        cpu.restore()
        if recorder:
            recorder.uninstall()


def _drive(
    result: RunResult,
    ops: Iterator[Op],
    seconds: float,
    set_up: Callable[[], tuple[Graph, Any, float]],
    recorder: Recorder | None,
    tamper: Callable[[Any], Any] | None,
    cpu: FastCpu,
) -> None:
    start = time.perf_counter()
    deadline = start + seconds
    setups_due = [start + seconds * k / SETUPS for k in range(1, SETUPS)]
    samples = result.samples
    primaries = 0
    while True:
        now = time.perf_counter()
        if setups_due and now >= setups_due[0]:
            setups_due.pop(0)
            result.setup_seconds.append(set_up()[2])
            continue
        # Past the deadline, go on until both op types have a sample (a
        # tiny run may have none yet), unless ops have failed.
        sampled = samples["primary"] and samples["secondary"]
        if now >= deadline and (sampled or result.failed):
            break
        op = next(ops)
        traced = recorder is not None
        if op.kind == "primary":
            primaries += 1
            traced = traced and primaries % TRACE_SKIP != 0
        result.attempted += 1
        cpu.pin()
        try:
            with recorder.op(op.kind) if traced else nullcontext():
                began = time.perf_counter()
                answer = op.run()
                elapsed = time.perf_counter() - began
            if tamper is not None:
                answer = tamper(answer)
            ratio = op.check(answer)
        except Exception as exc:  # a failed op is counted, not fatal
            result.failed += 1
            if len(result.errors) < 5:
                result.errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
            continue
        if recorder is not None and op.kind == "primary" and not traced:
            result.untraced_primary.append(elapsed)
            continue
        samples[op.kind].append(elapsed)
        if op.kind == "primary":
            result.ratios.append(ratio)
            if recorder is not None:
                result.primary_answers.append(answer)
                result.journal_sizes.append(result.graph.journal_size)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(result: RunResult) -> dict[str, tuple[float, str]]:
    """The five end-to-end metrics (untraced runs)."""
    return {
        "setup_s": (min(result.setup_seconds), "s"),
        "latency_p10_ms": (_percentile(result.samples["primary"], 10) * 1e3, "ms"),
        "secondary_p10_ms": (
            _percentile(result.samples["secondary"], 10) * 1e3,
            "ms",
        ),
        "approx_ratio_p50": (_percentile(result.ratios, 50), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else float("nan")


def per_layer(result: RunResult) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from the traced run.

    Times are self times. Unless named otherwise a value is per traced
    primary op; the build layers are per set-up; ``*_us`` values are per
    call; counts of the server and ``congest`` are as described in
    README.md.
    """
    recorder = result.recorder
    if recorder is None:
        raise ValueError("per-layer metrics need a traced run")
    seconds, calls = recorder.self_times()
    kinds = np.asarray(recorder.op_kinds)
    primary = np.flatnonzero(kinds == "primary")
    setups = np.flatnonzero(kinds == "setup")
    column = {name: i for i, name in enumerate(recorder.layers)}

    def per_op(rows: np.ndarray, table: np.ndarray, layer: str) -> float:
        return float(table[rows, column[layer]].mean()) if rows.size else 0.0

    def ms(layer: str, rows: np.ndarray = primary) -> float:
        return per_op(rows, seconds, layer) * 1e3

    def per_call_us(layer: str) -> float:
        total = int(calls[:, column[layer]].sum())
        return float(seconds[:, column[layer]].sum()) / total * 1e6 if total else 0.0

    def counter(key: str, rows: np.ndarray = primary) -> np.ndarray:
        return np.asarray([recorder.counters[i].get(key, 0.0) for i in rows])

    metrics: dict[str, tuple[float, str]] = {
        "core.stacked.apply_ms": (ms("core.stacked.apply"), "ms"),
        "core.stacked.apply_transpose_ms": (ms("core.stacked.apply_transpose"), "ms"),
        "core.stacked.products": (
            per_op(primary, calls, "core.stacked.apply")
            + per_op(primary, calls, "core.stacked.apply_transpose"),
            "count",
        ),
        "core.softmax.ms": (ms("core.softmax"), "ms"),
        "core.softmax.calls": (per_op(primary, calls, "core.softmax"), "count"),
        "graphs.excess_ms": (ms("graphs.excess"), "ms"),
    }
    inclusive = _inclusive_seconds(recorder, primary)
    for solver in ("core.almost_route", "core.accelerated"):
        iterations = counter(solver + ".iterations")
        total = float(iterations.sum())
        metrics[solver + ".iterations_p50"] = (_percentile(list(iterations), 50), "count")
        metrics[solver + ".iterations_p90"] = (_percentile(list(iterations), 90), "count")
        metrics[solver + ".scalings"] = (float(counter(solver + ".scalings").mean()), "count")
        metrics[solver + ".self_ms"] = (ms(solver), "ms")
        metrics[solver + ".us_per_iteration"] = (
            inclusive[column[solver]] / total * 1e6 if total else 0.0,
            "us",
        )
    metrics.update(
        {
            "core.maxflow.calls": (per_op(primary, calls, "core.almost_route"), "count"),
            "core.maxflow.self_ms": (ms("core.maxflow"), "ms"),
            "flow.fixup_ms": (ms("flow.fixup"), "ms"),
            "jtree.sample_ms": (ms("jtree.sample", setups), "ms"),
            "lsst.akpw_ms": (ms("lsst.akpw", setups), "ms"),
            "sparsify.ms": (ms("sparsify", setups), "ms"),
            "cluster.contract_ms": (ms("cluster.contract", setups), "ms"),
            "graphs.cut_capacities_ms": (ms("graphs.cut_capacities", setups), "ms"),
            "flow.alpha_ms": (ms("flow.alpha", setups), "ms"),
            "core.stacked.fuse_ms": (ms("core.stacked.fuse", setups), "ms"),
            "core.approximator.trees": (
                float(counter("core.approximator.trees", setups).mean()),
                "count",
            ),
            "core.approximator.trees_resampled": (
                float(counter("core.approximator.trees_resampled").mean()),
                "count",
            ),
            "core.approximator.refresh_ms": (ms("core.approximator.refresh"), "ms"),
        }
    )
    server = result.server_counts
    primaries = len(result.samples["primary"]) + len(result.untraced_primary)
    lookups = server.get("hits", 0) + server.get("misses", 0)
    metrics.update(
        {
            "serve.self_ms": (ms("serve"), "ms"),
            "serve.hit_ratio": (
                server.get("hits", 0) / lookups if lookups else 0.0,
                "ratio",
            ),
            "serve.hit_us_p50": (
                _percentile(result.samples["hit"], 50) * 1e6
                if result.samples["hit"]
                else 0.0,
                "us",
            ),
            "serve.digest_us": (per_call_us("serve.digest"), "us"),
            "serve.warm_starts": (
                server.get("warm_starts", 0) / max(1, primaries),
                "count",
            ),
            "serve.rebuilds": (float(server.get("rebuilds", 0)), "count"),
            "serve.workspace_fallbacks": (
                float(server.get("workspace_fallbacks", 0)),
                "count",
            ),
            "graphs.set_capacity_us": (per_call_us("graphs.set_capacity"), "us"),
            "graphs.journal_records": (
                float(np.mean(result.journal_sizes)) if result.journal_sizes else 0.0,
                "count",
            ),
        }
    )
    construction, descent = _rounds(result)
    metrics["congest.rounds_construction"] = (construction, "count")
    metrics["congest.rounds_descent"] = (descent, "count")
    durations = recorder.op_durations()[primary]
    total = float(durations.sum())
    metrics["unaccounted_share"] = (
        float(seconds[primary, column["unaccounted"]].sum()) / total if total else 0.0,
        "ratio",
    )
    untraced = _percentile(result.untraced_primary, 10)
    metrics["trace.overhead_share"] = (
        _percentile(list(durations), 10) / untraced - 1.0
        if result.untraced_primary
        else 0.0,
        "ratio",
    )
    return metrics


def _inclusive_seconds(recorder: Recorder, ops: np.ndarray) -> np.ndarray:
    """Inclusive seconds per layer over ``ops``: the durations of each
    layer's outermost spans (a span nested in its own layer is skipped)."""
    spans = recorder.arrays()
    layer, parent = spans["layer"], spans["parent"]
    parent_layer = np.where(parent >= 0, layer[np.maximum(parent, 0)], -1)
    keep = np.isin(spans["op"], ops) & (parent_layer != layer)
    return np.bincount(
        layer[keep],
        weights=(spans["end"] - spans["start"])[keep],
        minlength=len(recorder.layers),
    )


def _rounds(result: RunResult) -> tuple[float, float]:
    """CONGEST rounds (``repro.core.rounds``) of the traced max-flow
    solves: construction per build, median descent per solve."""
    recorder = result.recorder
    answers = [a for a in result.primary_answers if hasattr(a, "congestion_result")]
    if not answers or recorder is None or recorder.samples is None:
        return 0.0, 0.0
    graph = result.graph
    diameter = graph.diameter()
    estimates = [
        estimate_rounds(
            graph, recorder.samples, a.congestion_result, EPSILON, diameter=diameter
        )
        for a in answers
    ]
    return (
        float(estimates[0].construction),
        float(np.median([e.descent for e in estimates])),
    )

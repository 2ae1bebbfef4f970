"""Scenario runner: execute a matrix, assert invariants, record perf.

``run_matrix`` runs each scenario on its own topology build, failure
application, exact Dinic solve and congestion approximator, routes its
demand plane, and asserts the invariants
(:mod:`repro.scenarios.invariants`) on the routed flows; perf is
recorded per scenario (one record per Topology × Demand × Failure
point).

The approximator is built through an injectable ``build_approximator``
hook so the suite's mutation test can hand the runner a deliberately
broken R and prove the invariants catch it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from repro.core.almost_route import RouteWorkspace
from repro.core.approximator import (
    TreeCongestionApproximator,
    build_congestion_approximator,
)
from repro.core.maxflow import ApproxFlow, max_flow, min_congestion_flow
from repro.errors import ScenarioError
from repro.flow.dinic import dinic_max_flow
from repro.graphs.graph import Graph
from repro.graphs.journal import rescale_flow
from repro.scenarios import demand as demand_models
from repro.scenarios import invariants
from repro.scenarios.demand import generate_demands
from repro.scenarios.failures import apply_failure
from repro.scenarios.spec import (
    FailureReport,
    Scenario,
    resolve_demand,
    resolve_failure,
    resolve_topology,
    scenario_seed,
)
from repro.util.rng import as_generator
from repro.util.validation import check_demand_batch

__all__ = [
    "ApproximatorFactory",
    "MatrixResult",
    "ScenarioRecord",
    "default_approximator",
    "run_matrix",
]

#: Builds the congestion approximator for a (graph, seed) pair. The
#: runner's injection point for the mutation test.
ApproximatorFactory = Callable[[Graph, int], TreeCongestionApproximator]

#: Warm re-route stage: capacity multiplier and fraction of edges the
#: mid-run degradation touches before the warm-seeded re-route.
WARM_DEGRADE_FACTOR = 0.5
WARM_FRACTION = 0.05


def default_approximator(
    graph: Graph, seed: int
) -> TreeCongestionApproximator:
    """The production approximator under a scenario-derived seed."""
    return build_congestion_approximator(graph, rng=seed)


@dataclass(frozen=True)
class ScenarioRecord:
    """Outcome of one scenario.

    ``route_seconds`` is the wall time of routing the full demand
    plane; ``congestion`` / ``lower_bound`` are the worst over its
    queries. ``invariants_checked`` counts the invariant assertions
    that guarded this record.
    """

    scenario: Scenario
    num_nodes: int
    num_edges: int
    failed_edges: int
    version_delta: int
    exact_value: float
    maxflow_value: float
    certified_upper_bound: float
    alpha: float
    congestion: float
    lower_bound: float
    iterations: int
    route_seconds: float
    invariants_checked: int


@dataclass
class MatrixResult:
    """All records of a matrix run plus run-level accounting."""

    records: list[ScenarioRecord] = field(default_factory=list)
    total_seconds: float = 0.0

    def by_name(self) -> dict[str, ScenarioRecord]:
        return {record.scenario.name: record for record in self.records}


def _route_plane(
    graph: Graph,
    plane: np.ndarray,
    epsilon: float,
    approximator: TreeCongestionApproximator,
    workspace: RouteWorkspace,
) -> tuple[list[ApproxFlow], float]:
    """Route every demand of the plane; returns the per-query results
    and the wall time of the sweep."""
    results: list[ApproxFlow] = []
    start = time.perf_counter()
    for row in plane:
        results.append(
            min_congestion_flow(
                graph,
                row,
                epsilon=epsilon,
                approximator=approximator,
                workspace=workspace,
            )
        )
    return results, time.perf_counter() - start


def _warm_reroute_stage(
    scenario: Scenario,
    graph: Graph,
    demand: np.ndarray,
    approximator: TreeCongestionApproximator,
    workspace: RouteWorkspace,
    previous: ApproxFlow,
) -> int:
    """Route → degrade → re-route warm (the dynamic-graph stage).

    After the scenario's routing is done, degrade a deterministic ~5% of
    edges through ``set_capacity``, read the capacity delta back from
    the graph's journal, recompute every tree's cut capacities exactly
    in place (same trees, same α, nothing resampled), and re-route the
    first demand twice: seeded with the previous flow rescaled to the
    new capacities, and cold. Asserts epoch accounting for the stage's own writes, exact
    conservation of the warm flow, and warm/cold agreement to the
    guarantee bound. Returns the number of invariant checks performed.

    Runs last on purpose — it mutates the scenario's graph, so the
    recorded routing has already happened.
    """
    epoch = graph._version
    rng = as_generator(
        scenario_seed(scenario.seed, "warm-reroute", scenario.topology)
    )
    count = max(1, int(graph.num_edges * WARM_FRACTION))
    edges = np.sort(rng.choice(graph.num_edges, size=count, replace=False))
    for eid in edges.tolist():
        graph.set_capacity(
            int(eid), graph.capacity(int(eid)) * WARM_DEGRADE_FACTOR
        )
    invariants.check_epoch_accounting(
        f"{scenario.name}#warm",
        FailureReport(
            name="warm-degrade",
            edge_ids=edges,
            version_delta=graph._version - epoch,
        ),
    )
    delta = graph.deltas_since(epoch)
    if delta is None:
        raise ScenarioError(
            f"scenario {scenario.name!r}: journal lost a capacity-only "
            f"delta of {count} edges (overflowed="
            f"{graph.journal_overflowed})"
        )
    approximator.refresh_capacities()
    warm = min_congestion_flow(
        graph,
        demand,
        epsilon=scenario.epsilon,
        approximator=approximator,
        workspace=workspace,
        initial_flow=rescale_flow(previous.flow, delta),
    )
    cold = min_congestion_flow(
        graph,
        demand,
        epsilon=scenario.epsilon,
        approximator=approximator,
        workspace=workspace,
    )
    label = f"{scenario.name}#warm"
    invariants.check_conservation(label, graph, warm)
    invariants.check_warm_agreement(
        label, warm, cold, approximator, scenario.epsilon
    )
    return 3


def _run_scenario(
    scenario: Scenario, build_approximator: ApproximatorFactory
) -> ScenarioRecord:
    topology_spec = resolve_topology(scenario.topology)
    demand_spec = resolve_demand(scenario.demand)
    failure_spec = resolve_failure(scenario.failure)
    instance = topology_spec.build(scenario.seed)
    if demand_spec.requires_planted and instance.planted is None:
        raise ScenarioError(
            f"scenario {scenario.name!r}: demand model "
            f"{demand_spec.name!r} requires a planted-cut topology"
        )

    # Failure plane: mutate through set_capacity and pin the epoch
    # accounting before anything downstream consumes the capacities.
    report = apply_failure(instance, failure_spec, scenario.seed)
    invariants.check_epoch_accounting(scenario.name, report)
    graph = instance.graph

    # Exact oracle and s-t invariants.
    source, sink = instance.source_sink()
    exact = dinic_max_flow(graph, source, sink)
    approximator = build_approximator(
        graph, scenario_seed(scenario.seed, "approximator", scenario.topology)
    )
    workspace = RouteWorkspace(graph, approximator)
    approx_result = max_flow(
        graph,
        source,
        sink,
        epsilon=scenario.epsilon,
        approximator=approximator,
        workspace=workspace,
    )
    invariants.check_maxflow_vs_exact(
        scenario.name, approx_result, exact.value
    )

    plane = generate_demands(
        instance, demand_spec, scenario.num_queries, scenario.seed
    )
    plane = check_demand_batch(graph, plane)
    results, seconds = _route_plane(
        graph, plane, scenario.epsilon, approximator, workspace
    )
    checked = 2  # epoch accounting + max-flow vs exact
    for query, result in enumerate(results):
        label = f"{scenario.name}#q{query}"
        invariants.check_conservation(label, graph, result)
        invariants.check_congestion_soundness(label, result)
        invariants.check_congestion_guarantee(
            label, result, approximator, scenario.epsilon
        )
        checked += 3
        if demand_spec.requires_planted:
            invariants.check_planted_detection(
                label, result, approximator, demand_models.SATURATION
            )
            checked += 1

    # The warm re-route stage mutates the graph, so it runs strictly
    # after the plane has been routed.
    checked += _warm_reroute_stage(
        scenario, graph, plane[0], approximator, workspace, results[0]
    )
    return ScenarioRecord(
        scenario=scenario,
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        failed_edges=int(report.edge_ids.shape[0]),
        version_delta=report.version_delta,
        exact_value=exact.value,
        maxflow_value=approx_result.value,
        certified_upper_bound=approx_result.certified_upper_bound,
        alpha=approximator.alpha,
        congestion=max(result.congestion for result in results),
        lower_bound=max(result.lower_bound for result in results),
        iterations=sum(result.iterations for result in results),
        route_seconds=seconds,
        invariants_checked=checked,
    )


def run_matrix(
    scenarios: Iterable[Scenario],
    build_approximator: ApproximatorFactory | None = None,
    progress: Callable[[str], None] | None = None,
) -> MatrixResult:
    """Run a scenario matrix, asserting every invariant.

    Args:
        scenarios: The matrix (e.g. from ``build_matrix`` or the
            corpus).
        build_approximator: Approximator factory override (the mutation
            test injects a sabotaged one; default is production).
        progress: Optional callback invoked with each scenario's axes.

    Returns:
        A :class:`MatrixResult` with one record per scenario.

    Raises:
        InvariantViolation: The first invariant any scenario breaks.
        ScenarioError: Malformed matrix (unknown axis names, a scenario
            named twice, incompatible demand/topology pair).
    """
    matrix = list(scenarios)
    if len(set(matrix)) != len(matrix):
        raise ScenarioError(
            "scenario matrix names a scenario more than once: "
            f"{[s.name for s in matrix]}"
        )
    factory = build_approximator or default_approximator
    result = MatrixResult()
    start = time.perf_counter()
    for scenario in matrix:
        if progress is not None:
            progress(
                f"{scenario.topology} x {scenario.demand} x "
                f"{scenario.failure}"
            )
        result.records.append(_run_scenario(scenario, factory))
    result.total_seconds = time.perf_counter() - start
    return result

"""Declarative scenario grammar: Topology × Demand × Failure.

A *scenario* is a point in the three-axis product the ROADMAP's
"as many scenarios as you can imagine" item asks for:

* **Topology** — a named, seeded graph family
  (:data:`TOPOLOGIES`): the classic grid/torus workloads plus the
  PR 9 families (power-law configuration model, road-network-like
  grid, planted bottleneck with a known min-cut);
* **DemandModel** — a named generator of demand vectors
  (:data:`DEMANDS`): gravity traffic matrices, hotspot churn, and
  adversarial demands straddling a planted cut;
* **FailureModel** — a named capacity mutation
  (:data:`FAILURES`): edge deletion (capacity floored) and capacity
  degradation, applied through the write-through
  ``Graph.set_capacity`` / ``_version`` epoch machinery.

Construction and routing run on the calling thread, so a scenario
names no execution backend.

Axes are registered by name so the corpus (:mod:`repro.scenarios
.corpus`), the CLI (``tools/run_scenarios.py``), tests, and the
generated ``EXPERIMENTS.md`` all speak the same vocabulary; an unknown
name raises :class:`~repro.errors.ScenarioError` instead of silently
running nothing.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from repro.errors import ScenarioError
from repro.graphs.generators import (
    PlantedBottleneckGraph,
    grid,
    planted_bottleneck,
    power_law,
    road_network,
    torus,
)
from repro.graphs.graph import Graph

__all__ = [
    "DEMANDS",
    "FAILURES",
    "TOPOLOGIES",
    "DemandSpec",
    "FailureReport",
    "FailureSpec",
    "Scenario",
    "TopologyInstance",
    "TopologySpec",
    "build_matrix",
    "resolve_demand",
    "resolve_failure",
    "resolve_topology",
    "scenario_seed",
]

@dataclass(frozen=True, eq=False)
class TopologyInstance:
    """A built topology: the graph plus optional planted-cut metadata."""

    name: str
    graph: Graph
    planted: PlantedBottleneckGraph | None = None

    def source_sink(self) -> tuple[int, int]:
        """The scenario's canonical s-t pair: across the planted cut
        when one exists, corner to corner otherwise."""
        if self.planted is not None:
            left = int(np.flatnonzero(self.planted.left)[0])
            right = int(np.flatnonzero(~self.planted.left)[-1])
            return left, right
        return 0, self.graph.num_nodes - 1


@dataclass(frozen=True)
class TopologySpec:
    """A named, seeded topology family. ``planted`` marks families
    whose instances carry planted-cut metadata (the compatibility
    axis for ``requires_planted`` demand models)."""

    name: str
    build: Callable[[int], TopologyInstance] = field(compare=False)
    description: str = ""
    planted: bool = False


@dataclass(frozen=True)
class DemandSpec:
    """A named demand model.

    ``generate(instance, num_queries, seed)`` returns a ``(Q, n)``
    plane of zero-sum demand vectors; models with
    ``requires_planted=True`` are only compatible with topologies that
    carry planted-cut metadata (the matrix builder skips incompatible
    pairs; an explicit incompatible request raises).
    """

    name: str
    generate: Callable[[TopologyInstance, int, int], np.ndarray] = field(
        compare=False
    )
    requires_planted: bool = False
    description: str = ""


@dataclass(frozen=True, eq=False)
class FailureReport:
    """What a failure model did to the graph.

    Attributes:
        name: The failure model's registry name.
        edge_ids: The edges whose capacities were overwritten.
        version_delta: How many epochs ``Graph._version`` advanced —
            must equal ``len(edge_ids)`` (one write-through per edge);
            the runner asserts this, pinning the epoch machinery.
    """

    name: str
    edge_ids: np.ndarray
    version_delta: int


@dataclass(frozen=True)
class FailureSpec:
    """A named failure model applied through ``set_capacity``."""

    name: str
    apply: Callable[[TopologyInstance, int], FailureReport] = field(
        compare=False
    )
    description: str = ""


@dataclass(frozen=True)
class Scenario:
    """One point of the Topology × Demand × Failure product.

    Attributes:
        topology / demand / failure: Registry names for the three axes.
        epsilon: Accuracy parameter of the congestion minimization.
        num_queries: How many demand vectors the demand model emits.
        seed: Base seed; every randomized stage derives its own stream
            from this plus the axis names, so two scenarios sharing a
            topology build bit-identical graphs.
    """

    topology: str
    demand: str
    failure: str
    epsilon: float = 0.5
    num_queries: int = 2
    seed: int = 9090

    @property
    def name(self) -> str:
        return f"{self.topology}__{self.demand}__{self.failure}"


def scenario_seed(base: int, *names: str) -> int:
    """A deterministic per-stage seed: the base seed mixed with the
    stage/axis names (CRC-folded so adding axes never perturbs the
    streams of unrelated stages)."""
    digest = zlib.crc32("/".join(names).encode("utf-8"))
    return (int(base) * 1_000_003 + digest) % (2**31 - 1)


# ----------------------------------------------------------------------
# Registries. Populated here (topologies) and by repro.scenarios.demand
# / repro.scenarios.failures at import time (the package __init__
# imports all three, so the registries are complete after
# ``import repro.scenarios``).
# ----------------------------------------------------------------------
TOPOLOGIES: dict[str, TopologySpec] = {}
DEMANDS: dict[str, DemandSpec] = {}
FAILURES: dict[str, FailureSpec] = {}


def _register_topology(spec: TopologySpec) -> TopologySpec:
    if spec.name in TOPOLOGIES:
        raise ScenarioError(f"duplicate topology name {spec.name!r}")
    TOPOLOGIES[spec.name] = spec
    return spec


def register_demand(spec: DemandSpec) -> DemandSpec:
    if spec.name in DEMANDS:
        raise ScenarioError(f"duplicate demand name {spec.name!r}")
    DEMANDS[spec.name] = spec
    return spec


def register_failure(spec: FailureSpec) -> FailureSpec:
    if spec.name in FAILURES:
        raise ScenarioError(f"duplicate failure name {spec.name!r}")
    FAILURES[spec.name] = spec
    return spec


def resolve_topology(name: str) -> TopologySpec:
    try:
        return TOPOLOGIES[name]
    except KeyError:
        raise ScenarioError(
            f"unknown topology {name!r}; expected one of "
            f"{sorted(TOPOLOGIES)}"
        ) from None


def resolve_demand(name: str) -> DemandSpec:
    try:
        return DEMANDS[name]
    except KeyError:
        raise ScenarioError(
            f"unknown demand model {name!r}; expected one of "
            f"{sorted(DEMANDS)}"
        ) from None


def resolve_failure(name: str) -> FailureSpec:
    try:
        return FAILURES[name]
    except KeyError:
        raise ScenarioError(
            f"unknown failure model {name!r}; expected one of "
            f"{sorted(FAILURES)}"
        ) from None


# ----------------------------------------------------------------------
# Topology families
# ----------------------------------------------------------------------
def _torus_instance(name: str, rows: int, cols: int) -> TopologySpec:
    def build(seed: int) -> TopologyInstance:
        return TopologyInstance(
            name, torus(rows, cols, rng=scenario_seed(seed, "topology", name))
        )

    return _register_topology(
        TopologySpec(name, build, f"{rows}x{cols} torus (regular, D-bound)")
    )


def _grid_instance(name: str, rows: int, cols: int) -> TopologySpec:
    def build(seed: int) -> TopologyInstance:
        return TopologyInstance(
            name, grid(rows, cols, rng=scenario_seed(seed, "topology", name))
        )

    return _register_topology(
        TopologySpec(name, build, f"{rows}x{cols} grid (high diameter)")
    )


def _power_law_instance(name: str, num_nodes: int) -> TopologySpec:
    def build(seed: int) -> TopologyInstance:
        return TopologyInstance(
            name,
            power_law(
                num_nodes,
                exponent=2.5,
                rng=scenario_seed(seed, "topology", name),
                min_degree=2,
            ),
        )

    return _register_topology(
        TopologySpec(
            name, build, f"n={num_nodes} power-law configuration model (hubs)"
        )
    )


def _road_instance(name: str, rows: int, cols: int) -> TopologySpec:
    def build(seed: int) -> TopologyInstance:
        return TopologyInstance(
            name,
            road_network(
                rows, cols, rng=scenario_seed(seed, "topology", name)
            ),
        )

    return _register_topology(
        TopologySpec(
            name,
            build,
            f"{rows}x{cols} grid with deletions + long-range shortcuts",
        )
    )


def _planted_instance(
    name: str, side_nodes: int, bridge_edges: int, bridge_capacity: float
) -> TopologySpec:
    def build(seed: int) -> TopologyInstance:
        planted = planted_bottleneck(
            side_nodes,
            bridge_edges=bridge_edges,
            bridge_capacity=bridge_capacity,
            rng=scenario_seed(seed, "topology", name),
        )
        return TopologyInstance(name, planted.graph, planted)

    return _register_topology(
        TopologySpec(
            name,
            build,
            f"2x{side_nodes} planted bottleneck "
            f"(min-cut {bridge_edges * bridge_capacity:g} by construction)",
            planted=True,
        )
    )


_torus_instance("torus_9x9", 9, 9)
_grid_instance("grid_12x12", 12, 12)
_power_law_instance("power_law_96", 96)
_power_law_instance("power_law_160", 160)
_road_instance("road_12x12", 12, 12)
_planted_instance("planted_60", 60, bridge_edges=3, bridge_capacity=2.0)


# ----------------------------------------------------------------------
# Matrix construction
# ----------------------------------------------------------------------
def build_matrix(
    topologies: Iterable[str],
    demands: Iterable[str],
    failures: Iterable[str],
    epsilon: float = 0.5,
    num_queries: int = 2,
    seed: int = 9090,
) -> list[Scenario]:
    """The compatible cross-product of the three axes.

    Demand models with ``requires_planted=True`` are paired only with
    topologies that carry planted-cut metadata — the skip is the
    *matrix builder's* compatibility rule; handing an incompatible
    scenario directly to the runner raises ``ScenarioError``.
    """
    failure_list = list(failures)
    for failure in failure_list:
        resolve_failure(failure)
    out: list[Scenario] = []
    for topology in list(topologies):
        for demand in list(demands):
            if resolve_demand(demand).requires_planted and (
                not resolve_topology(topology).planted
            ):
                continue
            for failure in failure_list:
                out.append(
                    Scenario(
                        topology=topology,
                        demand=demand,
                        failure=failure,
                        epsilon=epsilon,
                        num_queries=num_queries,
                        seed=seed,
                    )
                )
    return out

"""Failure models: edge deletion and capacity degradation.

Failures mutate the already-built topology exclusively through
``Graph.set_capacity`` — the write-through path that bumps the graph's
``_version`` epoch and journals the write — so every scenario
with a non-trivial failure model doubles as a regression test of the
dynamic-graph machinery. The runner asserts that ``_version`` advanced
exactly once per touched edge (``FailureReport.version_delta``).

``Graph.set_capacity`` rejects non-positive capacities (the solver's
1/c weights would blow up), so "deleting" an edge means flooring its
capacity at :data:`DELETED_CAPACITY` — small enough that no sane
routing uses the edge, while keeping the CSR structure and
connectivity facts intact.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import WIDE_DTYPE
from repro.scenarios.spec import (
    FailureReport,
    FailureSpec,
    TopologyInstance,
    register_failure,
    scenario_seed,
)
from repro.util.rng import as_generator

__all__ = [
    "DELETED_CAPACITY",
    "apply_failure",
    "degrade_failure",
    "delete_failure",
    "no_failure",
    "restore_failure",
]

#: Capacity assigned to a "deleted" edge. Strictly positive (a
#: structural requirement of the solver) but ~1e6x below the smallest
#: generated capacity, so deleted edges carry negligible flow.
DELETED_CAPACITY = 1e-6

#: Fraction of edges a failure model touches.
FAILURE_FRACTION = 0.1

#: Multiplier applied by the degradation model.
DEGRADE_FACTOR = 0.25

#: Multiplier applied by the restoration model (capacity *increase* —
#: the recovery half of a degrade/restore cycle).
RESTORE_FACTOR = 4.0


def _sample_edges(
    instance: TopologyInstance, seed: int, kind: str
) -> np.ndarray:
    """A deterministic sample of ~FAILURE_FRACTION of the edges,
    avoiding bridge edges on planted topologies so deletions never
    collapse the planted cut to (near) zero capacity."""
    graph = instance.graph
    rng = as_generator(scenario_seed(seed, "failure", kind))
    count = max(1, int(graph.num_edges * FAILURE_FRACTION))
    candidates = np.arange(graph.num_edges, dtype=WIDE_DTYPE)
    if instance.planted is not None:
        mask = np.ones(graph.num_edges, dtype=bool)
        mask[instance.planted.bridge_edges] = False
        candidates = candidates[mask]
    chosen = rng.choice(candidates, size=min(count, candidates.shape[0]), replace=False)
    return np.sort(chosen).astype(WIDE_DTYPE)


def no_failure(instance: TopologyInstance, seed: int) -> FailureReport:
    """The identity failure model — the healthy baseline every other
    model is compared against."""
    return FailureReport(
        name="none",
        edge_ids=np.empty(0, dtype=WIDE_DTYPE),
        version_delta=0,
    )


def delete_failure(instance: TopologyInstance, seed: int) -> FailureReport:
    """Delete ~10% of edges by flooring their capacity at
    DELETED_CAPACITY (connectivity-preserving by construction)."""
    graph = instance.graph
    edges = _sample_edges(instance, seed, "delete")
    before = graph._version
    for eid in edges.tolist():
        graph.set_capacity(int(eid), DELETED_CAPACITY)
    return FailureReport(
        name="delete",
        edge_ids=edges,
        version_delta=graph._version - before,
    )


def degrade_failure(instance: TopologyInstance, seed: int) -> FailureReport:
    """Degrade ~10% of edges to DEGRADE_FACTOR of their capacity."""
    graph = instance.graph
    edges = _sample_edges(instance, seed, "degrade")
    caps = graph.capacities()[edges] * DEGRADE_FACTOR
    before = graph._version
    for eid, cap in zip(edges.tolist(), caps.tolist()):
        graph.set_capacity(int(eid), float(cap))
    return FailureReport(
        name="degrade",
        edge_ids=edges,
        version_delta=graph._version - before,
    )


def restore_failure(instance: TopologyInstance, seed: int) -> FailureReport:
    """Restore ~10% of edges to RESTORE_FACTOR of their capacity — the
    capacity-*increase* direction. Exercises the same set_capacity /
    journal path as degradation but shifts optimal routings toward the
    restored edges, so warm re-routes seeded from the pre-restore flow
    must still converge to the guarantee (a seed the optimum moved away
    from)."""
    graph = instance.graph
    edges = _sample_edges(instance, seed, "restore")
    caps = graph.capacities()[edges] * RESTORE_FACTOR
    before = graph._version
    for eid, cap in zip(edges.tolist(), caps.tolist()):
        graph.set_capacity(int(eid), float(cap))
    return FailureReport(
        name="restore",
        edge_ids=edges,
        version_delta=graph._version - before,
    )


register_failure(
    FailureSpec("none", no_failure, description="healthy baseline")
)
register_failure(
    FailureSpec(
        "delete",
        delete_failure,
        description=(
            f"~{FAILURE_FRACTION:.0%} of edges floored to "
            f"{DELETED_CAPACITY:g} capacity"
        ),
    )
)
register_failure(
    FailureSpec(
        "degrade",
        degrade_failure,
        description=(
            f"~{FAILURE_FRACTION:.0%} of edges cut to "
            f"{DEGRADE_FACTOR:g}x capacity"
        ),
    )
)
register_failure(
    FailureSpec(
        "restore",
        restore_failure,
        description=(
            f"~{FAILURE_FRACTION:.0%} of edges raised to "
            f"{RESTORE_FACTOR:g}x capacity"
        ),
    )
)


def apply_failure(
    instance: TopologyInstance, model: FailureSpec, seed: int
) -> FailureReport:
    """Apply the model in place and return its report."""
    return model.apply(instance, seed)

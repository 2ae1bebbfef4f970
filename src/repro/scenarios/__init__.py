"""Declarative scenario corpus: Topology × Demand × Failure.

``import repro.scenarios`` is enough to populate every axis registry
(the demand and failure modules register their models at import time);
the public surface re-exports the grammar (:mod:`~repro.scenarios
.spec`), the corpora (:mod:`~repro.scenarios.corpus`), the runner
(:mod:`~repro.scenarios.runner`) and the report/bench writers
(:mod:`~repro.scenarios.report`). See ROADMAP.md's "Scenario corpus"
section for the grammar and the invariant catalogue.
"""

from repro.scenarios import demand as _demand  # registers demand models
from repro.scenarios import failures as _failures  # registers failures
from repro.scenarios.corpus import (
    BENCH_SUBSET,
    CORPUS_SEED,
    full_matrix,
    quick_matrix,
)
from repro.scenarios.runner import (
    ApproximatorFactory,
    MatrixResult,
    ScenarioRecord,
    default_approximator,
    run_matrix,
)
from repro.scenarios.spec import (
    DEMANDS,
    FAILURES,
    TOPOLOGIES,
    DemandSpec,
    FailureReport,
    FailureSpec,
    Scenario,
    TopologyInstance,
    TopologySpec,
    build_matrix,
    resolve_demand,
    resolve_failure,
    resolve_topology,
    scenario_seed,
)

__all__ = [
    "BENCH_SUBSET",
    "CORPUS_SEED",
    "DEMANDS",
    "FAILURES",
    "TOPOLOGIES",
    "ApproximatorFactory",
    "DemandSpec",
    "FailureReport",
    "FailureSpec",
    "MatrixResult",
    "Scenario",
    "ScenarioRecord",
    "TopologyInstance",
    "TopologySpec",
    "build_matrix",
    "default_approximator",
    "full_matrix",
    "quick_matrix",
    "resolve_demand",
    "resolve_failure",
    "resolve_topology",
    "run_matrix",
    "scenario_seed",
]

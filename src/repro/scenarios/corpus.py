"""The named scenario corpora: quick (CI) and full (nightly/local).

The quick corpus is the matrix ``tools/run_scenarios.py --quick``
executes and the CI ``scenarios`` job gates on. Gradient-iteration
counts — and therefore runtimes — are deterministic under the corpus
seed, so the quick matrix is *tuned on measured iteration budgets*:
the cheap planted-bottleneck topology carries the widest demand and
failure axes, while the heavier topologies (road network, power law,
torus) run two demands and two failures. The full corpus widens every
axis.

``BENCH_SUBSET`` names the scenarios whose routing time feeds
``BENCH_scenarios.json`` — shared here so ``tools/bench_regression.py``
re-measures exactly the rows the runner recorded.
"""

from __future__ import annotations

from repro.scenarios.spec import Scenario, build_matrix

__all__ = [
    "BENCH_SUBSET",
    "CORPUS_SEED",
    "QUICK_EPSILON",
    "full_matrix",
    "quick_matrix",
]

#: Shared base seed of every corpus scenario.
CORPUS_SEED = 9090

#: ε for corpus runs. Looser than the library default to keep the
#: matrix fast; 0.5 keeps the max-flow quality invariant meaningful.
QUICK_EPSILON = 0.5

#: Scenario names whose route time becomes a benchmark metric. Every
#: name must appear in the quick matrix.
BENCH_SUBSET = (
    "torus_9x9__gravity__none",
    "power_law_96__hotspot__degrade",
    "planted_60__adversarial_cut__none",
)


def quick_matrix() -> list[Scenario]:
    """The CI matrix: every quick axis value covered, ~3 minutes on a
    2-vCPU host."""
    matrix = build_matrix(
        topologies=("torus_9x9", "power_law_96", "road_12x12"),
        demands=("gravity", "hotspot"),
        failures=("none", "degrade"),
        epsilon=QUICK_EPSILON,
        num_queries=2,
        seed=CORPUS_SEED,
    )
    matrix += build_matrix(
        topologies=("planted_60",),
        demands=("gravity", "hotspot", "adversarial_cut"),
        failures=("none", "degrade", "restore"),
        epsilon=QUICK_EPSILON,
        num_queries=2,
        seed=CORPUS_SEED,
    )
    return matrix


def full_matrix() -> list[Scenario]:
    """The widened nightly/local matrix: adds the grid and large
    power-law topologies, the delete and restore failure models on
    every topology, and a third query."""
    return build_matrix(
        topologies=(
            "torus_9x9",
            "grid_12x12",
            "power_law_96",
            "power_law_160",
            "road_12x12",
            "planted_60",
        ),
        demands=("gravity", "hotspot", "adversarial_cut"),
        failures=("none", "degrade", "delete", "restore"),
        epsilon=QUICK_EPSILON,
        num_queries=3,
        seed=CORPUS_SEED,
    )

"""Multiplicative-weights j-tree distributions (Räcke / Madry, §8.2,
Lemma 8.4).

Räcke's insight: repeating the spanning-tree (or j-tree) construction
while exponentially up-weighting the lengths of overloaded tree edges
produces a *distribution* {(λ_i, J_i)} such that every cut's capacity
is preserved from below by every J_i and overestimated only by an
expected α factor when sampling by λ. Each iteration chooses
λ_i ∝ 1 / max-rload so the per-edge potential grows by at most a
constant, and the potential bound caps the number of trees needed.

The library exposes the truncated construction (``num_trees``
iterations, λ renormalized): Lemma 3.3 samples O(log n) trees from the
distribution anyway, and Experiment E4 measures the resulting
approximation quality directly.

Two entry points share one loop:

* :func:`mwu_tree_phases` runs the truncated iterations and keeps only
  each iteration's cheap :class:`~repro.jtree.madry.TreePhase` (the
  weight update consumes nothing else). The hierarchy
  (:mod:`repro.jtree.hierarchy`) calls it once per level, samples one
  phase by λ, and finishes skeleton, portals and core edges for only
  that phase;
* :func:`build_jtree_distribution` runs the same loop and finishes
  every phase into a full :class:`~repro.jtree.madry.JTreeStep` (the
  ablation / inspection API).

:func:`~repro.jtree.madry.finish_jtree_step` consumes no randomness,
so finishing every phase or only the sampled one leaves the generator
stream unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.jtree.madry import (
    JTreeStep,
    TreePhase,
    finish_jtree_step,
    madry_tree_phase,
)
from repro.util.rng import as_generator

__all__ = [
    "JTreeDistribution",
    "build_jtree_distribution",
    "mwu_lengths",
    "mwu_tree_phases",
]

#: Per-iteration potential growth target (λ_i = PROGRESS / max rload).
PROGRESS = 0.5
#: Exponent rate for the length update.
ETA = 1.0
#: Cap on the potential exponent to keep lengths finite.
MAX_EXPONENT = 40.0


def mwu_lengths(potentials: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """The MWU edge lengths ``exp(min(η·potential, cap_exp)) / cap``.

    Elementwise, so it applies unchanged to a single ``(m,)`` potential
    vector or to a ``(num_samples, m)`` stack of them; broadcasting
    keeps each row of a stacked call bitwise identical to the 1-D call
    on that row.
    """
    potentials = np.asarray(potentials)
    return np.exp(np.minimum(ETA * potentials, MAX_EXPONENT)) / caps


def _mwu_lambda(total: float, r_max: float) -> float:
    """One iteration's λ under the truncation rule."""
    if r_max <= 0:
        r_max = 1.0
    lam = min(1.0 - total, PROGRESS / r_max)
    if lam <= 0:
        lam = PROGRESS / r_max
    return lam


def mwu_tree_phases(
    quotient: Graph,
    j: int,
    num_trees: int,
    rng: np.random.Generator | int | None = None,
    removal_policy: str = "classes",
) -> tuple[list[TreePhase], np.ndarray, np.ndarray]:
    """Run the truncated MWU loop: Madry tree phases under exponentially
    up-weighted lengths, until ``num_trees`` phases or total weight 1.

    Each iteration draws one
    :func:`~repro.jtree.madry.madry_tree_phase` under the lengths
    :func:`mwu_lengths` derives from the potentials, weights it by the
    truncation rule, and adds ``λ · rload`` to the potentials.

    Args:
        quotient: Cluster multigraph (the current core).
        j: The j parameter handed to every Madry step.
        num_trees: Iteration cap (the paper's full construction runs
            Θ(|E| α log n / j); the hierarchy truncates because it
            samples O(log n) trees overall, cf. Lemma 3.3).
        rng: Randomness source.
        removal_policy: Passed to every Madry step.

    Returns:
        ``(phases, weights, potentials)``: every iteration's
        :class:`~repro.jtree.madry.TreePhase`, their λ normalized to sum
        to 1, and the final per-edge potentials.

    Raises:
        GraphError: If ``num_trees < 1``.
    """
    if num_trees < 1:
        raise GraphError("num_trees must be >= 1")
    rng = as_generator(rng)
    caps = quotient.capacities()
    potentials = np.zeros(quotient.num_edges)
    phases: list[TreePhase] = []
    raw_weights: list[float] = []
    total = 0.0
    while len(phases) < num_trees and total < 1.0:
        phase = madry_tree_phase(
            quotient,
            mwu_lengths(potentials, caps),
            j,
            rng=rng,
            removal_policy=removal_policy,
        )
        lam = _mwu_lambda(total, float(phase.rload_per_edge.max()))
        phases.append(phase)
        raw_weights.append(lam)
        total += lam
        potentials = potentials + lam * phase.rload_per_edge
    weights = np.asarray(raw_weights, dtype=float)
    return phases, weights / weights.sum(), potentials


@dataclass
class JTreeDistribution:
    """A (truncated) (α, H[j])-decomposition of a cluster multigraph.

    Attributes:
        steps: The constructed j-trees (one :class:`JTreeStep` each).
        weights: λ_i, normalized to sum to 1.
        potentials: Final per-edge potential (diagnostic).
    """

    steps: list[JTreeStep]
    weights: np.ndarray
    potentials: np.ndarray

    def sample(self, rng: np.random.Generator | int | None = None) -> JTreeStep:
        """Draw one j-tree with probability proportional to λ."""
        rng = as_generator(rng)
        index = int(rng.choice(len(self.steps), p=self.weights))
        return self.steps[index]


def build_jtree_distribution(
    quotient: Graph,
    j: int,
    num_trees: int,
    rng: np.random.Generator | int | None = None,
    removal_policy: str = "classes",
) -> JTreeDistribution:
    """Build a truncated MWU distribution of j-trees.

    Runs :func:`mwu_tree_phases` and finishes every phase into a
    :class:`~repro.jtree.madry.JTreeStep`; the arguments are that
    function's.

    Returns:
        A :class:`JTreeDistribution`.
    """
    phases, weights, potentials = mwu_tree_phases(
        quotient, j, num_trees, rng=rng, removal_policy=removal_policy
    )
    return JTreeDistribution(
        steps=[finish_jtree_step(quotient, phase) for phase in phases],
        weights=weights,
        potentials=potentials,
    )

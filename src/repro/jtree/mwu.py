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

Two entry points:

* :func:`build_jtree_distribution` materializes every iteration as a
  full :class:`~repro.jtree.madry.JTreeStep` (the ablation /
  inspection API);
* :func:`sample_jtree_step` runs the same iterations but keeps only
  the cheap :class:`~repro.jtree.madry.TreePhase` per iteration (the
  MWU update consumes nothing else) and finishes skeleton/portals/core
  edges for *only the sampled* iteration — the single-quotient form of
  the lazy loop.

The hierarchy itself does not call either entry point: its
``_SampleState`` (:mod:`repro.jtree.hierarchy`) re-runs the same lazy
loop level-synchronously across many samples, which is why the loop's
ingredients are factored here — :func:`mwu_lengths` (the length
update, applied stacked over samples there) and :func:`_mwu_lambda`
(the truncation rule). All three loops share those helpers plus
:func:`~repro.jtree.madry.madry_tree_phase` /
:func:`~repro.jtree.madry.finish_jtree_step`, so their randomness
streams are draw-for-draw identical for a fixed seed — the golden
tests pin ``sample_jtree_step`` against
``build_jtree_distribution(...).sample(...)`` and the batched
hierarchy against the sequential one.
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
    madry_jtree_step,
    madry_tree_phase,
)
from repro.util.rng import as_generator

__all__ = [
    "JTreeDistribution",
    "SampledJTree",
    "build_jtree_distribution",
    "sample_jtree_step",
    "mwu_lengths",
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
    vector or to a ``(num_samples, m)`` stack of them (the batched
    hierarchy computes every active sample's lengths in one call;
    broadcasting keeps the per-row results bitwise identical to the
    per-sample computation, which the golden tests rely on).
    """
    potentials = np.asarray(potentials)
    return np.exp(np.minimum(ETA * potentials, MAX_EXPONENT)) / caps


def _mwu_lambda(total: float, r_max: float) -> tuple[float, float]:
    """One iteration's (λ, r_max) under the truncation rule."""
    if r_max <= 0:
        r_max = 1.0
    lam = min(1.0 - total, PROGRESS / r_max)
    if lam <= 0:
        lam = PROGRESS / r_max
    return lam, r_max


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


@dataclass
class SampledJTree:
    """One j-tree sampled from a (lazily built) MWU distribution.

    Attributes:
        step: The finished :class:`JTreeStep` of the sampled iteration.
        phases: Total SplitGraph phases over *all* iterations (round
            accounting charges the whole distribution build).
        num_iterations: Iterations the truncated construction ran.
    """

    step: JTreeStep
    phases: int
    num_iterations: int


def build_jtree_distribution(
    quotient: Graph,
    j: int,
    num_trees: int,
    rng: np.random.Generator | int | None = None,
    removal_policy: str = "classes",
) -> JTreeDistribution:
    """Build a truncated MWU distribution of j-trees.

    Args:
        quotient: Cluster multigraph (the current core).
        j: The j parameter handed to every Madry step.
        num_trees: Number of iterations (the paper's full construction
            runs Θ(|E| α log n / j); the hierarchy truncates because it
            samples O(log n) trees overall, cf. Lemma 3.3).
        rng: Randomness source.

    Returns:
        A :class:`JTreeDistribution`.
    """
    if num_trees < 1:
        raise GraphError("num_trees must be >= 1")
    rng = as_generator(rng)
    caps = quotient.capacities()
    potentials = np.zeros(quotient.num_edges)
    steps: list[JTreeStep] = []
    raw_weights: list[float] = []
    total = 0.0
    for _ in range(num_trees):
        lengths = mwu_lengths(potentials, caps)
        step = madry_jtree_step(
            quotient, lengths, j, rng=rng, removal_policy=removal_policy
        )
        lam, _ = _mwu_lambda(total, float(step.rload_per_edge.max()))
        steps.append(step)
        raw_weights.append(lam)
        total += lam
        potentials = potentials + lam * step.rload_per_edge
        if total >= 1.0:
            break
    weights = np.asarray(raw_weights, dtype=float)
    weights = weights / weights.sum()
    return JTreeDistribution(
        steps=steps, weights=weights, potentials=potentials
    )


def sample_jtree_step(
    quotient: Graph,
    j: int,
    num_trees: int,
    rng: np.random.Generator | int | None = None,
    removal_policy: str = "classes",
) -> SampledJTree:
    """Sample one j-tree from the truncated MWU distribution, lazily.

    Runs the same iterations as :func:`build_jtree_distribution` but
    materializes only the sampled iteration's skeleton / portals /
    core edges (:func:`~repro.jtree.madry.finish_jtree_step` is
    deterministic, so deferring it does not touch the randomness
    stream). For a fixed seed the returned step equals
    ``build_jtree_distribution(...).sample(rng)`` exactly.
    """
    if num_trees < 1:
        raise GraphError("num_trees must be >= 1")
    rng = as_generator(rng)
    caps = quotient.capacities()
    potentials = np.zeros(quotient.num_edges)
    phases_list: list[TreePhase] = []
    raw_weights: list[float] = []
    total = 0.0
    for _ in range(num_trees):
        lengths = mwu_lengths(potentials, caps)
        phase = madry_tree_phase(
            quotient, lengths, j, rng=rng, removal_policy=removal_policy
        )
        lam, _ = _mwu_lambda(total, float(phase.rload_per_edge.max()))
        phases_list.append(phase)
        raw_weights.append(lam)
        total += lam
        potentials = potentials + lam * phase.rload_per_edge
        if total >= 1.0:
            break
    weights = np.asarray(raw_weights, dtype=float)
    weights = weights / weights.sum()
    index = int(rng.choice(len(phases_list), p=weights))
    return SampledJTree(
        step=finish_jtree_step(quotient, phases_list[index]),
        phases=sum(p.phases for p in phases_list),
        num_iterations=len(phases_list),
    )

"""Per-scenario correctness invariants.

Every scenario run asserts these — perf numbers are recorded only for
runs that pass. Each check raises :class:`~repro.errors
.InvariantViolation` naming the scenario, the invariant, and the
measured versus permitted quantities, so a red CI line is directly
actionable.

The invariants and why they hold:

* **conservation** — ``min_congestion_flow`` ends with an exactly
  conserving spanning-tree fix-up, so its flow must route the demand
  to within float tolerance (delegates to ``check_flow_conservation``).
* **epoch accounting** — a failure model touches k edges exclusively
  through ``set_capacity``, which bumps ``_version`` once per write;
  the report's delta must equal k.
* **congestion soundness** — every row of R is a genuine cut of G, so
  ``‖Rb‖∞ ≤ opt(b) ≤ congestion`` unconditionally. A broken
  approximator that inflates its rows (the suite's mutation test
  multiplies ``row_inv_capacity`` by 100) reports a lower bound above
  the achieved congestion and trips this deterministically.
* **congestion guarantee** — the descent promises
  ``congestion ≤ (1+ε)·opt ≤ (1+ε)·α·‖Rb‖∞``; GUARANTEE_SLACK absorbs
  the residual-round fix-up's additive mass.
* **max-flow vs Dinic** — the routed s-t value can never exceed the
  exact optimum (feasibility), the certified upper bound derived from
  the cut rows must dominate the optimum (it is a true cut bound), and
  the achieved value must be within the solver's certified ratio of
  optimal.
* **planted detection** — the adversarial demand pushes
  ``SATURATION ×`` the planted cut's capacity across the bridge, so
  opt ≥ SATURATION and the approximator must report
  ``lower_bound ≥ SATURATION / α``.
* **warm agreement** — a warm-started re-route (seeded with the
  previous epoch's flow rescaled to the new capacities) answers the
  same optimization problem as a cold one, so both must satisfy the
  identical ``(1+ε)·α`` guarantee against the shared lower bound, and
  their lower bounds must match exactly (same R, same demand). The
  seed changes the descent trajectory, never the contract.
"""

from __future__ import annotations

from repro.core.approximator import TreeCongestionApproximator
from repro.core.maxflow import ApproxFlow, ApproxMaxFlow
from repro.errors import InvalidFlowError, InvariantViolation
from repro.graphs.graph import Graph
from repro.scenarios.spec import FailureReport
from repro.util.validation import check_flow_conservation

__all__ = [
    "GUARANTEE_SLACK",
    "check_congestion_guarantee",
    "check_congestion_soundness",
    "check_conservation",
    "check_epoch_accounting",
    "check_maxflow_vs_exact",
    "check_planted_detection",
    "check_warm_agreement",
]

#: Multiplicative slack on the (1+ε)·α guarantee. The bound is on the
#: optimum the descent converges toward; the residual fix-up routes the
#: leftover ℓ1 mass over a spanning tree, which can add a small
#: constant factor on adversarial instances.
GUARANTEE_SLACK = 2.0

#: Relative float tolerance for comparisons of computed quantities.
REL_TOL = 1e-6


def check_conservation(
    scenario: str, graph: Graph, result: ApproxFlow
) -> None:
    """The routed flow conserves its demand exactly (float tol)."""
    try:
        check_flow_conservation(graph, result.flow, result.demand)
    except InvalidFlowError as exc:
        raise InvariantViolation(
            f"[{scenario}] conservation: routed flow does not conserve "
            f"its demand: {exc}"
        ) from exc


def check_epoch_accounting(scenario: str, report: FailureReport) -> None:
    """``_version`` advanced exactly once per edge the failure wrote."""
    touched = int(report.edge_ids.shape[0])
    if report.version_delta != touched:
        raise InvariantViolation(
            f"[{scenario}] epoch accounting: failure {report.name!r} "
            f"touched {touched} edges but _version advanced by "
            f"{report.version_delta}"
        )


def check_congestion_soundness(scenario: str, result: ApproxFlow) -> None:
    """lower_bound ≤ congestion: R's rows are true cuts, so ‖Rb‖∞ can
    never exceed the congestion of any feasible routing."""
    permitted = result.congestion * (1.0 + REL_TOL) + REL_TOL
    if result.lower_bound > permitted:
        raise InvariantViolation(
            f"[{scenario}] congestion soundness: approximator lower "
            f"bound {result.lower_bound:.6g} exceeds achieved "
            f"congestion {result.congestion:.6g} — R's rows are not "
            f"genuine cuts"
        )


def check_congestion_guarantee(
    scenario: str,
    result: ApproxFlow,
    approximator: TreeCongestionApproximator,
    epsilon: float,
) -> None:
    """congestion ≤ (1+ε)·α·lower_bound·GUARANTEE_SLACK."""
    if result.lower_bound <= 0.0:
        if result.congestion > REL_TOL:
            raise InvariantViolation(
                f"[{scenario}] congestion guarantee: zero lower bound "
                f"but congestion {result.congestion:.6g}"
            )
        return
    permitted = (
        (1.0 + epsilon)
        * approximator.alpha
        * result.lower_bound
        * GUARANTEE_SLACK
    )
    if result.congestion > permitted:
        raise InvariantViolation(
            f"[{scenario}] congestion guarantee: congestion "
            f"{result.congestion:.6g} exceeds (1+{epsilon:g})*alpha"
            f"({approximator.alpha:.4g})*lower_bound"
            f"({result.lower_bound:.6g})*slack({GUARANTEE_SLACK:g}) = "
            f"{permitted:.6g}"
        )


def check_maxflow_vs_exact(
    scenario: str, result: ApproxMaxFlow, exact_value: float
) -> None:
    """Feasibility, certified-cut dominance, and ε-quality vs Dinic."""
    if result.value > exact_value * (1.0 + REL_TOL) + REL_TOL:
        raise InvariantViolation(
            f"[{scenario}] max-flow feasibility: routed value "
            f"{result.value:.6g} exceeds exact Dinic optimum "
            f"{exact_value:.6g}"
        )
    if exact_value > result.certified_upper_bound * (1.0 + REL_TOL):
        raise InvariantViolation(
            f"[{scenario}] max-flow certificate: exact optimum "
            f"{exact_value:.6g} exceeds certified upper bound "
            f"{result.certified_upper_bound:.6g} — the cut certificate "
            f"is not a true cut"
        )
    ratio = result.congestion_result.approximation_ratio_bound
    permitted = exact_value / (ratio * (1.0 + REL_TOL))
    if result.value < permitted:
        raise InvariantViolation(
            f"[{scenario}] max-flow quality: routed value "
            f"{result.value:.6g} below exact/{ratio:.4g} = "
            f"{permitted:.6g} promised by the certified ratio"
        )


def check_planted_detection(
    scenario: str,
    result: ApproxFlow,
    approximator: TreeCongestionApproximator,
    saturation: float,
) -> None:
    """On a demand pushing saturation× the planted cut's capacity, the
    approximator's cut rows must certify congestion ≥ saturation/α."""
    required = saturation / approximator.alpha / (1.0 + REL_TOL)
    if result.lower_bound < required:
        raise InvariantViolation(
            f"[{scenario}] planted detection: lower bound "
            f"{result.lower_bound:.6g} below saturation({saturation:g})"
            f"/alpha({approximator.alpha:.4g}) = {required:.6g} — the "
            f"approximator missed the planted bottleneck"
        )


def check_warm_agreement(
    scenario: str,
    warm: ApproxFlow,
    cold: ApproxFlow,
    approximator: TreeCongestionApproximator,
    epsilon: float,
) -> None:
    """Warm and cold re-routes agree to the guarantee bound.

    Both runs route the same demand on the same graph through the same
    R, so their lower bounds are the same deterministic quantity and
    each congestion must clear the same ``(1+ε)·α·lb·slack`` ceiling.
    A warm start that broke convergence (e.g. a mis-rescaled seed that
    stranded the descent) trips the guarantee check on the warm side.
    """
    if warm.lower_bound != cold.lower_bound:
        raise InvariantViolation(
            f"[{scenario}] warm agreement: warm lower bound "
            f"{warm.lower_bound:.6g} differs from cold "
            f"{cold.lower_bound:.6g} — same R and demand must give the "
            f"same deterministic estimate"
        )
    check_congestion_guarantee(f"{scenario}(warm)", warm, approximator, epsilon)
    check_congestion_guarantee(f"{scenario}(cold)", cold, approximator, epsilon)
    bound = max(warm.lower_bound, REL_TOL)
    gap = abs(warm.congestion - cold.congestion)
    permitted = (
        (1.0 + epsilon) * approximator.alpha * bound * GUARANTEE_SLACK
    )
    if gap > permitted:
        raise InvariantViolation(
            f"[{scenario}] warm agreement: warm congestion "
            f"{warm.congestion:.6g} and cold congestion "
            f"{cold.congestion:.6g} differ by {gap:.6g}, beyond the "
            f"guarantee bound {permitted:.6g}"
        )


"""Offline aggregation: EXPERIMENTS.md report + BENCH_scenarios.json.

The markdown report is **deterministic** — it contains only quantities
that are bit-reproducible under the corpus seed (sizes, epochs, flow
values, congestion ratios; never wall-clock) — so regenerating it on a
clean tree is a no-op diff and CI can assert the checked-in copy is
current. Timings go exclusively to ``BENCH_scenarios.json``, the
machine-local baseline consumed by ``tools/bench_regression.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.scenarios.corpus import BENCH_SUBSET, quick_matrix
from repro.scenarios.runner import MatrixResult, ScenarioRecord, run_matrix
from repro.scenarios.spec import DEMANDS, FAILURES, TOPOLOGIES

__all__ = [
    "bench_rows",
    "measure_scenario_benchmarks",
    "scenario_report",
    "write_bench",
    "write_experiments",
]

#: Prefix of every scenario benchmark metric name.
BENCH_PREFIX = "scenario_route__"


def _fmt(value: float) -> str:
    """Stable short float formatting for the deterministic report."""
    return f"{value:.4g}"


def scenario_report(result: MatrixResult, title: str) -> str:
    """The deterministic experiments report for a matrix run."""
    lines: list[str] = [
        f"# {title}",
        "",
        "Generated by `tools/run_scenarios.py` — do not edit by hand;",
        "regenerate with `PYTHONPATH=src python tools/run_scenarios.py"
        " --quick`.",
        "",
        "Every row passed the full invariant set: demand conservation,",
        "congestion soundness (`lower_bound <= congestion`), the",
        "`(1+eps)*alpha` congestion guarantee, max-flow value vs exact",
        "Dinic (feasibility, certified cut dominance, epsilon quality),",
        "planted-bottleneck detection on adversarial demands, epoch",
        "accounting of failure writes, and warm/cold agreement of the",
        "journal-seeded re-route after a mid-run degradation (the",
        "route -> degrade -> re-route-warm stage). Wall-clock numbers are",
        "deliberately absent (they live in `BENCH_scenarios.json`);",
        "everything below is bit-reproducible under the corpus seed.",
        "",
        "## Axes",
        "",
    ]
    for name in sorted(TOPOLOGIES):
        lines.append(f"- topology `{name}`: {TOPOLOGIES[name].description}")
    for name in sorted(DEMANDS):
        lines.append(f"- demand `{name}`: {DEMANDS[name].description}")
    for name in sorted(FAILURES):
        lines.append(f"- failure `{name}`: {FAILURES[name].description}")
    lines += [
        "",
        "## Scenario groups",
        "",
        "One row per Topology x Demand x Failure scenario.",
        "",
        "| topology | demand | failure | n | m | failed | exact st "
        "| approx st | value ratio | alpha | congestion | lower bound "
        "| checks |",
        "|---|---|---|---|---|---|---|---|---|---|---|---|---|",
    ]
    for record in result.records:
        scenario = record.scenario
        ratio = (
            record.maxflow_value / record.exact_value
            if record.exact_value > 0
            else float("nan")
        )
        lines.append(
            f"| {scenario.topology} | {scenario.demand} "
            f"| {scenario.failure} | {record.num_nodes} "
            f"| {record.num_edges} | {record.failed_edges} "
            f"| {_fmt(record.exact_value)} "
            f"| {_fmt(record.maxflow_value)} | {_fmt(ratio)} "
            f"| {_fmt(record.alpha)} | {_fmt(record.congestion)} "
            f"| {_fmt(record.lower_bound)} "
            f"| {record.invariants_checked} |"
        )
    lines += [
        "",
        f"Scenarios: {len(result.records)} — every invariant asserted.",
        "",
    ]
    return "\n".join(lines)


def write_experiments(
    result: MatrixResult, path: Path, title: str = "Scenario experiments"
) -> None:
    path.write_text(scenario_report(result, title), encoding="utf-8")


def bench_rows(result: MatrixResult) -> dict[str, float]:
    """Route-time metrics for the benchmark subset of a run."""
    rows: dict[str, float] = {}
    by_name = result.by_name()
    for name in BENCH_SUBSET:
        record = by_name.get(name)
        if record is not None:
            rows[BENCH_PREFIX + name] = record.route_seconds
    return rows


def write_bench(result: MatrixResult, path: Path) -> None:
    """Write ``BENCH_scenarios.json`` in the gate's baseline format."""
    metrics = {
        name: {"after_s": seconds}
        for name, seconds in bench_rows(result).items()
    }
    payload = {
        "description": (
            "Scenario-corpus routing baselines: wall-clock of routing "
            "the scenario's full demand plane (invariants asserted on "
            "the same run). Re-measured and gated by "
            "tools/bench_regression.py; regenerate with "
            "tools/run_scenarios.py --quick."
        ),
        "metrics": metrics,
    }
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


def measure_scenario_benchmarks() -> dict[str, float]:
    """Re-measure the benchmark subset (used by the regression gate).

    Runs only the scenarios named in ``BENCH_SUBSET`` (plus their
    invariants), so the gate stays cheap.
    """
    wanted = set(BENCH_SUBSET)
    scenarios = [s for s in quick_matrix() if s.name in wanted]
    return bench_rows(run_matrix(scenarios))


def scenario_record_json(record: ScenarioRecord) -> dict[str, object]:
    """A JSON-friendly view of one record (CLI ``--select`` output)."""
    return {
        "scenario": record.scenario.name,
        "num_nodes": record.num_nodes,
        "num_edges": record.num_edges,
        "failed_edges": record.failed_edges,
        "version_delta": record.version_delta,
        "exact_value": record.exact_value,
        "maxflow_value": record.maxflow_value,
        "certified_upper_bound": record.certified_upper_bound,
        "alpha": record.alpha,
        "congestion": record.congestion,
        "lower_bound": record.lower_bound,
        "iterations": record.iterations,
        "route_seconds": record.route_seconds,
        "invariants_checked": record.invariants_checked,
    }

#!/usr/bin/env python
"""Benchmark-regression gate for CI.

Re-measures the ``approximator_build_n{256,1024,4096}`` rows (median
wall-clock of ``build_congestion_approximator``), the apply-path rows
``approximator_apply_n*`` / ``approximator_apply_transpose_n*`` /
``almost_route_n*`` (median wall-clock of the flat stacked operator
products and one AlmostRoute solve, same configuration the benchmark
harness records) and the execution-backend rows ``*_sharded_n4096``
(median wall-clock of the sharded construction kernels — frontier BFS,
multi-source hop distances and the stacked MWU length evaluation — under
the ``REPRO_WORKERS=2`` thread-pool config, compared against the
checked-in *sharded* medians; the live serial-vs-sharded ratio is
printed alongside for visibility) and the serving rows
``route_batch_q{8,64}_n1024`` (median wall-clock of one
``almost_route_batch`` call — ``Q`` one-shot solves, one per column —
compared against the checked-in *batched* medians with the live
sequential-vs-batched ratio printed alongside)
and fails — exit code 1 — if any median regresses more than
``--factor`` (default 2×) versus the checked-in
``BENCH_graphcore.json`` baseline, or if a measured row has no
baseline row (a renamed or new row must be recorded, not skipped).

When a checked-in ``BENCH_scenarios.json`` exists (written by
``tools/run_scenarios.py --quick``), the gate also re-measures the
scenario-corpus benchmark subset — routing of each named scenario's
demand plane, with the full invariant set asserted on the same run —
against the recorded ``after_s`` rows under the same
``--factor`` and the same missing-row rule.

When a checked-in ``BENCH_serving.json`` exists (written by
``tools/bench_serving.py``), the gate also enforces that its recorded
``batch_q64_speedup`` — ``route_batch`` serving throughput vs
sequential one-shot plain routing — has not been committed below
``--serving-floor``
(default 2.0; the acceptance run records ≥3×), and that the recorded
``update_latency_speedup`` — first-re-route latency after a ~1%
capacity delta under ``refresh="rebuild"`` vs ``refresh="incremental"``
— has not been committed below ``--update-floor`` (default 1.5).

Run from the repository root with ``src`` importable::

    PYTHONPATH=src python tools/bench_regression.py

The measurement configuration lives in ``benchmarks/conftest.py``
(``APPROXIMATOR_BENCH_CONFIG``) so the gate and the recorded baselines
can never drift apart.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_bench_module():
    spec = importlib.util.spec_from_file_location(
        "bench_conftest", REPO_ROOT / "benchmarks" / "conftest.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check_rows(
    measured: dict[str, float], baseline: dict, factor: float
) -> list[str]:
    """Compare measured medians with baseline rows; returns the names
    that failed — a regression past ``factor`` or no baseline row."""
    failures = []
    for name, current_s in measured.items():
        row = baseline.get(name)
        if row is None:
            print(
                f"FAIL {name}: no baseline row ({current_s:.4f}s measured)"
            )
            failures.append(name)
            continue
        base_s = float(row["after_s"])
        ratio = current_s / base_s
        status = "FAIL" if ratio > factor else "ok"
        print(
            f"{status:>4} {name}: baseline={base_s:.4f}s "
            f"current={current_s:.4f}s ratio={ratio:.2f}x "
            f"(limit {factor:.1f}x)"
        )
        if ratio > factor:
            failures.append(name)
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="fail when median wall-clock exceeds baseline × factor",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=REPO_ROOT / "BENCH_graphcore.json",
        help="path to the checked-in baseline JSON",
    )
    parser.add_argument(
        "--serving-baseline",
        type=Path,
        default=REPO_ROOT / "BENCH_serving.json",
        help="path to the checked-in serving benchmark JSON "
        "(skipped when absent)",
    )
    parser.add_argument(
        "--serving-floor",
        type=float,
        default=2.0,
        help="minimum recorded batch_q64_speedup in the serving "
        "baseline (guards against committing a degraded serving run)",
    )
    parser.add_argument(
        "--update-floor",
        type=float,
        default=1.5,
        help="minimum recorded update_latency_speedup (incremental vs "
        "rebuild refresh) in the serving baseline",
    )
    parser.add_argument(
        "--scenarios-baseline",
        type=Path,
        default=REPO_ROOT / "BENCH_scenarios.json",
        help="path to the checked-in scenario-corpus baseline JSON "
        "written by tools/run_scenarios.py --quick (skipped when "
        "absent)",
    )
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text())["metrics"]
    bench = _load_bench_module()
    measured = bench.measure_approximator_benchmarks()
    measured.update(bench.measure_apply_benchmarks())
    backend_rows = bench.measure_execution_backend_benchmarks()
    for name, pair in backend_rows.items():
        measured[name] = pair["sharded_s"]
        ratio = pair["serial_s"] / pair["sharded_s"]
        print(
            f"info {name}: serial={pair['serial_s']:.6f}s "
            f"sharded={pair['sharded_s']:.6f}s "
            f"(sharded is {ratio:.2f}x serial on this host)"
        )
    serving_rows = bench.measure_serving_benchmarks()
    for name, pair in serving_rows.items():
        measured[name] = pair["batched_s"]
        ratio = pair["sequential_s"] / pair["batched_s"]
        print(
            f"info {name}: sequential={pair['sequential_s']:.6f}s "
            f"batched={pair['batched_s']:.6f}s "
            f"(batched is {ratio:.2f}x sequential on this host)"
        )

    failures = _check_rows(measured, baseline, args.factor)

    # Scenario-corpus routing rows: re-measure the benchmark subset of
    # the quick matrix (full invariant set asserted on the same run)
    # against the checked-in BENCH_scenarios.json baseline.
    if args.scenarios_baseline.exists():
        scenario_baseline = json.loads(
            args.scenarios_baseline.read_text()
        )["metrics"]
        sys.path.insert(0, str(REPO_ROOT / "src"))
        from repro.scenarios.report import measure_scenario_benchmarks

        failures += _check_rows(
            measure_scenario_benchmarks(), scenario_baseline, args.factor
        )
    else:
        print(
            f"SKIP scenario rows: {args.scenarios_baseline.name} not found"
        )

    # Serving-throughput floor: the checked-in BENCH_serving.json is a
    # recorded acceptance run, not re-measured here (the full profile
    # costs minutes); the gate keeps a degraded recording from landing.
    if args.serving_baseline.exists():
        serving = json.loads(args.serving_baseline.read_text())
        speedup = serving.get("throughput", {}).get("batch_q64_speedup")
        if speedup is None:
            print(
                f"SKIP serving floor: no batch_q64_speedup in "
                f"{args.serving_baseline.name} "
                f"(profile={serving.get('profile')!r})"
            )
        else:
            status = "FAIL" if speedup < args.serving_floor else "ok"
            print(
                f"{status:>4} serving batch_q64_speedup: recorded="
                f"{speedup:.2f}x (floor {args.serving_floor:.1f}x)"
            )
            if speedup < args.serving_floor:
                failures.append("serving_batch_q64_speedup")
        update = serving.get(
            "update_latency_incremental_vs_rebuild", {}
        ).get("update_latency_speedup")
        if update is None:
            print(
                f"SKIP update-latency floor: no update_latency_speedup "
                f"in {args.serving_baseline.name} "
                f"(profile={serving.get('profile')!r})"
            )
        else:
            status = "FAIL" if update < args.update_floor else "ok"
            print(
                f"{status:>4} serving update_latency_speedup: recorded="
                f"{update:.2f}x (floor {args.update_floor:.1f}x)"
            )
            if update < args.update_floor:
                failures.append("serving_update_latency_speedup")
    else:
        print(f"SKIP serving floor: {args.serving_baseline.name} not found")

    if failures:
        print(f"benchmark regression in: {', '.join(failures)}")
        return 1
    print("benchmark gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the declarative scenario corpus and regenerate its artifacts.

    python tools/run_scenarios.py --quick

executes the full quick Topology × Demand × Failure matrix
(:func:`repro.scenarios.quick_matrix`), asserting every correctness
invariant per scenario — demand conservation, congestion soundness and
the (1+ε)·α guarantee, max-flow value vs exact Dinic, planted-
bottleneck detection, failure epoch accounting, and warm/cold
agreement of the journal-seeded re-route — and then writes the two
checked-in artifacts:

* ``EXPERIMENTS.md`` — the deterministic experiments report (no
  wall-clock numbers; regenerating on a clean tree is a no-op diff);
* ``BENCH_scenarios.json`` — route-time baselines for the benchmark
  subset, gated by ``tools/bench_regression.py``.

``--full`` runs the widened nightly matrix (report to stdout, no
artifacts); ``--select SUBSTR`` runs the matching quick-matrix subset
and prints per-record JSON without touching the artifacts. A failed
invariant exits non-zero with the violating scenario in the message.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.errors import ReproError  # noqa: E402
from repro.scenarios import full_matrix, quick_matrix, run_matrix  # noqa: E402
from repro.scenarios.report import (  # noqa: E402
    scenario_record_json,
    scenario_report,
    write_bench,
    write_experiments,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--quick",
        action="store_true",
        help="run the CI quick matrix and write the artifacts (default)",
    )
    mode.add_argument(
        "--full",
        action="store_true",
        help="run the widened nightly matrix (stdout report only)",
    )
    mode.add_argument(
        "--select",
        metavar="SUBSTR",
        help="run quick-matrix scenarios whose name contains SUBSTR; "
        "prints per-record JSON, writes no artifacts",
    )
    parser.add_argument(
        "--experiments",
        type=Path,
        default=REPO_ROOT / "EXPERIMENTS.md",
        help="where --quick writes the deterministic report",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=REPO_ROOT / "BENCH_scenarios.json",
        help="where --quick writes the benchmark baseline rows",
    )
    args = parser.parse_args(argv)

    if args.full:
        scenarios = full_matrix()
        title = "Scenario experiments (full matrix)"
    elif args.select is not None:
        scenarios = [
            s for s in quick_matrix() if args.select in s.name
        ]
        if not scenarios:
            print(f"no quick-matrix scenario matches {args.select!r}")
            return 2
        title = f"Scenario experiments (selection {args.select!r})"
    else:
        scenarios = quick_matrix()
        title = "Scenario experiments (quick matrix)"

    print(f"running {len(scenarios)} scenarios ...")
    try:
        result = run_matrix(
            scenarios,
            progress=lambda line: print(f"  {line}", flush=True),
        )
    except ReproError as exc:
        print(f"SCENARIO FAILURE: {exc}", file=sys.stderr)
        return 1

    if args.select is not None:
        for record in result.records:
            print(json.dumps(scenario_record_json(record)))
    elif args.full:
        print(scenario_report(result, title))
    else:
        write_experiments(result, args.experiments, title)
        write_bench(result, args.out)
        print(f"wrote {args.experiments}")
        print(f"wrote {args.out}")

    checked = sum(record.invariants_checked for record in result.records)
    print(
        f"{len(result.records)} scenarios, "
        f"{checked} invariant checks, all passed "
        f"({result.total_seconds:.1f}s)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

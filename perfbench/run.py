"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload maxflow --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a human-readable report. The
library is imported from ``src/`` next to this directory; without it
the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Tail percentiles shown beside p10 and p50: the highest one with at
# least ten samples beyond it is printed.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=("maxflow", "serve_mixed", "update_stream")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_library() -> None:
    """Put this checkout's ``src`` first on the path, run serially and
    without injected faults, whatever the environment says."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        sys.exit(2)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _summary(values: list[float], scale: float, unit: str) -> str:
    import numpy as np

    if not values:
        return "no samples"
    parts = [f"n={len(values)}"]
    for q in (10.0, 50.0):
        parts.append(f"p{q:g}={np.percentile(values, q) * scale:.4g}{unit}")
    for q in TAIL_PERCENTILES:
        if len(values) * (100.0 - q) / 100.0 >= 10:
            parts.append(f"p{q:g}={np.percentile(values, q) * scale:.4g}{unit}")
            break
    return " ".join(parts)


def _report(args: argparse.Namespace, result, metrics) -> None:
    from perfbench.inputs import host_fingerprint

    print(
        f"perfbench workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}"
    )
    print("host: " + " ".join(f"{k}={v}" for k, v in host_fingerprint().items()))
    print(
        f"graph: n={result.num_nodes} m={result.num_edges} "
        f"fingerprint={result.graph_fingerprint} (pinned)"
    )
    print(
        f"approximator: trees={result.num_trees} alpha={result.alpha:g} "
        f"parents_hash={result.approximator_hash}"
    )
    setups = sorted(result.setup_seconds)
    print(
        f"setup: n={len(setups)} min={setups[0]:.4f}s "
        f"median={setups[len(setups) // 2]:.4f}s"
    )
    for kind, values in result.samples.items():
        if values:
            print(f"{kind}: {_summary(values, 1e3, 'ms')}")
    print(f"ops: attempted={result.attempted} failed={result.failed}")
    for error in result.errors:
        print(f"  failure: {error}")
    if result.recorder is not None:
        _print_breakdown(result)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    unaccounted = metrics.get("unaccounted_share", (0.0, ""))[0]
    if unaccounted > 0.1:
        print(f"FLAG: {unaccounted:.1%} of the primary op is outside every named layer")


def _print_breakdown(result) -> None:
    """Self time per layer of the mean traced primary op; the rows add
    up to the op's duration."""
    import numpy as np

    recorder = result.recorder
    seconds, _ = recorder.self_times()
    primary = np.asarray(recorder.op_kinds) == "primary"
    if not primary.any():
        return
    per_op = seconds[primary].mean(axis=0)
    total = float(recorder.op_durations()[primary].mean())
    print(f"primary op breakdown (traced mean {total * 1e3:.2f} ms, self times):")
    for index in np.argsort(-per_op):
        if per_op[index] > 0:
            print(
                f"  {recorder.layers[index]:<30} {per_op[index] * 1e3:9.3f} ms "
                f"{per_op[index] / total:6.1%}"
            )
    print(
        f"  {'sum of layers':<30} {per_op.sum() * 1e3:9.3f} ms "
        f"(reconciles with op time: error {abs(per_op.sum() - total):.2e} s)"
    )
    print(f"  nesting error {recorder.check_nesting():.2e} s")


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    _import_library()
    from perfbench.workloads import end_to_end, per_layer, run_workload

    result = run_workload(args.workload, args.seed, args.seconds, trace=bool(args.trace))
    metrics = per_layer(result) if args.trace else end_to_end(result)
    _report(args, result, metrics)
    if result.recorder is not None:
        spans = ROOT / ".perfbench" / f"{args.workload}-spans.npz"
        spans.parent.mkdir(exist_ok=True)
        result.recorder.save(str(spans))
        print(f"spans: {spans.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": result.failed == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                # A metric without samples (every op failed) is null,
                # which keeps the line valid JSON.
                "metrics": {
                    name: {"value": value if math.isfinite(value) else None, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Fast checks of the benchmark itself, on tiny graphs.

Each workload runs once, traced, for about a second on a 64-node
graph; the pinned sizes are exercised only by
``perfbench/run.py``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench.inputs import (
    PinnedInputError,
    check_pinned,
    edge_arrays,
    graph_fingerprint,
)
from perfbench.workloads import WORKLOADS, end_to_end, per_layer, run_workload

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 64


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request):
    return run_workload(request.param, seed=3, seconds=0.5, trace=True, num_nodes=TINY)


def _units(metrics: dict) -> dict[str, str]:
    return {name: unit for name, (_, unit) in metrics.items()}


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(WORKLOADS)


def test_smoke_run_emits_every_metric(traced):
    assert traced.failed == 0, traced.errors
    assert traced.samples["primary"] and traced.samples["secondary"]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert _units(end_to_end(traced)) == expected
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    layers = per_layer(traced)
    assert _units(layers) == expected
    assert all(np.isfinite(value) for value, _ in layers.values())


def test_span_tree_reconciles(traced):
    recorder = traced.recorder
    assert recorder.check_nesting() == 0.0
    seconds, _ = recorder.self_times()
    durations = recorder.op_durations()
    assert np.allclose(seconds.sum(axis=1), durations, rtol=1e-9, atol=1e-12)
    primary = np.asarray(recorder.op_kinds) == "primary"
    assert primary.any()
    # Some named layer, not the harness, holds most of a primary op.
    assert seconds[primary, 0].sum() < 0.5 * durations[primary].sum()


def test_tracing_is_removed_after_a_run(traced):
    from repro.core import almost_route
    from repro.serve import server

    assert not hasattr(almost_route, "__wrapped__")
    assert not any(hasattr(fn, "__wrapped__") for pair in server._SOLVERS.values() for fn in pair)


def _double_flow(answer):
    if isinstance(answer, list):
        return [_double_flow(item) for item in answer]
    return dataclasses.replace(answer, flow=answer.flow * 2.0)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_sabotaged_answers_fail(workload):
    result = run_workload(workload, seed=3, seconds=0.1, num_nodes=TINY, tamper=_double_flow)
    assert result.attempted > 0
    assert result.failed == result.attempted


def test_pinned_graphs_match():
    for size in (256, 512):
        check_pinned(size, graph_fingerprint(*edge_arrays(size)))
    u, v, capacity = edge_arrays(256)
    capacity[0] += 1.0
    with pytest.raises(PinnedInputError):
        check_pinned(256, graph_fingerprint(u, v, capacity))


def test_run_without_library_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = [sys.executable, *SPEC["command"][1:]]
    proc = subprocess.run(
        command + ["--workload", "maxflow", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

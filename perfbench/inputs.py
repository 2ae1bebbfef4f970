"""Pinned benchmark inputs and the fingerprints that guard them.

Graphs and demands are generated here with plain NumPy instead of
``repro.graphs.generators``: a change to the library must not be able
to change the workload it is measured on. ``pinned.json`` records a
fingerprint of every graph's edge arrays, and a run whose graph does
not match refuses to start.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

#: Seed of every benchmark graph (the run seed never touches a graph).
GRAPH_SEED = 2015
#: Seed of every approximator build, so each run builds the same trees.
BUILD_SEED = 7

PINNED_PATH = Path(__file__).with_name("pinned.json")


class PinnedInputError(RuntimeError):
    """A generated input differs from the fingerprint in pinned.json."""


def edge_arrays(num_nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge arrays ``(u, v, capacity)`` of the benchmark graph on
    ``num_nodes`` nodes.

    A random recursive spanning tree (so the graph is connected) plus
    ``4 n`` uniformly random extra edges, about mean degree 10, with
    integer capacities 1..100. Parallel edges are kept; self-loops
    cannot occur.
    """
    n = int(num_nodes)
    rng = np.random.default_rng([GRAPH_SEED, n])
    order = rng.permutation(n)
    # Node order[i] attaches to order[j] for a uniform j < i.
    attach = (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)
    extra_u = rng.integers(0, n, size=4 * n)
    extra_v = (extra_u + rng.integers(1, n, size=4 * n)) % n
    u = np.concatenate((order[1:], extra_u))
    v = np.concatenate((order[attach], extra_v))
    capacity = rng.integers(1, 101, size=u.size).astype(float)
    return u, v, capacity


def dense_demand(rng: np.random.Generator, num_nodes: int) -> np.ndarray:
    """A dense zero-sum demand: every node sends or receives."""
    demand = rng.standard_normal(num_nodes)
    demand -= demand.mean()
    return demand


def fingerprint(*arrays: np.ndarray) -> str:
    """Short SHA-256 of the arrays' dtypes, shapes and bytes."""
    digest = hashlib.sha256()
    for array in arrays:
        array = np.ascontiguousarray(array)
        digest.update(f"{array.dtype.str}{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()[:16]


def graph_fingerprint(u: np.ndarray, v: np.ndarray, capacity: np.ndarray) -> str:
    return fingerprint(
        np.asarray(u, dtype=np.int64),
        np.asarray(v, dtype=np.int64),
        np.asarray(capacity, dtype=np.float64),
    )


def pool_demand(num_nodes: int, index: int) -> np.ndarray:
    """Pinned dense demand number ``index`` (the ``maxflow`` secondary
    pool and the ``update_stream`` tracked demands)."""
    return dense_demand(np.random.default_rng([GRAPH_SEED, 2, index]), num_nodes)


def maxflow_pools(num_nodes: int) -> tuple[list[tuple[int, int]], list[int]]:
    """The ``maxflow`` s-t pairs and secondary demand indices.

    At the pinned size these are the typical-work pools of
    ``pinned.json`` (see README.md); other sizes, used by the fast
    tests, get 64 unfiltered pairs and demand indices 0..31.
    """
    pinned = json.loads(PINNED_PATH.read_text())["maxflow"].get(str(num_nodes))
    if pinned is not None:
        return [tuple(pair) for pair in pinned["pairs"]], pinned["demands"]
    rng = np.random.default_rng([GRAPH_SEED, 1])
    pairs = [
        tuple(int(x) for x in rng.choice(num_nodes, 2, replace=False))
        for _ in range(64)
    ]
    return pairs, list(range(32))


def check_pinned(num_nodes: int, actual: str) -> None:
    """Refuse to run on a graph whose fingerprint is not the pinned one."""
    pinned = json.loads(PINNED_PATH.read_text())["graphs"]
    expected = pinned.get(str(num_nodes))
    if expected != actual:
        raise PinnedInputError(
            f"graph n={num_nodes} has fingerprint {actual}, pinned.json "
            f"expects {expected}: the workload input changed"
        )


def approximator_hash(approximator) -> str:
    """Fingerprint of the approximator's tree parents and its alpha, so a
    change that alters the build shows in every report."""
    parents = [np.asarray(t.parent, dtype=np.int64) for t in approximator.trees()]
    return fingerprint(*parents, np.asarray([approximator.alpha]))


def host_fingerprint() -> dict[str, str | int | None]:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
    }

#!/usr/bin/env python3
"""Print one digest of the answers of each perfbench op stream.

    PYTHONPATH=src python -m tools.answer_digest --ops 24 --seed 1

For every workload in ``perfbench.workloads.WORKLOADS`` the tool sets
the workload up on its pinned graph, draws ``--ops`` requests from its
op stream with ``--seed``, runs each request, checks the answer with
the op's own check and hashes it: arrays by dtype, shape and bytes,
every other field by ``repr``. One more stream, ``plain``, is
``update_stream`` served by the plain loop: cold routes, then warm
re-routes after capacity writes. A failed check exits 1.

Equal digests from two trees mean bit-identical answers on these
streams. perfbench's ``parents_hash`` fingerprints only the
approximator's trees, so it cannot show that. Nothing is timed, and
``perfbench/`` is only read.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import sys
from pathlib import Path
from typing import Any

REPO_ROOT = Path(__file__).resolve().parent.parent
for _path in (REPO_ROOT, REPO_ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import numpy as np  # noqa: E402

from perfbench.inputs import (  # noqa: E402
    BUILD_SEED,
    check_pinned,
    edge_arrays,
    graph_fingerprint,
)
from perfbench.workloads import (  # noqa: E402
    EPSILON,
    WORKLOADS,
    AnswerError,
    Checker,
    Network,
    UpdateStream,
)
from repro.graphs.graph import Graph  # noqa: E402
from repro.serve import FlowServer  # noqa: E402


class PlainUpdateStream(UpdateStream):
    """``update_stream`` on a server that runs the plain loop."""

    def setup(self, graph: Graph) -> Any:
        return FlowServer(
            graph,
            epsilon=EPSILON,
            solver="plain",
            refresh="incremental",
            rng=BUILD_SEED,
        )


STREAMS = {**WORKLOADS, "plain": PlainUpdateStream}


def _feed(digest: Any, answer: Any) -> None:
    """Hash ``answer``: dataclasses field by field, lists item by item,
    arrays by dtype, shape and bytes, the rest by ``repr``."""
    stack = [answer]
    while stack:
        item = stack.pop()
        if dataclasses.is_dataclass(item):
            digest.update(type(item).__name__.encode())
            fields = dataclasses.fields(item)
            stack.extend(getattr(item, f.name) for f in reversed(fields))
        elif isinstance(item, list):
            digest.update(f"[{len(item)}]".encode())
            stack.extend(reversed(item))
        elif isinstance(item, np.ndarray):
            array = np.ascontiguousarray(item)
            digest.update(f"{array.dtype.str}{array.shape}".encode())
            digest.update(array.tobytes())
        else:
            digest.update(repr(item).encode())


def stream_digest(name: str, ops: int, seed: int) -> str:
    """Run and check ``ops`` requests of stream ``name``; return the
    short SHA-256 of their answers."""
    workload = STREAMS[name]()
    n = workload.num_nodes
    u, v, capacity = edge_arrays(n)
    check_pinned(n, graph_fingerprint(u, v, capacity))
    graph = Graph.from_edge_arrays(n, u, v, capacity)
    state = workload.setup(graph)
    checker = Checker(graph, Network(n, u, v, capacity))
    stream = workload.stream(graph, state, checker, np.random.default_rng(seed))
    digest = hashlib.sha256()
    for op in itertools.islice(stream, ops):
        answer = op.run()
        op.check(answer)
        digest.update(op.kind.encode())
        _feed(digest, answer)
    return digest.hexdigest()[:16]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=int, default=24, help="requests per stream")
    parser.add_argument("--seed", type=int, default=1, help="request-stream seed")
    args = parser.parse_args(argv)
    for name in STREAMS:
        try:
            digest = stream_digest(name, args.ops, args.seed)
        except AnswerError as exc:
            print(f"{name}: answer check failed: {exc}", file=sys.stderr)
            return 1
        print(f"{name} {digest} ops={args.ops} seed={args.seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

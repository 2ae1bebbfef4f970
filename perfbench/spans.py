"""Span recorder for the traced run.

The library has no spans of its own yet, so the traced run times each
layer from outside: :meth:`Recorder.install` wraps the public functions
and methods of every layer and records one span per call — layer, start,
end, parent span and op id — into flat arrays kept in memory and written
out at the end. A span's self time is its duration minus the durations
of its children, so the self times of one op's spans add up to the op's
own duration exactly; the root span's self time is the op's
``unaccounted`` time, spent outside every named layer.

Three details of the library shape the wrapping:

* ``repro.core`` re-exports shadow its submodules
  (``import repro.core.almost_route as m`` binds the function), and
  ``from x import f`` leaves a copy of ``f`` in every importer, so
  functions are replaced by identity in every loaded ``repro`` module.
* ``FlowServer`` looks its solvers up in ``repro.serve.server._SOLVERS``,
  a dict filled at import, which is rebuilt here.
* A ``maxflow`` op makes about 35k wrapped calls, so a wrapper is a few
  appends to flat ``array``s and two clock reads.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import numpy as np

#: The root layer: time inside an op or set-up outside every named layer.
ROOT = "unaccounted"

#: layer -> functions (module, name) wrapped for it.
FUNCTIONS: dict[str, list[tuple[str, str]]] = {
    "core.softmax": [
        ("repro.core.softmax", "smax_and_gradient"),
        ("repro.core.softmax", "smax_and_gradient_batch"),
    ],
    "core.almost_route": [
        ("repro.core.almost_route", "almost_route"),
        ("repro.core.almost_route", "almost_route_batch"),
    ],
    "core.accelerated": [
        ("repro.core.accelerated", "accelerated_almost_route"),
        ("repro.core.accelerated", "accelerated_almost_route_batch"),
    ],
    "core.maxflow": [
        ("repro.core.maxflow", "max_flow"),
        ("repro.core.maxflow", "min_congestion_flow"),
    ],
    "flow.fixup": [
        ("repro.flow.mst", "maximum_spanning_tree"),
        ("repro.graphs.trees", "tree_route_demand"),
    ],
    "flow.alpha": [("repro.core.approximator", "estimate_alpha_st")],
    "jtree.sample": [("repro.jtree.hierarchy", "sample_virtual_trees")],
    "lsst.akpw": [("repro.lsst.akpw", "akpw_spanning_tree")],
    "sparsify": [("repro.sparsify.sparsifier", "sparsify")],
    "graphs.cut_capacities": [("repro.graphs.trees", "induced_cut_capacities")],
    "serve.digest": [("repro.serve.cache", "demand_digest")],
}

#: layer -> methods (module, class, name) wrapped for it. The estimate
#: methods are left bare: their R·b runs through the wrapped ``apply``.
METHODS: dict[str, list[tuple[str, str, str]]] = {
    "core.stacked.apply": [
        ("repro.core.stacked", "StackedTreeOperator", "apply"),
        ("repro.core.stacked", "StackedTreeOperator", "apply_batch"),
    ],
    "core.stacked.apply_transpose": [
        ("repro.core.stacked", "StackedTreeOperator", "apply_transpose"),
        ("repro.core.stacked", "StackedTreeOperator", "apply_transpose_batch"),
    ],
    "core.stacked.fuse": [
        ("repro.core.stacked", "StackedTreeOperator", "__init__"),
    ],
    "core.approximator.refresh": [
        (
            "repro.core.approximator",
            "TreeCongestionApproximator",
            "refresh_capacities",
        ),
    ],
    "cluster.contract": [
        ("repro.cluster.cluster_graph", "ClusterGraph", "merge_along_forest"),
    ],
    "graphs.excess": [
        ("repro.graphs.graph", "Graph", "excess"),
        ("repro.graphs.graph", "Graph", "excess_batch"),
    ],
    "graphs.set_capacity": [("repro.graphs.graph", "Graph", "set_capacity")],
    "serve": [
        ("repro.serve.server", "FlowServer", "route"),
        ("repro.serve.server", "FlowServer", "route_batch"),
    ],
}


def _solver_counts(prefix: str) -> Callable[["Recorder", Any], None]:
    """Count a solver call's iterations and 17/16 re-scalings on its op.

    A batch counts the iterations of its loop (its slowest column)."""

    def count(recorder: "Recorder", result: Any) -> None:
        iterations = np.max(result.iterations, initial=0)
        recorder.count(prefix + ".iterations", float(iterations))
        recorder.count(prefix + ".scalings", float(np.sum(result.scalings)))

    return count


def _count_samples(recorder: "Recorder", samples: Any) -> None:
    recorder.count("core.approximator.trees", float(len(samples)))
    if recorder.samples is None:
        recorder.samples = samples


def _count_resampled(recorder: "Recorder", resampled: Any) -> None:
    recorder.count("core.approximator.trees_resampled", float(resampled))


#: layer -> hook run on each traced call's return value.
RESULT_HOOKS: dict[str, Callable[["Recorder", Any], None]] = {
    "core.almost_route": _solver_counts("core.almost_route"),
    "core.accelerated": _solver_counts("core.accelerated"),
    "jtree.sample": _count_samples,
    "core.approximator.refresh": _count_resampled,
}


class Recorder:
    """In-memory span store plus the wrappers that fill it.

    Spans are recorded only while an op or set-up is open (see
    :meth:`op`); calls made outside one — answer checks, warm-up —
    pass straight through.
    """

    def __init__(self) -> None:
        self.layers: list[str] = [ROOT]
        self._layer_ids = {ROOT: 0}
        self.layer = array("i")
        self.parent = array("i")
        self.op_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.op_kinds: list[str] = []
        self.counters: list[dict[str, float]] = []
        # The first traced tree sample, for the CONGEST round estimate.
        self.samples: Any = None
        self._stack: list[int] = []
        self._undo: list[tuple[Any, str, Any]] = []
        self._snapshot: dict[str, np.ndarray] | None = None

    # -- recording -------------------------------------------------------
    def _layer_id(self, name: str) -> int:
        if name not in self._layer_ids:
            self._layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return self._layer_ids[name]

    @contextmanager
    def op(self, kind: str) -> Iterator[int]:
        """Open a root span for one op (or set-up) of the given kind."""
        if self._stack:
            raise RuntimeError("ops do not nest")
        op_id = len(self.op_kinds)
        self.op_kinds.append(kind)
        self.counters.append({})
        index = self._open(0, -1, op_id)
        start = time.perf_counter()
        try:
            yield op_id
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.start[index] = start
            self.end[index] = end

    def _open(self, layer_id: int, parent: int, op_id: int) -> int:
        index = len(self.layer)
        self.layer.append(layer_id)
        self.parent.append(parent)
        self.op_of.append(op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(index)
        return index

    def count(self, key: str, amount: float) -> None:
        """Add ``amount`` to a counter of the op currently open."""
        counters = self.counters[self.op_of[self._stack[0]]]
        counters[key] = counters.get(key, 0.0) + amount

    def _wrap(self, fn: Callable, layer: str) -> Callable:
        layer_id = self._layer_id(layer)
        hook = RESULT_HOOKS.get(layer)
        stack = self._stack
        spans_layer, spans_parent, spans_op = self.layer, self.parent, self.op_of
        spans_start, spans_end = self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not stack:
                return fn(*args, **kwargs)
            index = len(spans_layer)
            spans_layer.append(layer_id)
            spans_parent.append(stack[-1])
            spans_op.append(spans_op[stack[0]])
            spans_start.append(0.0)
            spans_end.append(0.0)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans_start[index] = start
                spans_end[index] = end
            if hook is not None:
                hook(self, result)
            return result

        return traced

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap every layer's functions and methods (undo with
        :meth:`uninstall`)."""
        # Keyed by id(): the originals stay alive, so no other object
        # can share their ids while this runs.
        wrapped: dict[int, Callable] = {}
        for layer, targets in FUNCTIONS.items():
            for module_name, name in targets:
                original = getattr(sys.modules[module_name], name)
                wrapped[id(original)] = self._wrap(original, layer)
        for module_name, module in list(sys.modules.items()):
            if module_name == "repro" or module_name.startswith("repro."):
                for attr, value in list(vars(module).items()):
                    if id(value) in wrapped:
                        self._replace(module, attr, wrapped[id(value)])
        for layer, methods in METHODS.items():
            for module_name, class_name, name in methods:
                cls = getattr(sys.modules[module_name], class_name)
                self._replace(cls, name, self._wrap(vars(cls)[name], layer))
        server = sys.modules["repro.serve.server"]
        solvers = {
            key: tuple(wrapped.get(id(fn), fn) for fn in pair)
            for key, pair in server._SOLVERS.items()
        }
        self._replace(server, "_SOLVERS", solvers)

    def _replace(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as NumPy arrays (one entry per span); a copy taken
        once per span count, since a traced run holds millions."""
        if self._snapshot is None or self._snapshot["layer"].size != len(self.layer):
            self._snapshot = {
                "layer": np.array(self.layer, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int32),
                "op": np.array(self.op_of, dtype=np.int32),
                "start": np.array(self.start, dtype=np.float64),
                "end": np.array(self.end, dtype=np.float64),
            }
        return self._snapshot

    def save(self, path: str) -> None:
        """Write every span, the layer names and the op kinds to ``path``."""
        np.savez_compressed(
            path,
            layer_names=np.asarray(self.layers),
            op_kinds=np.asarray(self.op_kinds),
            **self.arrays(),
        )

    def self_times(self) -> tuple[np.ndarray, np.ndarray]:
        """(self seconds, span count) per (op, layer), shape
        ``(num_ops, num_layers)``."""
        spans = self.arrays()
        duration = spans["end"] - spans["start"]
        has_parent = spans["parent"] >= 0
        covered = np.bincount(
            spans["parent"][has_parent],
            weights=duration[has_parent],
            minlength=duration.size,
        )
        own = duration - covered
        cells = spans["op"] * len(self.layers) + spans["layer"]
        shape = (len(self.op_kinds), len(self.layers))
        size = shape[0] * shape[1]
        seconds = np.bincount(cells, weights=own, minlength=size)
        calls = np.bincount(cells, minlength=size)
        return seconds.reshape(shape), calls.reshape(shape)

    def op_durations(self) -> np.ndarray:
        """Duration of each op's root span, indexed by op id."""
        spans = self.arrays()
        roots = spans["parent"] < 0
        durations = np.zeros(len(self.op_kinds))
        durations[spans["op"][roots]] = (spans["end"] - spans["start"])[roots]
        return durations

    def check_nesting(self) -> float:
        """Largest amount (seconds) by which a span leaves its parent's
        interval; 0.0 for a well-formed tree."""
        spans = self.arrays()
        child = spans["parent"] >= 0
        parent = spans["parent"][child]
        early = spans["start"][parent] - spans["start"][child]
        late = spans["end"][child] - spans["end"][parent]
        return float(max(early.max(initial=0.0), late.max(initial=0.0)))

"""Shared fixtures for the bit-identity suites.

The library's deletions and rewrites are made safe by exact-equality
goldens: a rewritten path must return the arrays the reference path
returns, bit for bit. This module packages what those suites share:
the standard seed × generator matrix (:data:`SEEDS`,
:data:`GENERATORS`, :func:`make_graph`), a multigraph with parallel
edges (:func:`tree_multigraph`), exact array equality with a
readable label (:func:`assert_arrays_identical`), a deterministic
approximator (:func:`build_test_approximator`), and
:func:`per_tree_reference`, the readable per-tree twin the flat
stacked operator is golden-tested against.

Used by the construction-kernel sweep (``tests/test_parallel_backend.py``),
the stacked-operator, batch-routing, serving, dynamic-graph, max-flow,
fault and stretch suites, the tree, spanning-tree, approximator and
sampler goldens, and by ``benchmarks/test_bench_almost_route.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.approximator import (
    TreeCongestionApproximator,
    build_congestion_approximator,
)
from repro.graphs.generators import grid, random_connected, torus
from repro.graphs.graph import Graph

#: The standard sweep seeds.
SEEDS = (101, 202, 303)

#: name -> graph factory. Sizes chosen so the whole matrix stays fast.
GENERATORS = {
    "random": lambda seed: random_connected(72, 0.08, rng=seed),
    "grid": lambda seed: grid(9, 9, rng=seed),
    "torus": lambda seed: torus(8, 8, rng=seed),
}


class PerTreeApproximator(TreeCongestionApproximator):
    """An approximator whose R / Rᵀ products run tree by tree: row
    (T, v) is ``b(T_v) / cap(δ(T_v))`` for every non-root v, ascending,
    so ``R·b`` is one :meth:`~repro.graphs.trees.RootedTree.subtree_sums`
    per tree and ``Rᵀ·g`` one
    :meth:`~repro.graphs.trees.RootedTree.prefix_sums_from_root` per
    tree. The readable reference the flat stacked operator must match
    bit for bit (same row order, same accumulation folds)."""

    def _blocks(self):
        """Each tree with its row nodes and their inverse cuts."""
        for tree in self.trees():
            rows = np.delete(np.arange(tree.num_nodes), tree.root)
            yield tree, rows, 1.0 / tree.capacity[rows]

    def apply(self, demand, out=None):
        demand = np.asarray(demand, dtype=float)
        result = np.concatenate(
            [
                tree.subtree_sums(demand)[rows] * inverse
                for tree, rows, inverse in self._blocks()
            ]
        )
        if out is None:
            return result
        out[:] = result
        return out

    def apply_transpose(self, row_values, out=None):
        row_values = np.asarray(row_values, dtype=float)
        if out is None:
            out = np.zeros(self.graph.num_nodes)
        else:
            out[:] = 0.0
        offset = 0
        for tree, rows, inverse in self._blocks():
            prices = np.zeros(tree.num_nodes)
            prices[rows] = row_values[offset : offset + len(rows)] * inverse
            out += tree.prefix_sums_from_root(prices)
            offset += len(rows)
        return out

    def estimate(self, demand):
        return float(np.abs(self.apply(demand)).max(initial=0.0))


def per_tree_reference(approximator) -> PerTreeApproximator:
    """The per-tree reference twin of ``approximator`` (same trees, α
    and method)."""
    return PerTreeApproximator(
        approximator.graph,
        approximator.trees(),
        alpha=approximator.alpha,
        method=approximator.method,
    )


def make_graph(name: str, seed: int) -> Graph:
    return GENERATORS[name](seed)


def tree_multigraph(num_nodes: int, seed: int) -> Graph:
    """A random recursive spanning tree plus ``4 n`` uniformly random
    extra edges with integer capacities 1..100: connected, with
    parallel edges, and built with plain NumPy so no library change can
    move a golden recorded on it."""
    n = int(num_nodes)
    rng = np.random.default_rng(seed)
    attach = (rng.random(n - 1) * np.arange(1, n)).astype(np.int64)
    extra_u = rng.integers(0, n, size=4 * n)
    extra_v = (extra_u + rng.integers(1, n, size=4 * n)) % n
    u = np.concatenate((np.arange(1, n), extra_u))
    v = np.concatenate((attach, extra_v))
    capacity = rng.integers(1, 101, size=u.size).astype(float)
    return Graph.from_edge_arrays(n, u, v, capacity)


# ----------------------------------------------------------------------
# Exact-equality helpers
# ----------------------------------------------------------------------
def assert_arrays_identical(label: str, expected, actual) -> None:
    """Exact (bitwise-value) array equality with a readable label."""
    expected = np.asarray(expected)
    actual = np.asarray(actual)
    assert expected.shape == actual.shape, (
        f"{label}: shape {actual.shape} != {expected.shape}"
    )
    assert np.array_equal(expected, actual), (
        f"{label}: arrays differ at "
        f"{np.flatnonzero(expected != actual)[:8].tolist()}"
    )


# ----------------------------------------------------------------------
# Approximators
# ----------------------------------------------------------------------
def build_test_approximator(graph: Graph, seed: int):
    """A deterministic approximator for operator sweeps (fixed alpha so
    no Dinic randomness enters the matrix)."""
    return build_congestion_approximator(graph, rng=seed, alpha=2.0)


"""Reusable cross-shard equivalence harness.

The sharded execution backend's whole contract is *bit-identity*: for
any seed, any generator, any shard count and any pool backend, every
sharded kernel must return exactly the arrays the serial kernel
returns — same values, same dtype-compatible contents, same
tie-breaking — and must leave the graph's derived caches in the same
(valid, read-only) state. This module packages that contract as
assertion helpers plus the standard seed × generator × shard-count
sweep matrix, so any test file (unit-level kernels, construction,
end-to-end max-flow parity) can sweep the same grid. The approximator's
products never shard; :func:`per_tree_reference` is the readable
per-tree twin the flat stacked operator is golden-tested against.

Used by ``tests/test_parallel_backend.py``; importable by future
benchmarks and stress suites.
"""

from __future__ import annotations

import numpy as np

from repro.core.approximator import (
    TreeCongestionApproximator,
    build_congestion_approximator,
)
from repro.graphs import kernels
from repro.graphs.csr import INDEX_DTYPE, build_csr
from repro.graphs.generators import grid, random_connected, torus
from repro.graphs.graph import Graph
from repro.jtree.mwu import mwu_lengths
from repro.parallel import ParallelConfig, use_config

#: The standard sweep axes. Shard counts deliberately include a value
#: above the tree count of small approximators (plans clamp) and a
#: non-power-of-two.
SEEDS = (101, 202, 303)
SHARD_COUNTS = (2, 3, 4)
BACKENDS = ("serial", "thread")

#: name -> graph factory. Sizes chosen so the whole matrix stays fast;
#: ``min_size=0`` configs force sharding regardless of size.
GENERATORS = {
    "random": lambda seed: random_connected(72, 0.08, rng=seed),
    "grid": lambda seed: grid(9, 9, rng=seed),
    "torus": lambda seed: torus(8, 8, rng=seed),
}


class PerTreeApproximator(TreeCongestionApproximator):
    """An approximator whose R / Rᵀ products run tree by tree through
    each :class:`~repro.core.approximator.TreeOperator` block — the
    readable reference the flat stacked operator must match bit for
    bit (same row order, same accumulation folds)."""

    def apply(self, demand, out=None):
        demand = np.asarray(demand, dtype=float)
        blocks = [op.apply(demand) for op in self.operators]
        result = np.concatenate(blocks) if blocks else np.zeros(0)
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
        for op in self.operators:
            out += op.apply_transpose(row_values[offset : offset + op.num_rows])
            offset += op.num_rows
        return out

    def estimate(self, demand):
        return float(np.abs(self.apply(demand)).max(initial=0.0))


def per_tree_reference(approximator) -> PerTreeApproximator:
    """The per-tree reference twin of ``approximator`` (same trees, α
    and method)."""
    return PerTreeApproximator(
        graph=approximator.graph,
        operators=approximator.operators,
        alpha=approximator.alpha,
        method=approximator.method,
    )


def forced(workers: int, backend: str = "serial") -> ParallelConfig:
    """A config that shards regardless of instance size."""
    return ParallelConfig(workers=workers, backend=backend, min_size=0)


def sweep_cases():
    """The full (seed, generator-name, shard-count, backend) matrix."""
    return [
        (seed, name, workers, backend)
        for seed in SEEDS
        for name in GENERATORS
        for workers in SHARD_COUNTS
        for backend in BACKENDS
    ]


def make_graph(name: str, seed: int) -> Graph:
    return GENERATORS[name](seed)


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


def assert_recovery_invisible(pool, fn, tasks, label: str = "map") -> None:
    """Supervised recovery's whole contract: a map that survived injected
    faults returns exactly what a fault-free serial evaluation returns —
    same order, same values, bit for bit. Shards are pure functions of
    their arguments, so a retried shard is indistinguishable from a
    first-try shard; any visible difference means recovery leaked."""
    expected = [fn(*task) for task in tasks]
    got = pool.map(fn, tasks)
    assert len(got) == len(expected), (
        f"{label}: {len(got)} results for {len(expected)} tasks"
    )
    for i, (want, have) in enumerate(zip(expected, got)):
        assert_arrays_identical(f"{label}[shard {i}]", want, have)


def assert_cache_invariants(graph: Graph) -> None:
    """The derived-cache contract after any (sharded) run.

    * the cached CSR is stable (same object on re-query) and all three
      arrays are read-only, correctly sized and typed;
    * ``indptr`` is monotone and consistent with the incidence count;
    * the capacity / endpoint views are read-only and alias-stable.
    """
    csr = graph.csr()
    assert csr is graph.csr(), "CSR cache must be stable across queries"
    assert len(csr.indptr) == graph.num_nodes + 1
    assert len(csr.neighbor) == 2 * graph.num_edges
    assert len(csr.edge_id) == 2 * graph.num_edges
    for arr in (csr.indptr, csr.neighbor, csr.edge_id):
        assert not arr.flags.writeable, "CSR arrays must be read-only"
    assert csr.neighbor.dtype == INDEX_DTYPE
    assert csr.edge_id.dtype == INDEX_DTYPE
    assert int(csr.indptr[0]) == 0
    assert int(csr.indptr[-1]) == 2 * graph.num_edges
    assert np.all(np.diff(csr.indptr) >= 0), "indptr must be monotone"
    caps = graph.capacities()
    assert not caps.flags.writeable
    assert caps is graph.capacities()
    tails, heads = graph.edge_index_arrays()
    assert not tails.flags.writeable and not heads.flags.writeable


# ----------------------------------------------------------------------
# Kernel-level equivalence
# ----------------------------------------------------------------------
def assert_bfs_equivalent(graph: Graph, config: ParallelConfig) -> None:
    """Sharded BFS (levels, parents, masked levels) == serial, exactly."""
    csr = graph.csr()
    serial_levels = kernels.bfs_levels(csr, 0)
    assert_arrays_identical(
        "bfs_levels", serial_levels, kernels.bfs_levels(csr, 0, parallel=config)
    )
    sources = np.array([0, graph.num_nodes // 2], dtype=np.int64)
    mask = np.zeros(graph.num_edges, dtype=bool)
    mask[::2] = True
    assert_arrays_identical(
        "bfs_levels[masked multi-source]",
        kernels.bfs_levels(csr, sources, allowed_edges=mask),
        kernels.bfs_levels(csr, sources, allowed_edges=mask, parallel=config),
    )
    serial_tree = kernels.bfs_parents(csr, root=1)
    sharded_tree = kernels.bfs_parents(csr, root=1, parallel=config)
    for part, expected, actual in zip(
        ("dist", "parent", "parent_edge"), serial_tree, sharded_tree
    ):
        assert_arrays_identical(f"bfs_parents.{part}", expected, actual)
    assert_cache_invariants(graph)


def assert_hop_distances_equivalent(
    graph: Graph, config: ParallelConfig
) -> None:
    """Sharded multi-source lockstep BFS == serial, row for row."""
    csr = graph.csr()
    step = max(1, graph.num_nodes // 12)
    sources = np.arange(0, graph.num_nodes, step, dtype=np.int64)
    assert_arrays_identical(
        "multi_source_hop_distances",
        kernels.multi_source_hop_distances(csr, sources),
        kernels.multi_source_hop_distances(csr, sources, parallel=config),
    )
    # Duplicates and unordered sources keep the per-row independence
    # argument honest (blocks must not interact).
    mixed = np.array(
        [graph.num_nodes - 1, 0, graph.num_nodes // 2, 0], dtype=np.int64
    )
    assert_arrays_identical(
        "multi_source_hop_distances[mixed]",
        kernels.multi_source_hop_distances(csr, mixed),
        kernels.multi_source_hop_distances(csr, mixed, parallel=config),
    )
    assert_cache_invariants(graph)


def assert_mwu_lengths_equivalent(
    graph: Graph, config: ParallelConfig, seed: int
) -> None:
    """Sharded stacked MWU length evaluation == serial, bit for bit."""
    caps = graph.capacities()
    rng = np.random.default_rng(seed)
    # Potentials straddling MAX_EXPONENT exercise the clamp branch.
    stack = rng.uniform(0.0, 60.0, size=(9, graph.num_edges))
    serial = mwu_lengths(stack, caps)
    assert_arrays_identical(
        "mwu_lengths[stacked]",
        serial,
        mwu_lengths(stack, caps, parallel=config),
    )
    # Stacked rows must equal the single-vector evaluation per row
    # (the batched-hierarchy contract the sharding must preserve).
    for row in (0, len(stack) - 1):
        assert_arrays_identical(
            f"mwu_lengths[row {row}]",
            mwu_lengths(stack[row], caps),
            serial[row],
        )
    single = rng.uniform(0.0, 50.0, size=graph.num_edges)
    assert_arrays_identical(
        "mwu_lengths[single]",
        mwu_lengths(single, caps),
        mwu_lengths(single, caps, parallel=config),
    )


def assert_csr_build_equivalent(graph: Graph, config: ParallelConfig) -> None:
    """Sharded CSR build == serial build, array for array."""
    tails, heads = graph.edge_index_arrays()
    serial = build_csr(graph.num_nodes, tails, heads)
    sharded = build_csr(graph.num_nodes, tails, heads, parallel=config)
    assert_arrays_identical("csr.indptr", serial.indptr, sharded.indptr)
    assert_arrays_identical("csr.neighbor", serial.neighbor, sharded.neighbor)
    assert_arrays_identical("csr.edge_id", serial.edge_id, sharded.edge_id)
    for arr in (sharded.indptr, sharded.neighbor, sharded.edge_id):
        assert not arr.flags.writeable


def assert_contract_equivalent(graph: Graph, config: ParallelConfig) -> None:
    """Contraction under a sharded default config == serial contraction,
    including the pre-seeded quotient CSR cache state."""
    labels = [v % max(4, graph.num_nodes // 6) for v in range(graph.num_nodes)]
    for keep_parallel in (True, False):
        serial_q, serial_origin = graph.contract(labels, keep_parallel)
        with use_config(config):
            sharded_q, sharded_origin = graph.contract(labels, keep_parallel)
        assert serial_origin == sharded_origin
        assert serial_q.num_nodes == sharded_q.num_nodes
        for name, a, b in (
            ("tails", *(x.edge_index_arrays()[0] for x in (serial_q, sharded_q))),
            ("heads", *(x.edge_index_arrays()[1] for x in (serial_q, sharded_q))),
            ("caps", serial_q.capacities(), sharded_q.capacities()),
        ):
            assert_arrays_identical(f"contract.{name}", a, b)
        assert_arrays_identical(
            "contract.csr.neighbor",
            serial_q.csr().neighbor,
            sharded_q.csr().neighbor,
        )
        assert_cache_invariants(sharded_q)


# ----------------------------------------------------------------------
# Approximators
# ----------------------------------------------------------------------
def build_test_approximator(graph: Graph, seed: int):
    """A deterministic approximator for operator sweeps (fixed alpha so
    no Dinic randomness enters the matrix)."""
    return build_congestion_approximator(graph, rng=seed, alpha=2.0)


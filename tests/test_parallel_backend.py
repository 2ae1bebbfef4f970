"""Construction-kernel sweep over the standard seed × generator matrix.

Sweeps the harness's matrix (``tests/parallel_harness.py``) over every
construction kernel — frontier BFS, CSR build, hop distances, MWU
lengths — and over approximator construction and end-to-end
``max_flow`` / ``min_congestion_flow``, asserting **bit identity** with
a reference that shares none of the kernel's code: a pure-Python FIFO
traversal or a rerun on a fresh graph (the MWU lengths meet their
formula to within rounding). Contraction is held to its pure-Python
reference in ``tests/test_csr.py``. Also checks the graph's
derived-cache state after each run.

The module name dates from when each kernel also had a sharded twin
that this sweep held to the serial kernel; the twins are gone, and the
same cases now hold the serial kernels to independent references.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
import pytest

from repro.core.maxflow import max_flow, min_congestion_flow
from repro.graphs import kernels
from repro.graphs.csr import INDEX_DTYPE, build_csr
from repro.graphs.generators import random_connected
from repro.graphs.graph import Graph
from repro.jtree.mwu import ETA, MAX_EXPONENT, mwu_lengths

from parallel_harness import (
    GENERATORS,
    SEEDS,
    assert_arrays_identical,
    build_test_approximator,
    make_graph,
)


# ----------------------------------------------------------------------
# Pure-Python references and the derived-cache contract
# ----------------------------------------------------------------------
def reference_adjacency(graph: Graph) -> list[list[tuple[int, int]]]:
    """``(neighbor, edge_id)`` lists in edge-insertion order."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(graph.num_nodes)]
    tails, heads = graph.edge_index_arrays()
    for eid, (u, v) in enumerate(zip(tails.tolist(), heads.tolist())):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    return adj


def reference_bfs(
    graph: Graph, sources
) -> tuple[list[int], list[int], list[int]]:
    """FIFO-queue BFS from ``sources``: ``(dist, parent, parent_edge)``
    with the kernels' conventions (root parent ``-1``, unreached
    ``-1`` / ``-2`` / ``-1``)."""
    adj = reference_adjacency(graph)
    dist = [-1] * graph.num_nodes
    parent = [-2] * graph.num_nodes
    parent_edge = [-1] * graph.num_nodes
    queue: deque[int] = deque()
    for source in sources:
        if dist[source] < 0:
            dist[source] = 0
            parent[source] = -1
            queue.append(source)
    while queue:
        node = queue.popleft()
        for neighbor, eid in adj[node]:
            if dist[neighbor] < 0:
                dist[neighbor] = dist[node] + 1
                parent[neighbor] = node
                parent_edge[neighbor] = eid
                queue.append(neighbor)
    return dist, parent, parent_edge


def assert_cache_invariants(graph: Graph) -> None:
    """The derived-cache contract after any run.

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
# Kernel sweep
# ----------------------------------------------------------------------
def assert_bfs_matches_reference(graph: Graph) -> None:
    """BFS levels (single and multi-source) and the BFS parent tree ==
    the FIFO reference, exactly."""
    csr = graph.csr()
    assert_arrays_identical(
        "bfs_levels", reference_bfs(graph, [0])[0], kernels.bfs_levels(csr, 0)
    )
    sources = np.array([0, graph.num_nodes // 2], dtype=np.int64)
    assert_arrays_identical(
        "bfs_levels[multi-source]",
        reference_bfs(graph, sources.tolist())[0],
        kernels.bfs_levels(csr, sources),
    )
    for part, expected, actual in zip(
        ("dist", "parent", "parent_edge"),
        reference_bfs(graph, [1]),
        kernels.bfs_parents(csr, root=1),
    ):
        assert_arrays_identical(f"bfs_parents.{part}", expected, actual)
    assert_cache_invariants(graph)


def assert_csr_build_matches_reference(graph: Graph) -> None:
    """``build_csr`` == rows of the insertion-order adjacency, array
    for array, read-only; the graph's cached CSR is the same build."""
    adj = reference_adjacency(graph)
    indptr = np.cumsum([0] + [len(row) for row in adj])
    neighbor = [nbr for row in adj for nbr, _ in row]
    edge_id = [eid for row in adj for _, eid in row]
    tails, heads = graph.edge_index_arrays()
    for label, csr in (
        ("build_csr", build_csr(graph.num_nodes, tails, heads)),
        ("graph.csr", graph.csr()),
    ):
        assert_arrays_identical(f"{label}.indptr", indptr, csr.indptr)
        assert_arrays_identical(f"{label}.neighbor", neighbor, csr.neighbor)
        assert_arrays_identical(f"{label}.edge_id", edge_id, csr.edge_id)
        for arr in (csr.indptr, csr.neighbor, csr.edge_id):
            assert not arr.flags.writeable


def assert_hop_distances_match_bfs(graph: Graph) -> None:
    """Lockstep multi-source hop distances == one reference BFS per
    source, row for row; all sources at once == the same rows."""
    csr = graph.csr()
    n = graph.num_nodes
    step = max(1, n // 12)
    # Duplicates and unordered sources check that rows never interact.
    for label, sources in (
        ("strided", np.arange(0, n, step, dtype=np.int64)),
        ("mixed", np.array([n - 1, 0, n // 2, 0], dtype=np.int64)),
    ):
        assert_arrays_identical(
            f"multi_source_hop_distances[{label}]",
            [reference_bfs(graph, [s])[0] for s in sources.tolist()],
            kernels.multi_source_hop_distances(csr, sources),
        )
    # Every node as a source at once: the all-pairs matrix.
    assert_arrays_identical(
        "multi_source_hop_distances[all]",
        [reference_bfs(graph, [s])[0] for s in range(n)],
        kernels.multi_source_hop_distances(csr, np.arange(n)),
    )
    assert_cache_invariants(graph)


def assert_mwu_lengths_match_formula(graph: Graph, seed: int) -> None:
    """MWU lengths == ``exp(min(η·p, MAX_EXPONENT)) / cap``, stacked
    and single; every clamped entry equals the length at the cap."""
    caps = graph.capacities()
    rng = np.random.default_rng(seed)
    # Potentials straddling MAX_EXPONENT exercise the clamp branch.
    stack = rng.uniform(0.0, 60.0, size=(9, graph.num_edges))
    assert (stack > MAX_EXPONENT).any() and (stack < MAX_EXPONENT).any()
    single = rng.uniform(0.0, 50.0, size=graph.num_edges)
    for label, potentials in (("stacked", stack), ("single", single)):
        lengths = mwu_lengths(potentials, caps)
        assert lengths.shape == potentials.shape
        expected = [
            math.exp(min(ETA * p, MAX_EXPONENT)) for p in potentials.ravel()
        ]
        # ``math.exp`` and ``np.exp`` may round one ulp apart.
        np.testing.assert_allclose(
            lengths,
            np.reshape(expected, potentials.shape) / caps,
            rtol=1e-15,
            err_msg=f"mwu_lengths[{label}]",
        )
        at_cap = mwu_lengths(np.full_like(potentials, MAX_EXPONENT), caps)
        clamped = ETA * potentials >= MAX_EXPONENT
        assert_arrays_identical(
            f"mwu_lengths[{label}, clamped]",
            at_cap[clamped],
            lengths[clamped],
        )
        assert np.all(lengths[~clamped] < at_cap[~clamped])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(GENERATORS))
class TestKernelEquivalence:
    def test_bfs_and_csr_sweep(self, name, seed):
        graph = make_graph(name, seed)
        assert_bfs_matches_reference(graph)
        assert_csr_build_matches_reference(graph)

    def test_hop_distances_and_mwu_lengths_sweep(self, name, seed):
        graph = make_graph(name, seed)
        assert_hop_distances_match_bfs(graph)
        assert_mwu_lengths_match_formula(graph, seed)


# ----------------------------------------------------------------------
# Approximator sweep: construction is a function of (graph, seed)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_operator_equivalence_sweep(name, seed):
    """A second build on the same graph (every cache the first build
    touched is now warm) and a build on a fresh copy reproduce the
    first build's products bit for bit."""
    graph = make_graph(name, seed)
    first = build_test_approximator(graph, seed)
    rng = np.random.default_rng(seed)
    demand = rng.normal(size=graph.num_nodes)
    demand -= demand.mean()
    rows = rng.normal(size=first.num_rows)
    expected_apply = first.apply(demand).copy()
    expected_transpose = first.apply_transpose(rows).copy()
    expected_estimate = first.estimate(demand)
    for label, rebuilt_graph in (
        ("warm", graph),
        ("fresh", make_graph(name, seed)),
    ):
        again = build_test_approximator(rebuilt_graph, seed)
        assert again.num_rows == first.num_rows
        assert_arrays_identical(
            f"apply[{label}]", expected_apply, again.apply(demand)
        )
        assert_arrays_identical(
            f"apply_transpose[{label}]",
            expected_transpose,
            again.apply_transpose(rows),
        )
        assert again.estimate(demand) == expected_estimate
        assert_cache_invariants(rebuilt_graph)


# ----------------------------------------------------------------------
# End-to-end parity: reruns reproduce the first run
# ----------------------------------------------------------------------
class TestEndToEndParity:
    @pytest.mark.parametrize("seed", [101, 202])
    def test_max_flow_parity(self, seed):
        """Routing keeps no state in a shared approximator: after
        routing another pair and another demand through it, a repeat
        ``max_flow`` reproduces the first one bit for bit."""
        graph = random_connected(48, 0.1, rng=seed)
        approximator = build_test_approximator(graph, seed)
        t = graph.num_nodes - 1
        baseline = max_flow(graph, 0, t, approximator=approximator, rng=seed)
        max_flow(graph, 3, 21, approximator=approximator, rng=seed + 1)
        demand = np.random.default_rng(seed).normal(size=graph.num_nodes)
        demand -= demand.mean()
        min_congestion_flow(graph, demand, approximator=approximator)
        result = max_flow(graph, 0, t, approximator=approximator, rng=seed)
        assert result.value == baseline.value
        assert_arrays_identical("max_flow.flow", baseline.flow, result.flow)
        assert (
            result.congestion_result.congestion
            == baseline.congestion_result.congestion
        )
        assert (
            result.congestion_result.lower_bound
            == baseline.congestion_result.lower_bound
        )
        assert_cache_invariants(graph)

    def test_min_congestion_flow_parity(self):
        """``min_congestion_flow`` with no approximator builds one; a
        rerun on a fresh graph and one on the warmed graph reproduce
        the routed flow."""
        rng = np.random.default_rng(506)
        demand = rng.normal(size=48)
        demand -= demand.mean()
        graph = random_connected(48, 0.1, rng=505)
        baseline = min_congestion_flow(graph, demand, rng=505)
        for label, rerun_graph in (
            ("warm", graph),
            ("fresh", random_connected(48, 0.1, rng=505)),
        ):
            result = min_congestion_flow(rerun_graph, demand, rng=505)
            assert_arrays_identical(
                f"min_congestion.flow[{label}]", baseline.flow, result.flow
            )
            assert result.congestion == baseline.congestion
            assert result.iterations == baseline.iterations

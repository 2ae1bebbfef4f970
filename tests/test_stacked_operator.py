"""Golden equivalence: flat stacked operator vs per-tree blocks.

The contract is *exact* float equality on the shared evaluation
order: the flat fused pass of :class:`StackedTreeOperator` — the only
product path of the approximator — must reproduce the per-tree
reference loop (``RootedTree.subtree_sums`` /
``prefix_sums_from_root``, tree by tree) bit for bit (same row order,
same accumulation folds) for ``apply``, ``apply_transpose`` and
``estimate``, and hence AlmostRoute must return identical results on
either.
"""

from __future__ import annotations

import numpy as np
import pytest

from parallel_harness import (
    GENERATORS,
    SEEDS,
    assert_arrays_identical,
    build_test_approximator,
    make_graph,
    per_tree_reference,
)
from repro.core import (
    RouteWorkspace,
    StackedTreeOperator,
    TreeCongestionApproximator,
    accelerated_almost_route,
    almost_route,
    build_congestion_approximator,
    estimate_alpha_st,
    min_congestion_flow,
    smax_and_gradient,
)
from repro.errors import GraphError
from repro.graphs.generators import grid, random_connected
from repro.graphs.graph import Graph
from repro.graphs.trees import RootedTree
from repro.util.validation import st_demand


def _modes(approx, fn):
    """``fn`` on the per-tree reference twin, then on ``approx`` itself
    (the flat stacked path)."""
    return fn(per_tree_reference(approx)), fn(approx)


@pytest.fixture(scope="module")
def medium():
    g = random_connected(80, 0.08, rng=301)
    return g, build_congestion_approximator(g, rng=302)


class TestGoldenEquivalence:
    def test_apply_random_demands(self, medium):
        g, approx = medium
        rng = np.random.default_rng(303)
        for _ in range(10):
            b = rng.normal(size=g.num_nodes)
            b -= b.mean()
            per_tree, flat = _modes(approx, lambda a: a.apply(b))
            assert np.array_equal(per_tree, flat)

    def test_apply_transpose_random_rows(self, medium):
        g, approx = medium
        rng = np.random.default_rng(304)
        for _ in range(10):
            y = rng.normal(size=approx.num_rows)
            per_tree, flat = _modes(approx, lambda a: a.apply_transpose(y))
            assert np.array_equal(per_tree, flat)

    def test_estimate_identical(self, medium):
        g, approx = medium
        rng = np.random.default_rng(305)
        for _ in range(5):
            b = rng.normal(size=g.num_nodes)
            b -= b.mean()
            per_tree, flat = _modes(approx, lambda a: a.estimate(b))
            assert per_tree == flat

    def test_zero_demand(self, medium):
        g, approx = medium
        zero = np.zeros(g.num_nodes)
        per_tree, flat = _modes(approx, lambda a: a.apply(zero))
        assert np.array_equal(per_tree, flat)
        assert not flat.any()
        per_tree, flat = _modes(approx, lambda a: a.estimate(zero))
        assert per_tree == flat == 0.0

    def test_grid_graph_stack(self):
        g = grid(9, 9, rng=306)
        approx = build_congestion_approximator(g, rng=307, method="mwu")
        rng = np.random.default_rng(308)
        b = rng.normal(size=g.num_nodes)
        b -= b.mean()
        y = rng.normal(size=approx.num_rows)
        assert np.array_equal(*_modes(approx, lambda a: a.apply(b)))
        assert np.array_equal(
            *_modes(approx, lambda a: a.apply_transpose(y))
        )

    def test_single_node_trees(self):
        """Trees with no rows at all: empty products, zero potentials."""
        g = Graph(1)
        trees = [RootedTree([-1], capacity=[0.0]) for _ in range(3)]
        approx = TreeCongestionApproximator(graph=g, trees=trees, alpha=1.0)
        assert approx.num_rows == 0
        for variant in (per_tree_reference(approx), approx):
            assert variant.apply(np.zeros(1)).shape == (0,)
            out = variant.apply_transpose(np.zeros(0))
            assert np.array_equal(out, np.zeros(1))
            assert variant.estimate(np.zeros(1)) == 0.0

    def test_multi_tree_stack_row_order(self, medium):
        """The flat row order is the per-tree concatenation order."""
        g, approx = medium
        b = st_demand(g, 0, g.num_nodes - 1)
        blocks = []
        for tree in approx.trees():
            rows = np.flatnonzero(np.asarray(tree.parent) >= 0)
            cuts = tree.capacity[rows]
            blocks.append(tree.subtree_sums(b)[rows] * (1.0 / cuts))
        flat = approx.stacked().apply(b)
        assert np.array_equal(np.concatenate(blocks), flat)

    def test_mismatched_tree_rejected(self, medium):
        g, approx = medium
        alien = RootedTree([-1, 0], capacity=[0.0, 1.0])
        with pytest.raises(GraphError):
            StackedTreeOperator(approx.trees() + [alien], g.num_nodes)

    def test_no_trees_rejected(self):
        """The operator is exported on its own: an empty tree list is a
        ``GraphError``, not NumPy's failure to concatenate nothing."""
        with pytest.raises(GraphError):
            StackedTreeOperator([], 5)

    def test_tiny_graph_matches_per_tree_reference(self):
        """Tiny graphs run the flat pass too, bit-identical to the
        per-tree reference end to end."""
        tiny = random_connected(8, 0.5, rng=309)
        approx = build_congestion_approximator(tiny, num_trees=2, rng=310)
        demand = st_demand(tiny, 0, tiny.num_nodes - 1)
        per_tree, flat = _modes(
            approx, lambda a: almost_route(tiny, a, demand, 0.4)
        )
        assert per_tree.iterations == flat.iterations
        assert np.array_equal(per_tree.flow, flat.flow)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_harness_graphs_match_per_tree_reference(name, seed):
    """The flat ``apply`` (fresh and ``out=``), ``apply_transpose`` and
    ``estimate`` equal the per-tree reference bit for bit on the
    harness's random, grid and torus graphs."""
    graph = make_graph(name, seed)
    approx = build_test_approximator(graph, seed)
    reference = per_tree_reference(approx)
    stacked = approx.stacked()
    rng = np.random.default_rng(seed)
    demand = rng.normal(size=graph.num_nodes)
    demand -= demand.mean()
    rows = rng.normal(size=stacked.num_rows)
    expected = reference.apply(demand)
    assert_arrays_identical("apply", expected, stacked.apply(demand))
    out = np.empty(stacked.num_rows)
    assert stacked.apply(demand, out=out) is out
    assert_arrays_identical("apply[out]", expected, out)
    assert_arrays_identical(
        "apply_transpose",
        reference.apply_transpose(rows),
        stacked.apply_transpose(rows),
    )
    assert stacked.estimate(demand) == reference.estimate(demand)


class TestOutBuffers:
    def test_apply_out_buffer(self, medium):
        g, approx = medium
        b = st_demand(g, 1, 5)
        expected = approx.apply(b)
        out = np.empty(approx.num_rows)
        result = approx.apply(b, out=out)
        assert result is out
        assert np.array_equal(result, expected)

    def test_apply_transpose_out_buffer(self, medium):
        g, approx = medium
        rng = np.random.default_rng(311)
        y = rng.normal(size=approx.num_rows)
        expected = approx.apply_transpose(y)
        out = np.empty(g.num_nodes)
        result = approx.apply_transpose(y, out=out)
        assert result is out
        assert np.array_equal(result, expected)

    def test_repeated_calls_reuse_scratch(self, medium):
        """Scratch reuse must not leak state between calls."""
        g, approx = medium
        stacked = approx.stacked()
        rng = np.random.default_rng(312)
        b1 = rng.normal(size=g.num_nodes)
        b1 -= b1.mean()
        first = stacked.apply(b1).copy()
        b2 = rng.normal(size=g.num_nodes)
        b2 -= b2.mean()
        stacked.apply(b2)
        assert np.array_equal(stacked.apply(b1), first)

    def test_apply_rejects_short_demand(self, medium):
        """The clip-mode gather must not silently wrap a short vector."""
        g, approx = medium
        short = np.zeros(g.num_nodes - 5)
        with pytest.raises(GraphError):
            approx.stacked().apply(short)
        with pytest.raises(GraphError):
            approx.stacked().apply_transpose(np.zeros(approx.num_rows - 3))

    def test_smax_rejects_aliased_buffers(self):
        y = np.linspace(-2.0, 2.0, 16)
        with pytest.raises(GraphError):
            smax_and_gradient(y, out=y)
        with pytest.raises(GraphError):
            smax_and_gradient(y, scratch=y[::2])

    def test_smax_and_gradient_buffered_identical(self):
        rng = np.random.default_rng(313)
        y = rng.normal(size=257) * 30.0
        value, gradient = smax_and_gradient(y)
        out = np.empty_like(y)
        scratch = np.empty(2 * y.size)
        value_buf, gradient_buf = smax_and_gradient(y, out=out, scratch=scratch)
        assert value == value_buf
        assert gradient_buf is out
        assert np.array_equal(gradient, gradient_buf)

    def test_excess_matches_legacy_scatter(self, medium):
        g, _ = medium
        rng = np.random.default_rng(314)
        flow = rng.normal(size=g.num_edges)
        tails, heads = g.edge_index_arrays()
        reference = np.zeros(g.num_nodes)
        np.add.at(reference, heads, flow)
        np.subtract.at(reference, tails, flow)
        assert np.array_equal(reference, g.excess(flow))
        out = np.empty(g.num_nodes)
        assert np.array_equal(reference, g.excess(flow, out=out))


class TestEndToEndIdentity:
    def test_almost_route_identical_paths(self, medium):
        g, approx = medium
        demand = st_demand(g, 0, g.num_nodes - 1)
        per_tree, flat = _modes(
            approx, lambda a: almost_route(g, a, demand, 0.4)
        )
        assert per_tree.iterations == flat.iterations
        assert per_tree.scalings == flat.scalings
        assert per_tree.potential == flat.potential
        assert per_tree.delta == flat.delta
        assert np.array_equal(per_tree.flow, flat.flow)
        assert np.array_equal(per_tree.residual, flat.residual)

    def test_accelerated_identical_paths(self, medium):
        g, approx = medium
        demand = st_demand(g, 2, 11)
        per_tree, flat = _modes(
            approx, lambda a: accelerated_almost_route(g, a, demand, 0.4)
        )
        assert per_tree.iterations == flat.iterations
        assert np.array_equal(per_tree.flow, flat.flow)

    def test_workspace_reuse_is_pure(self, medium):
        """One workspace across calls == fresh workspaces per call."""
        g, approx = medium
        ws = RouteWorkspace(g, approx)
        d1 = st_demand(g, 0, 9)
        d2 = st_demand(g, 3, 40)
        shared = [
            almost_route(g, approx, d, 0.4, workspace=ws) for d in (d1, d2)
        ]
        fresh = [almost_route(g, approx, d, 0.4) for d in (d1, d2)]
        for a, b in zip(shared, fresh):
            assert np.array_equal(a.flow, b.flow)
            assert a.iterations == b.iterations

    def test_workspace_mismatch_raises(self, medium):
        """A workspace sized for a different (graph, approximator) pair
        is an error, not a silent rebuild: the caller handed over
        buffers it expects to keep reusing (regression for the old
        silent-replace behaviour)."""
        g, approx = medium
        other = random_connected(12, 0.4, rng=315)
        other_approx = build_congestion_approximator(
            other, num_trees=2, rng=316
        )
        stale = RouteWorkspace(other, other_approx)
        with pytest.raises(GraphError, match="shape mismatch") as exc:
            RouteWorkspace.ensure(stale, g, approx)
        # The message names both the expected and the actual sizes.
        assert str(stale.shape_key) in str(exc.value)
        key = (g.num_edges, g.num_nodes, approx.num_rows)
        assert str(key) in str(exc.value)
        with pytest.raises(GraphError):
            almost_route(g, approx, st_demand(g, 0, 5), 0.4, workspace=stale)
        built = RouteWorkspace.ensure(None, g, approx)
        assert built.shape_key == key
        assert RouteWorkspace.ensure(built, g, approx) is built

    def test_min_congestion_flow_workspace_param(self, medium):
        g, approx = medium
        demand = st_demand(g, 0, 7)
        ws = RouteWorkspace(g, approx)
        with_ws = min_congestion_flow(
            g, demand, epsilon=0.4, approximator=approx, workspace=ws
        )
        without = min_congestion_flow(
            g, demand, epsilon=0.4, approximator=approx
        )
        assert np.array_equal(with_ws.flow, without.flow)


class TestAlphaEstimateGuard:
    def test_zero_maxflow_pair_skipped(self, medium, monkeypatch):
        """A degenerate s-t pair (zero max flow) must be skipped, not
        crash with ZeroDivisionError."""
        g, approx = medium

        class _Zero:
            value = 0.0

        import repro.flow.dinic as dinic_module

        monkeypatch.setattr(
            dinic_module, "dinic_max_flow", lambda *a, **k: _Zero()
        )
        alpha = estimate_alpha_st(g, approx, rng=317, trials=3)
        assert alpha == 2.0  # nothing learned: worst=1 times safety


class TestBatchedOperator:
    """The ``(Q, ·)`` forms of the stacked operator are golden
    bit-identical per row to the 1-D paths (and hence, transitively,
    to the per-tree reference)."""

    def _planes(self, g, approx, num_queries, seed):
        rng = np.random.default_rng(seed)
        demands = rng.normal(size=(num_queries, g.num_nodes))
        demands -= demands.mean(axis=1, keepdims=True)
        rows = rng.normal(size=(num_queries, approx.num_rows))
        return demands, rows

    def test_apply_batch_rows_match_1d(self, medium):
        g, approx = medium
        demands, _ = self._planes(g, approx, 6, 401)
        plane = approx.stacked().apply_batch(demands)
        assert plane.shape == (6, approx.num_rows)
        for q in range(6):
            assert np.array_equal(approx.apply(demands[q]), plane[q])

    def test_apply_transpose_batch_rows_match_1d(self, medium):
        g, approx = medium
        _, rows = self._planes(g, approx, 6, 402)
        plane = approx.stacked().apply_transpose_batch(rows)
        assert plane.shape == (6, g.num_nodes)
        for q in range(6):
            assert np.array_equal(approx.apply_transpose(rows[q]), plane[q])

    def test_out_buffers(self, medium):
        g, approx = medium
        stacked = approx.stacked()
        demands, rows = self._planes(g, approx, 4, 404)
        out_rows = np.empty((4, approx.num_rows))
        assert stacked.apply_batch(demands, out=out_rows) is out_rows
        assert np.array_equal(stacked.apply_batch(demands), out_rows)
        out_pots = np.empty((4, g.num_nodes))
        assert stacked.apply_transpose_batch(rows, out=out_pots) is out_pots
        assert np.array_equal(stacked.apply_transpose_batch(rows), out_pots)

    def test_batch_scratch_reuse_is_pure(self, medium):
        """The operator's reused scratch must not leak state between
        batch calls."""
        g, approx = medium
        stacked = approx.stacked()
        demands, rows = self._planes(g, approx, 3, 406)
        first = stacked.apply_batch(demands).copy()
        other = demands[::-1].copy()
        stacked.apply_batch(other)
        assert np.array_equal(stacked.apply_batch(demands), first)
        first_t = stacked.apply_transpose_batch(rows).copy()
        stacked.apply_transpose_batch(rows[::-1].copy())
        assert np.array_equal(stacked.apply_transpose_batch(rows), first_t)

    def test_shape_errors(self, medium):
        g, approx = medium
        stacked = approx.stacked()
        with pytest.raises(GraphError):
            stacked.apply_batch(np.zeros(g.num_nodes))  # 1-D
        with pytest.raises(GraphError):
            stacked.apply_batch(np.zeros((2, g.num_nodes + 1)))
        with pytest.raises(GraphError):
            stacked.apply_transpose_batch(np.zeros((2, approx.num_rows - 1)))

    def test_empty_batch(self, medium):
        g, approx = medium
        stacked = approx.stacked()
        assert stacked.apply_batch(np.zeros((0, g.num_nodes))).shape == (
            0,
            approx.num_rows,
        )
        assert stacked.apply_transpose_batch(
            np.zeros((0, approx.num_rows))
        ).shape == (0, g.num_nodes)

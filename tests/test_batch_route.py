"""Golden equivalence: batched multi-demand routing vs one-shot calls.

The contract is *bit-identity per column*: for any demand plane,
:func:`almost_route_batch` (and its accelerated variant) must return,
in column q, exactly the flow/residual/counters the one-shot call on
demand q returns. These tests pin that contract for both solvers, plus
the batched kernel substrate
(``Graph.excess_batch``, ``check_demand_batch``).
"""

from __future__ import annotations

import numpy as np
import pytest

from parallel_harness import (
    assert_arrays_identical,
    build_test_approximator,
    make_graph,
)
from repro.core import (
    accelerated_almost_route,
    accelerated_almost_route_batch,
    almost_route,
    almost_route_batch,
)
from repro.errors import GraphError, InvalidDemandError
from repro.util.validation import check_demand_batch, st_demand


@pytest.fixture(scope="module")
def medium():
    g = make_graph("random", 101)
    return g, build_test_approximator(g, 101)


def _demand_plane(graph, seed, num_queries, zero_row=None):
    """A (Q, n) plane of mean-subtracted random demands; optionally one
    all-zero row to exercise the inactive-query path."""
    rng = np.random.default_rng(seed)
    plane = rng.normal(size=(num_queries, graph.num_nodes))
    plane -= plane.mean(axis=1, keepdims=True)
    if zero_row is not None:
        plane[zero_row] = 0.0
    return plane


def _assert_columns_identical(graph, approx, plane, eps, batch, singles):
    assert batch.num_queries == len(singles)
    for q, single in enumerate(singles):
        assert_arrays_identical(f"flow[{q}]", single.flow, batch.flows[q])
        assert_arrays_identical(
            f"residual[{q}]", single.residual, batch.residuals[q]
        )
        assert single.iterations == int(batch.iterations[q])
        assert single.scalings == int(batch.scalings[q])
        assert single.potential == float(batch.potentials[q])
        assert single.delta == float(batch.deltas[q])
        assert single.converged == bool(batch.converged[q])
        extracted = batch.query(q)
        assert_arrays_identical(f"query({q}).flow", single.flow, extracted.flow)
        assert extracted.iterations == single.iterations


# ----------------------------------------------------------------------
# Column-wise bit-identity, plain solver
# ----------------------------------------------------------------------
class TestPlainBatchGolden:
    def test_mixed_batch_matches_one_shot(self, medium):
        """Random + s-t + zero demands in one batch: every column equals
        its one-shot call, including the inactive zero column."""
        g, approx = medium
        plane = _demand_plane(g, 7, 6, zero_row=3)
        plane[1] = st_demand(g, 0, g.num_nodes - 1)
        eps = 0.4
        singles = [almost_route(g, approx, plane[q], eps) for q in range(6)]
        batch = almost_route_batch(g, approx, plane, eps)
        _assert_columns_identical(g, approx, plane, eps, batch, singles)

    def test_singleton_batch(self, medium):
        """Q=1 is the degenerate batch: exactly the one-shot call."""
        g, approx = medium
        plane = _demand_plane(g, 11, 1)
        single = almost_route(g, approx, plane[0], 0.5)
        batch = almost_route_batch(g, approx, plane, 0.5)
        _assert_columns_identical(g, approx, plane, 0.5, batch, [single])

    def test_empty_batch(self, medium):
        g, approx = medium
        batch = almost_route_batch(
            g, approx, np.zeros((0, g.num_nodes)), 0.5
        )
        assert batch.num_queries == 0
        assert batch.flows.shape == (0, g.num_edges)
        assert batch.converged.shape == (0,)

    def test_all_zero_batch(self, medium):
        """Every query inactive: zero flows, demands echoed back."""
        g, approx = medium
        plane = np.zeros((3, g.num_nodes))
        batch = almost_route_batch(g, approx, plane, 0.5)
        assert not batch.flows.any()
        assert batch.converged.all()
        assert (batch.iterations == 0).all()
        assert_arrays_identical("residuals", plane, batch.residuals)

    def test_batch_equals_one_shot(self, medium):
        """Batched == one-shot, bit for bit, with an inactive column
        inside the batch."""
        g, approx = medium
        plane = _demand_plane(g, 13, 4, zero_row=2)
        eps = 0.4
        singles = [almost_route(g, approx, plane[q], eps) for q in range(4)]
        batch = almost_route_batch(g, approx, plane, eps)
        _assert_columns_identical(g, approx, plane, eps, batch, singles)

    def test_budget_and_raise(self, medium):
        """A tiny budget leaves columns unconverged, and the partial
        iterate still matches one-shot."""
        g, approx = medium
        plane = _demand_plane(g, 17, 3)
        singles = [
            almost_route(g, approx, plane[q], 0.4, max_iterations=5)
            for q in range(3)
        ]
        batch = almost_route_batch(g, approx, plane, 0.4, max_iterations=5)
        _assert_columns_identical(g, approx, plane, 0.4, batch, singles)
        assert not batch.converged.any()


# ----------------------------------------------------------------------
# Column-wise bit-identity, accelerated solver
# ----------------------------------------------------------------------
class TestAcceleratedBatchGolden:
    def test_mixed_batch_matches_one_shot(self, medium):
        g, approx = medium
        plane = _demand_plane(g, 19, 5, zero_row=4)
        eps = 0.4
        singles = [
            accelerated_almost_route(g, approx, plane[q], eps)
            for q in range(5)
        ]
        batch = accelerated_almost_route_batch(g, approx, plane, eps)
        _assert_columns_identical(g, approx, plane, eps, batch, singles)

    def test_batch_equals_one_shot(self, medium):
        g, approx = medium
        plane = _demand_plane(g, 23, 3)
        eps = 0.4
        singles = [
            accelerated_almost_route(g, approx, plane[q], eps)
            for q in range(3)
        ]
        batch = accelerated_almost_route_batch(g, approx, plane, eps)
        _assert_columns_identical(g, approx, plane, eps, batch, singles)

    def test_ragged_convergence_freezes_columns(self, medium):
        """Queries converging at very different iteration counts: the
        frozen columns' flows must not drift after convergence."""
        g, approx = medium
        plane = _demand_plane(g, 29, 4)
        plane[0] *= 1e-3  # converges fast
        plane[0] -= plane[0].mean()
        eps = 0.4
        singles = [
            accelerated_almost_route(g, approx, plane[q], eps)
            for q in range(4)
        ]
        batch = accelerated_almost_route_batch(g, approx, plane, eps)
        assert len(set(int(i) for i in batch.iterations)) > 1
        _assert_columns_identical(g, approx, plane, eps, batch, singles)


# ----------------------------------------------------------------------
# Batched kernel substrate
# ----------------------------------------------------------------------
class TestExcessBatch:
    def test_rows_match_single_excess(self, medium):
        g, approx = medium
        rng = np.random.default_rng(41)
        plane = rng.normal(size=(5, g.num_edges))
        batch = g.excess_batch(plane)
        for q in range(5):
            assert_arrays_identical(
                f"excess[{q}]", g.excess(plane[q]), batch[q]
            )

    def test_out_parameter(self, medium):
        g, approx = medium
        rng = np.random.default_rng(43)
        plane = rng.normal(size=(3, g.num_edges))
        out = np.empty((3, g.num_nodes))
        assert g.excess_batch(plane, out=out) is out
        assert_arrays_identical("excess_batch[out]", g.excess_batch(plane), out)

    def test_shape_errors(self, medium):
        g, approx = medium
        with pytest.raises(GraphError):
            g.excess_batch(np.zeros(g.num_edges))  # 1-D
        with pytest.raises(GraphError):
            g.excess_batch(np.zeros((2, g.num_edges + 1)))


class TestCheckDemandBatch:
    def test_valid_plane_passes(self, medium):
        g, approx = medium
        plane = _demand_plane(g, 47, 3)
        out = check_demand_batch(g, plane)
        assert out.shape == plane.shape

    def test_wrong_shape(self, medium):
        g, approx = medium
        with pytest.raises(InvalidDemandError):
            check_demand_batch(g, np.zeros(g.num_nodes))
        with pytest.raises(InvalidDemandError):
            check_demand_batch(g, np.zeros((2, g.num_nodes + 1)))

    def test_nonzero_sum_names_query(self, medium):
        g, approx = medium
        plane = _demand_plane(g, 53, 3)
        plane[1, 0] += 5.0
        with pytest.raises(InvalidDemandError, match="demand 1"):
            check_demand_batch(g, plane)

    def test_nonfinite_names_query(self, medium):
        g, approx = medium
        plane = _demand_plane(g, 59, 3)
        plane[2, 1] = float("nan")
        with pytest.raises(InvalidDemandError, match="demand 2"):
            check_demand_batch(g, plane)

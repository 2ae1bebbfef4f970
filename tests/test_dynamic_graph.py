"""Dynamic-graph epochs: delta journal, warm starts, exact cut refresh.

The contracts under test:

* **journal soundness** — every capacity-only ``set_capacity`` bumps
  ``_version`` exactly once AND appends exactly one journal record, so
  the retained record count always equals the version delta; a journal
  that cannot vouch for an interval (overflow, structural mutation,
  out-of-range epoch) returns ``None`` and forces full invalidation.
* **warm-start validity** — seeding AlmostRoute with the previous
  epoch's flow (rescaled via the journal) converges in no more
  iterations than a cold start on small capacity-only deltas, and a
  zero seed reproduces the cold run bit for bit.
* **exact cut refresh** — ``TreeCongestionApproximator.refresh_capacities``
  recomputes every tree's cut capacities in place, patches the stacked
  operator to match a fresh fuse bit for bit, and keeps every tree and
  the row counts; its answers stay within the guarantee through a long
  chain of cumulative deltas.
* **incremental serving** — ``refresh="incremental"`` consumes the
  journal, counts refreshes and warm starts, and falls back to a full
  rebuild on structural mutation or journal overflow.
"""

from __future__ import annotations

import numpy as np
import pytest

from parallel_harness import assert_arrays_identical
from repro.core import (
    accelerated_almost_route,
    almost_route,
    build_congestion_approximator,
)
from repro.core.almost_route import almost_route_batch
from repro.core.stacked import StackedTreeOperator
from repro.errors import GraphError
from repro.flow.mst import maximum_spanning_tree
from repro.graphs.generators import random_connected
from repro.graphs.graph import Graph
from repro.graphs.journal import (
    JOURNAL_LIMIT,
    DeltaJournal,
    rescale_flow,
)
from repro.graphs.trees import induced_cut_capacities, tree_route_demand
from repro.scenarios.invariants import GUARANTEE_SLACK
from repro.serve import FlowServer
from repro.util.validation import st_demand

EPS = 0.4

#: Cumulative capacity deltas in the drift-chain test.
DRIFT_CYCLES = 30


@pytest.fixture()
def graph():
    return random_connected(48, 0.10, rng=710)


def _degrade(graph, fraction=0.01, factor=0.5, seed=0):
    """Capacity-only delta over ~fraction of the edges; returns eids."""
    rng = np.random.default_rng(seed)
    count = max(1, int(graph.num_edges * fraction))
    eids = np.sort(rng.choice(graph.num_edges, size=count, replace=False))
    for eid in eids.tolist():
        graph.set_capacity(int(eid), graph.capacity(int(eid)) * factor)
    return eids


# ----------------------------------------------------------------------
# Journal soundness
# ----------------------------------------------------------------------
class TestJournal:
    def test_version_delta_equals_record_count(self, graph):
        rng = np.random.default_rng(711)
        epoch = graph._version
        writes = 0
        for _ in range(50):
            eid = int(rng.integers(graph.num_edges))
            graph.set_capacity(eid, float(rng.uniform(0.5, 5.0)))
            writes += 1
            assert graph.journal_size == graph._version - epoch == writes
        delta = graph.deltas_since(epoch)
        assert delta is not None
        # Coalesced: one entry per distinct touched edge.
        assert delta.num_edges == len(set(delta.edge_ids.tolist()))

    def test_delta_coalesces_first_old_last_new(self):
        graph = Graph(3)
        graph.add_edge(0, 1, 4.0)
        graph.add_edge(1, 2, 8.0)
        epoch = graph._version
        graph.set_capacity(0, 2.0)
        graph.set_capacity(0, 6.0)
        graph.set_capacity(1, 1.0)
        delta = graph.deltas_since(epoch)
        assert delta.edge_ids.tolist() == [0, 1]
        assert delta.old_capacity.tolist() == [4.0, 8.0]
        assert delta.new_capacity.tolist() == [6.0, 1.0]

    def test_equal_epoch_is_empty_delta(self, graph):
        delta = graph.deltas_since(graph._version)
        assert delta is not None and delta.num_edges == 0

    def test_future_and_prehistoric_epochs_return_none(self, graph):
        assert graph.deltas_since(graph._version + 1) is None
        graph.add_edge(0, 1, 1.0)  # re-bases the journal
        base = graph._version
        graph.set_capacity(0, 2.0)
        assert graph.deltas_since(base - 1) is None

    def test_overflow_forces_full_invalidation(self):
        graph = Graph(2)
        graph.add_edge(0, 1, 1.0)
        epoch = graph._version
        assert not graph.journal_overflowed
        for i in range(JOURNAL_LIMIT + 5):
            graph.set_capacity(0, float(i + 2))
        assert graph.journal_overflowed
        assert graph.deltas_since(epoch) is None
        # Recent epochs inside the retained window still resolve ...
        recent = graph._version - 3
        assert graph.deltas_since(recent) is not None
        # ... and a structural mutation clears the overflow state.
        graph.add_edge(1, 0, 1.0)
        assert not graph.journal_overflowed
        assert graph.journal_size == 0

    def test_structural_mutation_invalidates(self, graph):
        epoch = graph._version
        graph.set_capacity(0, 3.0)
        assert graph.deltas_since(epoch) is not None
        graph.add_edge(0, 1, 1.0)
        assert graph.deltas_since(epoch) is None
        assert graph.journal_size == 0

    def test_unaccounted_version_bump_returns_none(self):
        journal = DeltaJournal()
        journal.record(1, 0, 1.0, 2.0)
        # version moved by 2 but only one record retained: the journal
        # cannot vouch for the interval.
        assert journal.deltas_since(0, 3) is None

    def test_rescale_flow_preserves_congestion(self):
        graph = Graph(3)
        graph.add_edge(0, 1, 4.0)
        graph.add_edge(1, 2, 8.0)
        epoch = graph._version
        graph.set_capacity(0, 2.0)
        delta = graph.deltas_since(epoch)
        flow = np.array([2.0, -3.0])
        scaled = rescale_flow(flow, delta)
        assert scaled[0] == 2.0 * (2.0 / 4.0)  # congestion 0.5 kept
        assert scaled[1] == -3.0  # untouched edge unchanged
        assert flow[0] == 2.0  # input not mutated


# ----------------------------------------------------------------------
# Warm-started AlmostRoute
# ----------------------------------------------------------------------
class TestWarmStart:
    def test_warm_converges_no_slower(self):
        graph = random_connected(48, 0.10, rng=710)
        approximator = build_congestion_approximator(graph, rng=712)
        demand = st_demand(graph, 0, 47)
        previous = almost_route(graph, approximator, demand, EPS)
        epoch = graph._version
        _degrade(graph, fraction=0.01, seed=713)
        delta = graph.deltas_since(epoch)
        approximator.refresh_capacities()
        seed = rescale_flow(previous.flow, delta)
        cold = almost_route(graph, approximator, demand, EPS)
        warm = almost_route(
            graph, approximator, demand, EPS, initial_flow=seed
        )
        assert warm.converged
        assert warm.iterations <= cold.iterations

    def test_zero_seed_is_bit_identical_to_cold(self, graph):
        approximator = build_congestion_approximator(graph, rng=714)
        demand = st_demand(graph, 1, 40)
        cold = almost_route(graph, approximator, demand, EPS)
        seeded = almost_route(
            graph,
            approximator,
            demand,
            EPS,
            initial_flow=np.zeros(graph.num_edges),
        )
        assert_arrays_identical("flow", cold.flow, seeded.flow)
        assert cold.iterations == seeded.iterations

    def test_accelerated_zero_seed_is_bit_identical_to_cold(self, graph):
        approximator = build_congestion_approximator(graph, rng=714)
        demand = st_demand(graph, 1, 40)
        cold = accelerated_almost_route(graph, approximator, demand, EPS)
        seeded = accelerated_almost_route(
            graph,
            approximator,
            demand,
            EPS,
            initial_flow=np.zeros(graph.num_edges),
        )
        assert_arrays_identical("flow", cold.flow, seeded.flow)
        assert cold.iterations == seeded.iterations

    def test_bad_seed_shape_raises(self, graph):
        approximator = build_congestion_approximator(graph, rng=714)
        demand = st_demand(graph, 1, 40)
        with pytest.raises(GraphError):
            almost_route(
                graph,
                approximator,
                demand,
                EPS,
                initial_flow=np.zeros(graph.num_edges + 1),
            )

    def test_batch_seeded_columns_match_one_shot(self, graph):
        approximator = build_congestion_approximator(graph, rng=715)
        demands = np.stack(
            [st_demand(graph, 0, 30), st_demand(graph, 2, 41, 2.0)]
        )
        previous = [
            almost_route(graph, approximator, demands[q], EPS)
            for q in range(2)
        ]
        epoch = graph._version
        _degrade(graph, fraction=0.01, seed=716)
        delta = graph.deltas_since(epoch)
        approximator.refresh_capacities()
        # Seed column 0 only; column 1's zero row must stay cold.
        seeds = np.zeros((2, graph.num_edges))
        seeds[0] = rescale_flow(previous[0].flow, delta)
        batch = almost_route_batch(
            graph, approximator, demands, EPS, initial_flows=seeds
        )
        one_warm = almost_route(
            graph, approximator, demands[0], EPS, initial_flow=seeds[0]
        )
        one_cold = almost_route(graph, approximator, demands[1], EPS)
        assert_arrays_identical("flow", one_warm.flow, batch.query(0).flow)
        assert_arrays_identical("flow", one_cold.flow, batch.query(1).flow)


# ----------------------------------------------------------------------
# Exact cut refresh
# ----------------------------------------------------------------------
def _completed_congestion(graph, result, tree):
    """Congestion of a served answer plus its residual routed over
    ``tree``: a flow that routes the whole demand."""
    total = result.flow + tree_route_demand(graph, tree, result.residual)
    return float(np.max(np.abs(total) / graph.capacities()))


class TestExactCutRefresh:
    def test_refresh_matches_fresh_cut_capacities(self, graph):
        approximator = build_congestion_approximator(graph, rng=717)
        rows_before = approximator.num_rows
        _degrade(graph, fraction=0.05, seed=718)
        assert approximator.refresh_capacities() == 0  # never resamples
        assert approximator.num_rows == rows_before
        # Every tree's cuts equal an exact recomputation.
        for tree in approximator.trees():
            fresh = induced_cut_capacities(graph, tree)
            assert_arrays_identical("capacity", fresh, tree.capacity)

    def test_patched_stacked_operator_matches_fresh_fuse(self, graph):
        approximator = build_congestion_approximator(graph, rng=733)
        stacked = approximator.stacked()
        _degrade(graph, fraction=0.05, factor=3.0, seed=734)
        approximator.refresh_capacities()
        assert approximator.stacked() is stacked
        fresh = StackedTreeOperator(approximator.trees(), graph.num_nodes)
        rng = np.random.default_rng(735)
        demand = rng.normal(size=graph.num_nodes)
        demand -= demand.mean()
        rows = rng.normal(size=approximator.num_rows)
        assert_arrays_identical(
            "apply", fresh.apply(demand), stacked.apply(demand)
        )
        assert_arrays_identical(
            "apply_transpose",
            fresh.apply_transpose(rows),
            stacked.apply_transpose(rows),
        )
        assert fresh.estimate(demand) == stacked.estimate(demand)

    def test_resample_arguments_are_gone(self, graph):
        approximator = build_congestion_approximator(graph, rng=736)
        with pytest.raises(TypeError):
            approximator.refresh_capacities(np.arange(3))
        with pytest.raises(TypeError):
            approximator.refresh_capacities(rng=1)

    def test_incremental_server_keeps_every_tree(self, graph):
        server = FlowServer(
            graph, epsilon=EPS, rng=724, refresh="incremental"
        )
        demand = st_demand(graph, 0, 40)
        server.route(demand)
        approximator = server.approximator
        trees = approximator.trees()
        stacked = approximator.stacked()
        _degrade(graph, fraction=0.02, seed=725)
        server.route(demand)
        assert server.approximator is approximator
        assert all(
            now is before for now, before in zip(approximator.trees(), trees)
        )
        assert approximator.stacked() is stacked

    def test_drift_chain_stays_within_guarantee(self, graph):
        server = FlowServer(
            graph, epsilon=EPS, rng=737, refresh="incremental"
        )
        demands = [st_demand(graph, 0, 47), st_demand(graph, 5, 30, 2.0)]
        for demand in demands:
            server.route(demand)
        approximator = server.approximator
        trees = approximator.trees()
        rng = np.random.default_rng(738)
        count = max(1, int(graph.num_edges * 0.02))
        for _ in range(DRIFT_CYCLES):
            edges = rng.choice(graph.num_edges, size=count, replace=False)
            for eid in edges.tolist():
                graph.set_capacity(
                    eid, graph.capacity(eid) * float(rng.uniform(0.5, 1.5))
                )
            tree = maximum_spanning_tree(graph)
            for demand in demands:
                answer = server.route(demand)
                estimate = approximator.estimate(demand)
                limit = (
                    (1 + EPS) * approximator.alpha * estimate * GUARANTEE_SLACK
                )
                assert _completed_congestion(graph, answer, tree) <= limit
        stats = server.stats()
        assert stats.rebuilds == 0
        assert stats.incremental_refreshes == DRIFT_CYCLES
        assert stats.warm_starts == len(demands) * DRIFT_CYCLES
        assert server.approximator is approximator
        assert all(
            now is before for now, before in zip(approximator.trees(), trees)
        )


# ----------------------------------------------------------------------
# Incremental serving policy
# ----------------------------------------------------------------------
class TestIncrementalServing:
    def test_counters_and_validity(self, graph):
        server = FlowServer(
            graph, epsilon=EPS, rng=724, refresh="incremental"
        )
        demand = st_demand(graph, 0, 40)
        server.route(demand)
        _degrade(graph, fraction=0.02, seed=725)
        warm = server.route(demand)
        stats = server.stats()
        assert stats.incremental_refreshes == 1
        assert stats.warm_starts == 1
        assert stats.rebuilds == 0
        assert warm.converged

    def test_warm_serving_matches_direct_warm_call(self, graph):
        server = FlowServer(
            graph, epsilon=EPS, rng=726, refresh="incremental"
        )
        demand = st_demand(graph, 0, 40)
        previous = server.route(demand)
        epoch = graph._version
        _degrade(graph, fraction=0.02, seed=727)
        delta = graph.deltas_since(epoch)
        served = server.route(demand)
        direct = almost_route(
            graph,
            server.approximator,
            demand,
            EPS,
            initial_flow=rescale_flow(previous.flow, delta),
        )
        assert_arrays_identical("flow", direct.flow, served.flow)

    def test_structural_mutation_falls_back_to_rebuild(self, graph):
        server = FlowServer(
            graph, epsilon=EPS, rng=728, refresh="incremental"
        )
        demand = st_demand(graph, 0, 40)
        server.route(demand)
        graph.add_edge(0, 47, 3.0)
        result = server.route(st_demand(graph, 0, 40))
        stats = server.stats()
        assert stats.rebuilds == 1
        assert stats.incremental_refreshes == 0
        assert stats.warm_starts == 0
        assert result.converged

    def test_journal_overflow_falls_back_to_rebuild(self):
        graph = random_connected(12, 0.2, rng=729)
        server = FlowServer(
            graph, epsilon=EPS, rng=730, refresh="incremental"
        )
        demand = st_demand(graph, 0, 11)
        server.route(demand)
        for i in range(JOURNAL_LIMIT + 1):
            graph.set_capacity(0, 2.0 + (i % 3))
        assert graph.journal_overflowed
        server.route(demand)
        stats = server.stats()
        assert stats.rebuilds == 1
        assert stats.incremental_refreshes == 0

    def test_no_cache_route_is_never_warm_started(self, graph):
        server = FlowServer(
            graph, epsilon=EPS, rng=731, refresh="incremental"
        )
        demand = st_demand(graph, 0, 40)
        server.route(demand)
        _degrade(graph, fraction=0.02, seed=732)
        server.route(demand, use_cache=False)
        assert server.stats().warm_starts == 0

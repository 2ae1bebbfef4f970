"""FlowServer: result cache, workspace pool, and mutation safety.

The serving layer's contracts under test:

* batched serving is bit-identical per column to the one-shot
  ``server.route`` answers (so the shared cache namespace is sound),
  and a demand repeated within one batch is solved once;
* a graph mutation (``set_capacity`` or ``add_edge``) after a cached
  query makes the next lookup miss, the cache invalidates **exactly
  once** per mutation, and an old-epoch result is never served;
* the warm workspace pool actually reuses workspaces and drops
  stale-shaped ones on rebind;
* no refresh policy keeps stale cut rows: ``refresh="reuse"`` is
  rejected, and an incremental server's ``‖Rb‖∞`` stays a lower bound
  on opt after a capacity increase.
"""

from __future__ import annotations

import numpy as np
import pytest

from parallel_harness import assert_arrays_identical, forced
from repro.core import almost_route
from repro.errors import GraphError
from repro.flow import dinic_max_flow
from repro.graphs.generators import random_connected
from repro.parallel import use_config
from repro.serve import FlowServer, ResultCache, WorkspacePool, demand_digest
from repro.util.validation import st_demand

EPS = 0.4


@pytest.fixture()
def graph():
    return random_connected(40, 0.12, rng=601)


@pytest.fixture()
def server(graph):
    return FlowServer(graph, epsilon=EPS, rng=602)


def _plane(graph, seed, num_queries):
    rng = np.random.default_rng(seed)
    plane = rng.normal(size=(num_queries, graph.num_nodes))
    plane -= plane.mean(axis=1, keepdims=True)
    return plane


# ----------------------------------------------------------------------
# Serving correctness
# ----------------------------------------------------------------------
class TestServing:
    def test_single_matches_direct_call(self, graph, server):
        demand = st_demand(graph, 0, graph.num_nodes - 1)
        served = server.route(demand)
        direct = almost_route(graph, server.approximator, demand, EPS)
        assert_arrays_identical("flow", direct.flow, served.flow)
        assert served.iterations == direct.iterations

    def test_batch_matches_singles(self, graph, server):
        plane = _plane(graph, 603, 5)
        singles = [
            server.route(plane[q], use_cache=False) for q in range(5)
        ]
        batch = server.route_batch(plane, use_cache=False)
        for single, col in zip(singles, batch):
            assert_arrays_identical("flow", single.flow, col.flow)
            assert single.iterations == col.iterations
            assert single.potential == col.potential

    def test_batch_rejects_bad_shape(self, server, graph):
        with pytest.raises(GraphError):
            server.route_batch(np.zeros(graph.num_nodes))

    def test_route_st(self, graph, server):
        result = server.route_st(1, 5, value=2.0)
        direct = server.route(st_demand(graph, 1, 5, 2.0))
        assert result is direct  # second call hits the cache

    def test_parallel_config_is_bit_identical(self, graph):
        """A server built and queried under a sharded process default
        (its approximator built on the pool) answers bit for bit like
        the serial one."""
        plain = FlowServer(graph, epsilon=EPS, rng=602)
        plane = _plane(graph, 604, 3)
        expected = plain.route_batch(plane)
        with use_config(forced(2, "thread")):
            sharded = FlowServer(
                random_connected(40, 0.12, rng=601), epsilon=EPS, rng=602
            )
            served = sharded.route_batch(plane)
        for a, b in zip(expected, served):
            assert_arrays_identical("flow", a.flow, b.flow)
            assert a.iterations == b.iterations

    def test_rejects_foreign_approximator(self, graph):
        other = random_connected(10, 0.4, rng=605)
        foreign = FlowServer(other, epsilon=EPS, rng=606).approximator
        with pytest.raises(GraphError):
            FlowServer(graph, approximator=foreign)

    def test_rejects_bad_options(self, graph):
        with pytest.raises(GraphError):
            FlowServer(graph, solver="newton")
        with pytest.raises(GraphError):
            FlowServer(graph, refresh="ignore")
        with pytest.raises(GraphError):
            FlowServer(graph, epsilon=0.0)
        with pytest.raises(TypeError):
            FlowServer(graph, max_batch=8)  # no such option: batches route per column
        with pytest.raises(TypeError):
            FlowServer(graph, parallel=forced(2, "thread"))  # routing never shards
        with pytest.raises(TypeError):
            FlowServer(graph, breaker_threshold=3)  # no pool to lose


# ----------------------------------------------------------------------
# Cache behaviour within one epoch
# ----------------------------------------------------------------------
class TestCacheHits:
    def test_repeat_single_hits(self, graph, server):
        demand = st_demand(graph, 0, 7)
        first = server.route(demand)
        second = server.route(demand)
        assert second is first
        stats = server.cache_stats()
        assert stats.hits == 1 and stats.misses == 1

    def test_single_and_batch_share_namespace(self, graph, server):
        """A demand routed as a single hits later inside a batch, and a
        batched column hits later as a single."""
        plane = _plane(graph, 607, 3)
        warm = server.route(plane[0])
        batch = server.route_batch(plane)
        assert batch[0] is warm
        assert server.route(plane[2]) is batch[2]
        stats = server.cache_stats()
        assert stats.hits == 2

    def test_mixed_hit_miss_batch(self, graph, server):
        """Partial hits: only the misses are re-routed and their
        results still match full-batch answers."""
        plane = _plane(graph, 608, 4)
        full = server.route_batch(plane)
        fresh = FlowServer(graph, epsilon=EPS, rng=602)
        fresh.route(plane[1])
        fresh.route(plane[3])
        mixed = fresh.route_batch(plane)
        for q in range(4):
            assert_arrays_identical(
                f"flow[{q}]", full[q].flow, mixed[q].flow
            )
        stats = fresh.stats()
        assert stats.cache.hits == 2
        assert stats.batched_columns == 4

    def test_repeated_demand_in_batch_is_solved_once(self, graph, server):
        """A demand repeated within one batch misses once: the later
        column is a cache hit on the earlier column's result."""
        plane = _plane(graph, 618, 2)
        repeated = np.stack([plane[0], plane[1], plane[0]])
        results = server.route_batch(repeated)
        assert results[2] is results[0]
        stats = server.cache_stats()
        assert stats.misses == 2 and stats.hits == 1

    def test_use_cache_false_bypasses(self, graph, server):
        demand = st_demand(graph, 2, 9)
        first = server.route(demand)
        second = server.route(demand, use_cache=False)
        assert second is not first
        assert_arrays_identical("flow", first.flow, second.flow)

    def test_lru_eviction(self, graph):
        small = FlowServer(graph, epsilon=EPS, rng=602, cache_capacity=2)
        plane = _plane(graph, 609, 3)
        for q in range(3):
            small.route(plane[q])
        stats = small.cache_stats()
        assert stats.size == 2 and stats.evictions == 1
        # The oldest entry was evicted; the newest two still hit.
        assert small.route(plane[2]) is not None
        assert small.cache_stats().hits == 1

    def test_capacity_zero_disables(self, graph):
        uncached = FlowServer(graph, epsilon=EPS, rng=602, cache_capacity=0)
        demand = st_demand(graph, 0, 5)
        first = uncached.route(demand)
        second = uncached.route(demand)
        assert second is not first
        assert uncached.cache_stats().size == 0


# ----------------------------------------------------------------------
# Mutation / invalidation (satellite: cache-invalidation coverage)
# ----------------------------------------------------------------------
class TestInvalidation:
    def test_set_capacity_invalidates_exactly_once(self, graph, server):
        demand = st_demand(graph, 0, 11)
        stale = server.route(demand)
        caps = graph.capacities()
        graph.set_capacity(0, float(caps[0]) * 3.0)
        refreshed = server.route(demand)
        stats = server.cache_stats()
        # The post-mutation lookup missed (old-epoch entries are gone
        # before any lookup runs) and invalidation was counted once.
        assert refreshed is not stale
        assert stats.invalidations == 1
        assert stats.hits == 0 and stats.misses == 2
        # Subsequent queries in the new epoch don't re-invalidate.
        server.route(demand)
        assert server.cache_stats().invalidations == 1

    def test_old_epoch_result_never_served(self, graph, server):
        """The refreshed answer equals a from-scratch computation on the
        mutated graph — the stale flow is provably not reused."""
        demand = st_demand(graph, 3, 17)
        stale = server.route(demand)
        caps = graph.capacities()
        graph.set_capacity(1, float(caps[1]) * 10.0)
        refreshed = server.route(demand)
        oracle = almost_route(graph, server.approximator, demand, EPS)
        assert_arrays_identical("flow", oracle.flow, refreshed.flow)
        assert not np.array_equal(stale.flow, refreshed.flow)

    def test_batch_lookup_after_mutation_misses(self, graph, server):
        plane = _plane(graph, 610, 3)
        server.route_batch(plane)
        caps = graph.capacities()
        graph.set_capacity(2, float(caps[2]) * 2.0)
        server.route_batch(plane)
        stats = server.cache_stats()
        assert stats.invalidations == 1
        assert stats.hits == 0 and stats.misses == 6

    def test_add_edge_invalidates_and_reshapes(self, graph, server):
        demand = st_demand(graph, 0, 13)
        server.route(demand)
        graph.add_edge(0, graph.num_nodes - 1, 1.0)
        refreshed = server.route(demand)
        assert refreshed.flow.shape == (graph.num_edges,)
        stats = server.cache_stats()
        assert stats.invalidations == 1 and stats.hits == 0
        oracle = almost_route(graph, server.approximator, demand, EPS)
        assert_arrays_identical("flow", oracle.flow, refreshed.flow)

    def test_eviction_and_epoch_churn_never_serves_stale(self, graph):
        """Mutate -> route -> mutate churn with a cache small enough to
        evict every round: LRU eviction and epoch invalidation must
        compose without ever serving an old-epoch result, and the
        counters must stay consistent under the combined pressure."""
        server = FlowServer(graph, epsilon=EPS, rng=602, cache_capacity=2)
        plane = _plane(graph, 617, 4)
        caps = graph.capacities()
        previous = {}
        for round_index in range(3):
            graph.set_capacity(0, float(caps[0]) * (2.0 + round_index))
            served = [server.route(plane[q]) for q in range(4)]
            for q in range(4):
                # An old-epoch object must never come back...
                if q in previous:
                    assert served[q] is not previous[q]
                # ...and every answer equals a from-scratch solve on
                # the mutated graph.
                oracle = server.route(plane[q], use_cache=False)
                assert_arrays_identical(
                    f"round {round_index} flow[{q}]",
                    oracle.flow,
                    served[q].flow,
                )
            previous = dict(enumerate(served))
        stats = server.cache_stats()
        assert stats.invalidations == 3  # one per mutation, exactly
        # Four distinct queries thrash a two-slot LRU: every cached
        # lookup misses and eviction stays active throughout.
        assert stats.hits == 0 and stats.misses == 12
        assert stats.evictions > 0
        assert stats.size <= 2

    def test_rebuild_policy_rebuilds_once_per_mutation(self, graph, server):
        demand = st_demand(graph, 0, 9)
        server.route(demand)
        before = server.approximator
        caps = graph.capacities()
        graph.set_capacity(0, float(caps[0]) * 2.0)
        server.route(demand)
        assert server.approximator is not before
        assert server.stats().rebuilds == 1
        server.route(demand)
        assert server.stats().rebuilds == 1

    def test_reuse_policy_is_rejected(self, graph):
        # Stale cut rows overstate ‖Rb‖∞ after a capacity increase, so
        # there is no policy that keeps them.
        with pytest.raises(GraphError):
            FlowServer(graph, epsilon=EPS, rng=602, refresh="reuse")

    def test_incremental_estimate_sound_after_capacity_increase(self):
        graph = random_connected(48, 0.10, rng=710)
        server = FlowServer(
            graph, epsilon=EPS, rng=602, refresh="incremental"
        )
        demand = st_demand(graph, 0, 47)
        server.route(demand)
        for eid in range(graph.num_edges):
            graph.set_capacity(eid, graph.capacity(eid) * 4.0)
        server.route(demand)
        assert server.stats().rebuilds == 0
        opt = 1.0 / dinic_max_flow(graph, 0, 47).value
        assert server.approximator.estimate(demand) <= opt * (1 + 1e-9)


# ----------------------------------------------------------------------
# Workspace pool
# ----------------------------------------------------------------------
class TestWorkspacePool:
    def test_single_workspace_reused(self, graph, server):
        plane = _plane(graph, 611, 3)
        for q in range(3):
            server.route(plane[q], use_cache=False)
        pool = server.pool
        assert pool.created_singles == 1
        assert pool.pooled_counts() == 1

    def test_batch_workspace_reused_per_size(self, graph, server):
        """Batches of every size route their columns on the one pooled
        workspace that singles use too."""
        server.route(st_demand(graph, 0, 7), use_cache=False)
        for seed in (612, 613):
            server.route_batch(_plane(graph, seed, 3), use_cache=False)
        server.route_batch(_plane(graph, 614, 2), use_cache=False)
        pool = server.pool
        assert pool.created_singles == 1
        assert pool.pooled_counts() == 1

    def test_rebind_drops_stale_shapes(self, graph, server):
        server.route(st_demand(graph, 0, 7), use_cache=False)
        assert server.pool.pooled_counts() == 1
        graph.add_edge(0, graph.num_nodes - 1, 1.0)
        server.route(st_demand(graph, 0, 7), use_cache=False)
        # The old m-shaped workspace was dropped; a new one was built
        # for the grown edge count and pooled.
        assert server.pool.created_singles == 2
        assert server.pool.pooled_counts() == 1

    def test_release_rejects_stale_workspace(self, graph):
        server = FlowServer(graph, epsilon=EPS, rng=602)
        ws = server.pool.acquire()
        graph.add_edge(0, graph.num_nodes - 1, 1.0)
        server.route(st_demand(graph, 0, 5))  # triggers rebind
        server.pool.release(ws)  # stale shape: silently dropped
        pooled_singles = server.pool.pooled_counts()
        assert all(
            pooled.shape_key
            == (graph.num_edges, graph.num_nodes, server.approximator.num_rows)
            for pooled in server.pool._singles
        )
        assert pooled_singles == len(server.pool._singles)

    def test_flush(self, graph, server):
        server.route(st_demand(graph, 0, 7), use_cache=False)
        server.route_batch(_plane(graph, 615, 2), use_cache=False)
        server.pool.flush()
        assert server.pool.pooled_counts() == 0


# ----------------------------------------------------------------------
# ResultCache / digest unit behaviour
# ----------------------------------------------------------------------
class TestResultCacheUnit:
    def test_sync_epoch_exactly_once(self):
        cache = ResultCache(4)
        assert cache.sync_epoch(0) is False  # first pin, no mutation
        cache.put("a", 1)
        assert cache.sync_epoch(0) is False  # same epoch: no-op
        assert cache.get("a") == 1
        assert cache.sync_epoch(2) is True  # moved: drop, count once
        assert cache.get("a") is None
        assert cache.invalidations == 1
        assert cache.sync_epoch(2) is False
        assert cache.invalidations == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(GraphError):
            ResultCache(-1)

    def test_digest_is_content_keyed(self):
        a = np.array([1.0, -1.0, 0.0])
        assert demand_digest(a) == demand_digest(a.copy())
        assert demand_digest(a) != demand_digest(np.array([1.0, 0.0, -1.0]))
        # Shape-tagged: a (1, n) plane row digests like the 1-D vector
        # it is served as.
        assert demand_digest(a) == demand_digest(np.asarray([1, -1, 0]))


class TestStats:
    def test_counters(self, graph, server):
        plane = _plane(graph, 616, 3)
        server.route(plane[0])
        server.route_batch(plane)
        stats = server.stats()
        assert stats.single_queries == 1
        assert stats.batch_queries == 1
        assert stats.batched_columns == 3
        assert stats.rebuilds == 0
        assert stats.cache.hits == 1  # plane[0] warmed by the single
        assert stats.cache.misses == 3

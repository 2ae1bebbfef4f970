"""Cross-shard equivalence suite for the sharded execution backend.

Sweeps the harness's seed × generator × shard-count × backend matrix
(``tests/parallel_harness.py``) over every sharded kernel — frontier
BFS, CSR build, contraction, hop distances, MWU lengths — and over
approximator construction and end-to-end ``max_flow`` /
``max_flow_binary_search`` / ``min_congestion_flow`` under sharded
process defaults (construction on the pool, routing on the calling
thread), asserting **bit identity** with the serial paths plus
cache-state invariants after sharded runs. Also covers the ShardPlan /
ParallelConfig / pool machinery itself, including the fork +
shared-memory process backend.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core.almost_route import RouteWorkspace, almost_route
from repro.core.binary_search import max_flow_binary_search
from repro.core.maxflow import max_flow, min_congestion_flow
from repro.errors import GraphError
from repro.graphs import kernels
from repro.graphs.generators import random_connected
from repro.graphs.graph import SMALL_GRAPH_LIMIT
from repro.parallel import (
    BfsShardState,
    ParallelConfig,
    ShardPlan,
    default_config,
    get_pool,
    set_default_config,
    shutdown_pools,
    use_config,
)
from repro.parallel import pool as pool_module
from repro.parallel.config import DEFAULT_MIN_SIZE

from parallel_harness import (
    BACKENDS,
    GENERATORS,
    SEEDS,
    SHARD_COUNTS,
    assert_arrays_identical,
    assert_bfs_equivalent,
    assert_cache_invariants,
    assert_contract_equivalent,
    assert_csr_build_equivalent,
    assert_hop_distances_equivalent,
    assert_mwu_lengths_equivalent,
    build_test_approximator,
    forced,
    make_graph,
)


@pytest.fixture(scope="module", autouse=True)
def _drain_pools():
    """Leave no worker pools behind for the rest of the suite."""
    yield
    shutdown_pools()


# ----------------------------------------------------------------------
# ShardPlan
# ----------------------------------------------------------------------
class TestShardPlan:
    def test_even_partitions_exactly(self):
        plan = ShardPlan.even(10, 3)
        assert plan.ranges() == [(0, 3), (3, 6), (6, 10)]
        assert plan.total == 10

    def test_even_clamps_to_total(self):
        assert ShardPlan.even(2, 8).num_shards == 2
        assert ShardPlan.even(0, 4).num_shards == 0

    def test_balanced_splits_by_weight(self):
        # One heavy item up front: the first shard should be just it.
        weights = np.array([100, 1, 1, 1, 1, 1])
        plan = ShardPlan.balanced(weights, 2)
        assert plan.ranges()[0] == (0, 1)
        assert plan.ranges()[-1][1] == 6

    def test_balanced_zero_weights_fall_back_to_even(self):
        plan = ShardPlan.balanced(np.zeros(8), 2)
        assert plan.ranges() == [(0, 4), (4, 8)]

    def test_ranges_cover_and_are_disjoint(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            weights = rng.integers(0, 50, size=int(rng.integers(1, 40)))
            shards = int(rng.integers(1, 8))
            plan = ShardPlan.balanced(weights, shards)
            ranges = plan.ranges()
            assert ranges[0][0] == 0 and ranges[-1][1] == len(weights)
            for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
                assert hi == lo
            assert all(lo < hi for lo, hi in ranges)

    def test_for_frontier_balances_degree_mass(self):
        graph = make_graph("random", 101)
        indptr = graph.csr().indptr
        frontier = np.arange(graph.num_nodes, dtype=np.int64)
        plan = ShardPlan.for_frontier(indptr, frontier, 3)
        masses = [
            float((indptr[frontier[lo:hi] + 1] - indptr[frontier[lo:hi]]).sum())
            for lo, hi in plan.ranges()
        ]
        assert max(masses) <= 2.0 * (sum(masses) / len(masses)) + max(
            np.diff(indptr)
        )


# ----------------------------------------------------------------------
# BfsShardState (tentpole: persistent per-level frontier shards)
# ----------------------------------------------------------------------
class TestBfsShardState:
    @staticmethod
    def _indptr_from_degrees(degrees) -> np.ndarray:
        return np.concatenate(
            ([0], np.cumsum(np.asarray(degrees, dtype=np.int64)))
        )

    def test_reuses_boundaries_while_mass_stays_balanced(self):
        indptr = self._indptr_from_degrees([4] * 64)
        frontier = np.arange(64, dtype=np.int64)
        state = BfsShardState(4)
        first = state.plan(indptr, frontier)
        assert (state.rebalances, state.reuses) == (1, 0)
        again = state.plan(indptr, frontier)
        assert (state.rebalances, state.reuses) == (1, 1)
        assert np.array_equal(first.bounds, again.bounds)
        # A differently-sized but still-uniform frontier reuses the
        # rescaled fractions too.
        rescaled = state.plan(indptr, np.arange(32, dtype=np.int64))
        assert state.reuses == 2
        assert rescaled.total == 32

    def test_rebalances_when_mass_shifts(self):
        state = BfsShardState(2, rebalance_ratio=1.5)
        uniform = self._indptr_from_degrees([4] * 32)
        frontier = np.arange(32, dtype=np.int64)
        state.plan(uniform, frontier)
        # Same frontier, but now one node carries almost all the mass:
        # the even split's first shard has ~32x the mean.
        skewed = self._indptr_from_degrees([400] + [1] * 31)
        plan = state.plan(skewed, frontier)
        assert state.rebalances == 2
        # The fresh degree-balanced plan isolates the heavy node.
        assert plan.ranges()[0] == (0, 1)

    def test_plans_cover_and_stay_contiguous(self):
        rng = np.random.default_rng(7)
        state = BfsShardState(3)
        indptr = self._indptr_from_degrees(rng.integers(1, 9, size=200))
        for size in (200, 50, 3, 1, 120):
            frontier = np.arange(size, dtype=np.int64)
            ranges = state.plan(indptr, frontier).ranges()
            assert ranges[0][0] == 0 and ranges[-1][1] == size
            for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
                assert hi == lo

    def test_clamped_plan_does_not_pin_future_levels(self):
        state = BfsShardState(4)
        indptr = self._indptr_from_degrees([2] * 64)
        assert state.plan(indptr, np.arange(2, dtype=np.int64)).num_shards == 2
        # The next full-width frontier gets the full shard count back.
        assert state.plan(indptr, np.arange(64, dtype=np.int64)).num_shards == 4


# ----------------------------------------------------------------------
# ParallelConfig
# ----------------------------------------------------------------------
class TestParallelConfig:
    def test_default_is_serial(self):
        config = ParallelConfig()
        assert config.workers == 1
        assert not config.should_shard(1 << 30)

    def test_min_size_matches_substrate_threshold(self):
        assert DEFAULT_MIN_SIZE == SMALL_GRAPH_LIMIT

    def test_should_shard_thresholds(self):
        config = ParallelConfig(workers=2, backend="thread", min_size=100)
        assert config.should_shard(100)
        assert not config.should_shard(99)

    def test_rejects_bad_backend_and_workers(self):
        with pytest.raises(GraphError):
            ParallelConfig(workers=2, backend="gpu")
        with pytest.raises(GraphError):
            ParallelConfig(workers=0)

    def test_from_env(self):
        assert ParallelConfig.from_env({}) == ParallelConfig()
        assert ParallelConfig.from_env({"REPRO_WORKERS": "1"}).workers == 1
        config = ParallelConfig.from_env({"REPRO_WORKERS": "4"})
        assert config.workers == 4 and config.backend == "thread"
        config = ParallelConfig.from_env(
            {"REPRO_WORKERS": "2", "REPRO_BACKEND": "serial"}
        )
        assert config.backend == "serial"
        with pytest.raises(GraphError):
            ParallelConfig.from_env({"REPRO_WORKERS": "many"})

    def test_from_env_rejects_garbage(self):
        """Satellite: REPRO_* garbage fails loudly at resolution time
        (a GraphError naming the variable), never silently-serial and
        never a deep ValueError."""
        for env in (
            {"REPRO_WORKERS": "abc"},
            {"REPRO_WORKERS": "0"},
            {"REPRO_WORKERS": "-3"},
            {"REPRO_WORKERS": "2", "REPRO_BACKEND": "gpu"},
            {"REPRO_BACKEND": "gpu"},  # garbage even at serial workers
            {"REPRO_WORKERS": "1", "REPRO_BACKEND": "processes"},
        ):
            with pytest.raises(GraphError):
                ParallelConfig.from_env(env)
        with pytest.raises(GraphError, match="REPRO_WORKERS"):
            ParallelConfig.from_env({"REPRO_WORKERS": "0"})
        with pytest.raises(GraphError, match="REPRO_BACKEND"):
            ParallelConfig.from_env({"REPRO_BACKEND": "gpu"})

    def test_from_env_accepts_case_insensitive_backend(self):
        config = ParallelConfig.from_env(
            {"REPRO_WORKERS": "2", "REPRO_BACKEND": " Thread "}
        )
        assert config.backend == "thread"

    def test_use_config_scopes_the_default(self):
        baseline = default_config()
        override = forced(3, "serial")
        with use_config(override):
            assert default_config() is override
        assert default_config() is baseline

    def test_set_default_config_returns_previous(self):
        baseline = default_config()
        try:
            previous = set_default_config(forced(2))
            assert previous is baseline
        finally:
            set_default_config(baseline)


# ----------------------------------------------------------------------
# Kernel equivalence sweep (tentpole matrix)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(GENERATORS))
class TestKernelEquivalence:
    def test_bfs_and_csr_sweep(self, name, seed):
        graph = make_graph(name, seed)
        for workers in SHARD_COUNTS:
            for backend in BACKENDS:
                config = forced(workers, backend)
                assert_bfs_equivalent(graph, config)
                assert_csr_build_equivalent(graph, config)

    def test_contract_sweep(self, name, seed):
        graph = make_graph(name, seed)
        for workers in SHARD_COUNTS:
            assert_contract_equivalent(graph, forced(workers, "serial"))
        assert_contract_equivalent(graph, forced(2, "thread"))

    def test_hop_distances_and_mwu_lengths_sweep(self, name, seed):
        """The PR 5 kernels join the matrix: multi-source hop distances
        (source-block shards) and the stacked MWU length evaluation
        (sample-row shards), workers ∈ {1, 2, 4} per backend."""
        graph = make_graph(name, seed)
        for workers in (1, 2, 4):
            for backend in BACKENDS:
                config = forced(workers, backend)
                assert_hop_distances_equivalent(graph, config)
                assert_mwu_lengths_equivalent(graph, config, seed)


# ----------------------------------------------------------------------
# Approximator sweep: construction under every sharded default
# ----------------------------------------------------------------------
def assert_sharded_builds_equivalent(name: str, seed: int, configs) -> None:
    """An approximator built under each config as the process default —
    its BFS, CSR and MWU construction kernels on the pool — matches the
    serial build's products bit for bit (the products themselves run
    on the calling thread)."""
    serial = build_test_approximator(make_graph(name, seed), seed)
    rng = np.random.default_rng(seed)
    demand = rng.normal(size=serial.graph.num_nodes)
    demand -= demand.mean()
    rows = rng.normal(size=serial.num_rows)
    expected_apply = serial.apply(demand).copy()
    expected_transpose = serial.apply_transpose(rows).copy()
    expected_estimate = serial.estimate(demand)
    for config in configs:
        with use_config(config):
            sharded = build_test_approximator(make_graph(name, seed), seed)
            assert sharded.num_rows == serial.num_rows
            assert_arrays_identical(
                "apply", expected_apply, sharded.apply(demand)
            )
            assert_arrays_identical(
                "apply_transpose",
                expected_transpose,
                sharded.apply_transpose(rows),
            )
            assert sharded.estimate(demand) == expected_estimate
        assert_cache_invariants(sharded.graph)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_operator_equivalence_sweep(name, seed):
    assert_sharded_builds_equivalent(
        name,
        seed,
        [
            forced(workers, backend)
            for workers in SHARD_COUNTS
            for backend in BACKENDS
        ],
    )


# ----------------------------------------------------------------------
# End-to-end parity under sharded process defaults
# ----------------------------------------------------------------------
class TestEndToEndParity:
    WORKER_SWEEP = (1, 2, 4)

    @pytest.mark.parametrize("seed", [101, 202])
    def test_max_flow_parity(self, seed):
        """Routing on a prebuilt approximator ignores the process
        default: every (workers, backend) default reproduces the serial
        max flow bit for bit."""
        graph = random_connected(48, 0.1, rng=seed)
        approximator = build_test_approximator(graph, seed)
        baseline = max_flow(
            graph, 0, graph.num_nodes - 1, approximator=approximator, rng=seed
        )
        for workers in self.WORKER_SWEEP:
            for backend in ("serial", "thread"):
                with use_config(forced(workers, backend)):
                    result = max_flow(
                        graph,
                        0,
                        graph.num_nodes - 1,
                        approximator=approximator,
                        rng=seed,
                    )
                assert result.value == baseline.value
                assert_arrays_identical(
                    f"max_flow.flow[w={workers},{backend}]",
                    baseline.flow,
                    result.flow,
                )
                assert (
                    result.congestion_result.congestion
                    == baseline.congestion_result.congestion
                )
                assert (
                    result.congestion_result.lower_bound
                    == baseline.congestion_result.lower_bound
                )
        assert_cache_invariants(graph)

    def test_max_flow_binary_search_parity(self):
        """The binary search builds its own approximator under the
        process default; every default reproduces the serial sweep."""
        seed = 303
        baseline = max_flow_binary_search(
            random_connected(40, 0.12, rng=seed), 0, 7, rng=seed, epsilon=0.5
        )
        for workers in self.WORKER_SWEEP:
            with use_config(forced(workers, "thread")):
                result = max_flow_binary_search(
                    random_connected(40, 0.12, rng=seed),
                    0,
                    7,
                    rng=seed,
                    epsilon=0.5,
                )
            assert result.value == baseline.value
            assert result.search_steps == baseline.search_steps
            assert result.bracket == baseline.bracket
            assert_arrays_identical(
                f"binary_search.flow[w={workers}]", baseline.flow, result.flow
            )

    def test_fully_sharded_construction_parity(self):
        """REPRO_WORKERS-style global config: hierarchy sampling, CSR
        builds and BFS all run sharded, and the max flow still
        reproduces the serial run bit for bit."""
        graph = random_connected(48, 0.1, rng=404)
        baseline = max_flow(graph, 1, 17, rng=404)
        sharded_graph = random_connected(48, 0.1, rng=404)
        with use_config(forced(2, "thread")):
            sharded = max_flow(sharded_graph, 1, 17, rng=404)
        assert sharded.value == baseline.value
        assert_arrays_identical("global.flow", baseline.flow, sharded.flow)
        assert (
            sharded.congestion_result.iterations
            == baseline.congestion_result.iterations
        )

    def test_min_congestion_flow_parity(self):
        """``min_congestion_flow`` with no approximator builds one under
        the process default; the routed flow matches the serial run."""
        rng = np.random.default_rng(506)
        demand = rng.normal(size=48)
        demand -= demand.mean()
        baseline = min_congestion_flow(
            random_connected(48, 0.1, rng=505), demand, rng=505
        )
        for workers in (2, 4):
            with use_config(forced(workers, "thread")):
                result = min_congestion_flow(
                    random_connected(48, 0.1, rng=505), demand, rng=505
                )
            assert_arrays_identical(
                f"min_congestion.flow[w={workers}]", baseline.flow, result.flow
            )
            assert result.congestion == baseline.congestion
            assert result.iterations == baseline.iterations


# ----------------------------------------------------------------------
# Workspace reuse (satellite: regression test)
# ----------------------------------------------------------------------
class TestRouteWorkspaceReuse:
    def test_two_max_flows_on_one_workspace_match_fresh(self):
        """Reusing one RouteWorkspace across max_flow calls with
        *different* demands must not leak state (stale soft-max
        scratch, flow buffers) into the second result."""
        graph = random_connected(48, 0.1, rng=606)
        approximator = build_test_approximator(graph, 606)
        workspace = RouteWorkspace(graph, approximator)
        max_flow(graph, 0, 9, approximator=approximator, workspace=workspace)
        reused = max_flow(
            graph, 3, 21, approximator=approximator, workspace=workspace
        )
        fresh = max_flow(graph, 3, 21, approximator=approximator)
        assert reused.value == fresh.value
        assert_arrays_identical("workspace.flow", fresh.flow, reused.flow)
        assert (
            reused.congestion_result.congestion
            == fresh.congestion_result.congestion
        )
        assert (
            reused.congestion_result.iterations
            == fresh.congestion_result.iterations
        )

    def test_almost_route_workspace_reuse_matches_fresh(self):
        graph = random_connected(48, 0.1, rng=707)
        approximator = build_test_approximator(graph, 707)
        workspace = RouteWorkspace(graph, approximator)
        demands = []
        rng = np.random.default_rng(708)
        for _ in range(2):
            demand = rng.normal(size=graph.num_nodes)
            demand -= demand.mean()
            demands.append(demand)
        almost_route(graph, approximator, demands[0], 0.5, workspace=workspace)
        reused = almost_route(
            graph, approximator, demands[1], 0.5, workspace=workspace
        )
        fresh = almost_route(graph, approximator, demands[1], 0.5)
        assert reused.iterations == fresh.iterations
        assert reused.potential == fresh.potential
        assert_arrays_identical("route.flow", fresh.flow, reused.flow)
        assert_arrays_identical("route.residual", fresh.residual, reused.residual)


# ----------------------------------------------------------------------
# Process backend (fork + shared-memory views)
# ----------------------------------------------------------------------
class TestProcessBackend:
    def test_kernels_and_operator_match_serial(self):
        graph = make_graph("random", 101)
        config = forced(2, "process")
        assert_bfs_equivalent(graph, config)
        assert_csr_build_equivalent(graph, config)
        assert_sharded_builds_equivalent("random", 101, [config])

    def test_new_kernels_process_sweep(self):
        """Hop distances + stacked MWU lengths at workers ∈ {1, 2, 4}
        on the fork + shared-memory backend (acceptance matrix)."""
        graph = make_graph("random", 101)
        for workers in (1, 2, 4):
            config = forced(workers, "process")
            assert_hop_distances_equivalent(graph, config)
            assert_mwu_lengths_equivalent(graph, config, 101)


# ----------------------------------------------------------------------
# Fork-unavailable platforms (satellite: degrade, never crash)
# ----------------------------------------------------------------------
class TestForkFallback:
    @pytest.mark.parametrize("fork_available", [True, False])
    def test_process_backend_degrades_without_fork(
        self, fork_available, monkeypatch
    ):
        shutdown_pools()
        monkeypatch.setattr(
            pool_module, "_fork_available", lambda: fork_available
        )
        monkeypatch.setattr(pool_module, "_FORK_WARNING", [False])
        config = forced(2, "process")
        try:
            if fork_available:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    pool = get_pool(config)
                assert isinstance(pool, pool_module.ProcessPool)
            else:
                with pytest.warns(RuntimeWarning, match="fork"):
                    pool = get_pool(config)
                assert isinstance(pool, pool_module.ThreadPool)
                # One-time warning: repeated requests stay silent and
                # serve the same degraded pool.
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert get_pool(config) is pool
                # The degraded pool still satisfies the bit-identity
                # contract end to end.
                graph = make_graph("random", 101)
                assert_bfs_equivalent(graph, config)
                assert_hop_distances_equivalent(graph, config)
        finally:
            shutdown_pools()

    def test_degraded_process_request_shares_the_thread_pool(
        self, monkeypatch
    ):
        shutdown_pools()
        monkeypatch.setattr(pool_module, "_fork_available", lambda: False)
        monkeypatch.setattr(pool_module, "_FORK_WARNING", [True])  # silent
        try:
            degraded = get_pool(forced(2, "process"))
            assert get_pool(forced(2, "thread")) is degraded
        finally:
            shutdown_pools()

    def test_reset_fork_warning_rearms_the_one_time_warning(
        self, monkeypatch
    ):
        """Regression: the warn-once global used to be resettable only
        by monkeypatching the module-level list, leaking state between
        callers. ``reset_fork_warning`` is the supported reset."""
        shutdown_pools()
        monkeypatch.setattr(pool_module, "_fork_available", lambda: False)
        pool_module.reset_fork_warning()
        try:
            with pytest.warns(RuntimeWarning, match="fork"):
                get_pool(forced(2, "process"))
            # Warned once: repeated degraded requests stay silent...
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                get_pool(forced(2, "process"))
            # ...until the explicit reset re-arms the warning.
            pool_module.reset_fork_warning()
            with pytest.warns(RuntimeWarning, match="fork"):
                get_pool(forced(2, "process"))
        finally:
            pool_module.reset_fork_warning()
            shutdown_pools()

"""Scenario corpus tests: grammar, demand models, failures, runner
invariants, the mutation test proving the invariants have teeth, and
the scenario x fault-injection interaction contract."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from parallel_harness import forced

from repro.core.approximator import (
    TreeCongestionApproximator,
    build_congestion_approximator,
)
from repro.errors import (
    InvariantViolation,
    PoolFailureError,
    ReproError,
    ScenarioError,
)
from repro.faults import FaultPlan, set_fault_plan, use_faults
from repro.graphs.csr import WIDE_DTYPE
from repro.parallel import (
    RecoveryPolicy,
    shutdown_pools,
    use_config,
    use_recovery,
)
from repro.parallel.pool import _fork_available
from repro.scenarios import (
    DEMANDS,
    FAILURES,
    TOPOLOGIES,
    Scenario,
    build_matrix,
    quick_matrix,
    resolve_demand,
    resolve_failure,
    resolve_topology,
    run_matrix,
    scenario_seed,
)
from repro.scenarios.corpus import BENCH_SUBSET
from repro.scenarios.demand import SATURATION, generate_demands
from repro.scenarios.failures import (
    DEGRADE_FACTOR,
    DELETED_CAPACITY,
    apply_failure,
)
from repro.scenarios.report import bench_rows, scenario_report
from repro.util.validation import check_demand_batch

needs_fork = pytest.mark.skipif(
    not _fork_available(), reason="fork start method unavailable"
)

#: Fast supervision for the fault-interaction tests.
FAST = RecoveryPolicy(timeout=10.0, retries=2, backoff=0.0)


@pytest.fixture(autouse=True)
def _clean_slate():
    set_fault_plan(None)
    shutdown_pools()
    yield
    set_fault_plan(None)
    shutdown_pools()


def _planted_instance(seed: int = 77):
    return resolve_topology("planted_60").build(seed)


def _torus_instance(seed: int = 77):
    return resolve_topology("torus_9x9").build(seed)


# ----------------------------------------------------------------------
# Grammar / registries
# ----------------------------------------------------------------------
class TestGrammar:
    def test_registries_are_populated(self):
        assert {"torus_9x9", "power_law_96", "road_12x12", "planted_60"} <= (
            set(TOPOLOGIES)
        )
        assert {"gravity", "hotspot", "adversarial_cut"} <= set(DEMANDS)
        assert {"none", "degrade", "delete"} <= set(FAILURES)

    @pytest.mark.parametrize(
        "resolver", [resolve_topology, resolve_demand, resolve_failure]
    )
    def test_unknown_axis_name_is_typed(self, resolver):
        with pytest.raises(ScenarioError) as excinfo:
            resolver("no_such_axis")
        assert "no_such_axis" in str(excinfo.value)
        assert isinstance(excinfo.value, ReproError)

    def test_matrix_skips_incompatible_pairs(self):
        matrix = build_matrix(
            ["torus_9x9", "planted_60"],
            ["gravity", "adversarial_cut"],
            ["none"],
        )
        names = {s.name for s in matrix}
        assert "planted_60__adversarial_cut__none" in names
        assert not any(
            s.topology == "torus_9x9" and s.demand == "adversarial_cut"
            for s in matrix
        )

    def test_explicit_incompatible_scenario_raises(self):
        scenario = Scenario(
            topology="torus_9x9",
            demand="adversarial_cut",
            failure="none",
        )
        with pytest.raises(ScenarioError):
            run_matrix([scenario])

    def test_duplicate_scenario_rejected(self):
        scenario = Scenario(topology="torus_9x9", demand="gravity", failure="none")
        with pytest.raises(ScenarioError):
            run_matrix([scenario, scenario])

    def test_scenario_seed_is_stable_and_name_sensitive(self):
        a = scenario_seed(9090, "topology", "torus_9x9")
        assert a == scenario_seed(9090, "topology", "torus_9x9")
        assert a != scenario_seed(9090, "topology", "planted_60")
        assert a != scenario_seed(9091, "topology", "torus_9x9")

    def test_quick_matrix_covers_every_axis_and_bench_subset(self):
        matrix = quick_matrix()
        names = {s.name for s in matrix}
        assert set(BENCH_SUBSET) <= names
        assert len(names) == len(matrix)
        assert {s.demand for s in matrix} == {
            "gravity",
            "hotspot",
            "adversarial_cut",
        }
        assert {s.failure for s in matrix} == {"none", "degrade", "restore"}


# ----------------------------------------------------------------------
# Demand models
# ----------------------------------------------------------------------
class TestDemandModels:
    @pytest.mark.parametrize("name", ["gravity", "hotspot"])
    def test_plane_is_valid_and_zero_sum(self, name):
        instance = _torus_instance()
        plane = generate_demands(instance, resolve_demand(name), 3, 42)
        assert plane.shape == (3, instance.graph.num_nodes)
        check_demand_batch(instance.graph, plane)
        assert np.allclose(plane.sum(axis=1), 0.0, atol=1e-9)

    def test_adversarial_plane_is_valid_on_planted(self):
        instance = _planted_instance()
        plane = generate_demands(
            instance, resolve_demand("adversarial_cut"), 2, 42
        )
        check_demand_batch(instance.graph, plane)

    @pytest.mark.parametrize(
        "name", ["gravity", "hotspot", "adversarial_cut"]
    )
    def test_seed_determinism(self, name):
        instance = _planted_instance()
        spec = resolve_demand(name)
        first = generate_demands(instance, spec, 2, 42)
        second = generate_demands(instance, spec, 2, 42)
        other = generate_demands(instance, spec, 2, 43)
        assert np.array_equal(first, second)
        assert not np.array_equal(first, other)

    def test_hotspot_moves_between_queries(self):
        instance = _torus_instance()
        plane = generate_demands(instance, resolve_demand("hotspot"), 4, 7)
        hubs = {int(np.argmax(row)) for row in plane}
        assert len(hubs) > 1

    def test_adversarial_saturates_planted_cut(self):
        # The demand crossing left -> right equals SATURATION x the
        # planted cut's capacity, so any feasible routing pushes
        # SATURATION x capacity through the bridge: opt >= SATURATION.
        instance = _planted_instance()
        planted = instance.planted
        plane = generate_demands(
            instance, resolve_demand("adversarial_cut"), 2, 42
        )
        crossing = plane[:, planted.left].sum(axis=1)
        expected = SATURATION * planted.live_cut_capacity()
        assert np.allclose(crossing, expected, rtol=1e-9)

    def test_adversarial_requires_planted(self):
        with pytest.raises(ScenarioError):
            generate_demands(
                _torus_instance(), resolve_demand("adversarial_cut"), 1, 42
            )


# ----------------------------------------------------------------------
# Failure models + epoch machinery
# ----------------------------------------------------------------------
class TestFailureModels:
    def test_none_is_identity(self):
        instance = _torus_instance()
        caps = instance.graph.capacities().copy()
        report = apply_failure(instance, resolve_failure("none"), 5)
        assert report.version_delta == 0
        assert report.edge_ids.shape == (0,)
        assert np.array_equal(instance.graph.capacities(), caps)

    def test_delete_floors_and_advances_epochs(self):
        instance = _torus_instance()
        version = instance.graph._version
        report = apply_failure(instance, resolve_failure("delete"), 5)
        touched = report.edge_ids
        assert touched.dtype == WIDE_DTYPE
        assert touched.shape[0] >= 1
        # One epoch per write-through set_capacity call.
        assert report.version_delta == touched.shape[0]
        assert instance.graph._version == version + touched.shape[0]
        caps = instance.graph.capacities()
        assert np.all(caps[touched] == DELETED_CAPACITY)
        assert instance.graph.is_connected()

    def test_degrade_scales_capacities(self):
        instance = _torus_instance()
        before = instance.graph.capacities().copy()
        report = apply_failure(instance, resolve_failure("degrade"), 5)
        caps = instance.graph.capacities()
        touched = report.edge_ids
        assert np.allclose(caps[touched], before[touched] * DEGRADE_FACTOR)
        untouched = np.setdiff1d(
            np.arange(instance.graph.num_edges), touched
        )
        assert np.array_equal(caps[untouched], before[untouched])

    def test_failures_spare_the_planted_bridge(self):
        instance = _planted_instance()
        planted = instance.planted
        before = planted.live_cut_capacity()
        for name in ("delete", "degrade"):
            report = apply_failure(instance, resolve_failure(name), 5)
            assert not set(report.edge_ids.tolist()) & set(
                planted.bridge_edges.tolist()
            )
        assert planted.live_cut_capacity() == before

    def test_failures_are_deterministic_under_seed(self):
        first = apply_failure(
            _torus_instance(), resolve_failure("delete"), 5
        )
        second = apply_failure(
            _torus_instance(), resolve_failure("delete"), 5
        )
        assert np.array_equal(first.edge_ids, second.edge_ids)


# ----------------------------------------------------------------------
# Runner + invariants
# ----------------------------------------------------------------------
def _small_matrix(demand="adversarial_cut", failure="none", num_queries=1):
    return [
        Scenario(
            topology="planted_60",
            demand=demand,
            failure=failure,
            epsilon=0.5,
            num_queries=num_queries,
            seed=77,
        )
    ]


def _timing_free(result):
    """A run's records with the wall-clock field zeroed, for exact
    comparison of everything deterministic."""
    return [replace(record, route_seconds=0.0) for record in result.records]


class TestRunner:
    def test_group_passes_and_records(self):
        result = run_matrix(_small_matrix())
        assert len(result.records) == 1
        record = result.records[0]
        assert record.scenario.name == "planted_60__adversarial_cut__none"
        assert list(result.by_name()) == [record.scenario.name]
        # The planted cut is found exactly by the exact oracle.
        planted = _planted_instance()
        assert record.exact_value == planted.planted.cut_capacity
        assert record.maxflow_value <= record.exact_value
        assert record.lower_bound <= record.congestion
        assert record.invariants_checked >= 5

    def test_adversarial_congestion_reaches_saturation(self):
        result = run_matrix(_small_matrix())
        record = result.records[0]
        assert record.congestion >= SATURATION / 1.01
        assert record.lower_bound >= SATURATION / record.alpha / 1.01

    def test_failure_group_accounts_epochs(self):
        result = run_matrix(_small_matrix(failure="degrade"))
        record = result.records[0]
        assert record.failed_edges >= 1
        assert record.version_delta == record.failed_edges

    def test_report_is_deterministic_and_timing_free(self):
        scenarios = _small_matrix()
        first = scenario_report(run_matrix(scenarios), "t")
        second = scenario_report(run_matrix(scenarios), "t")
        assert first == second
        assert "planted_60" in first
        assert "seconds" not in first.lower()

    def test_bench_rows_filter_on_the_subset_names(self):
        # Scenario names omit the seed, so this adversarial group
        # shares its name with a BENCH_SUBSET row and produces a
        # metric; the hotspot group is outside the subset and none.
        subset_run = run_matrix(_small_matrix())
        rows = bench_rows(subset_run)
        assert list(rows) == [
            "scenario_route__planted_60__adversarial_cut__none"
        ]
        assert all(seconds > 0 for seconds in rows.values())
        other_run = run_matrix(_small_matrix(demand="hotspot"))
        assert bench_rows(other_run) == {}


# ----------------------------------------------------------------------
# Mutation tests: a deliberately broken approximator must be caught.
# ----------------------------------------------------------------------
def _sabotaged(scale: float):
    def factory(graph, seed) -> TreeCongestionApproximator:
        approx = build_congestion_approximator(graph, rng=seed)
        for op in approx.operators:
            op.row_inv_capacity = op.row_inv_capacity * scale
        approx._stacked = None  # rebuild the fused operator from the
        # sabotaged rows (alpha estimation caches it pre-sabotage)
        return approx

    return factory


class TestMutation:
    def test_inflated_rows_are_caught(self):
        # x100 rows claim impossibly strong cuts: the certified upper
        # bound drops below the exact optimum (or the soundness check
        # sees lower_bound > congestion) and an invariant fires.
        with pytest.raises(InvariantViolation):
            run_matrix(
                _small_matrix(), build_approximator=_sabotaged(100.0)
            )

    def test_deflated_rows_are_caught(self):
        # /100 rows miss the planted bottleneck: the congestion
        # guarantee (or planted-detection) invariant fires.
        with pytest.raises(InvariantViolation):
            run_matrix(
                _small_matrix(), build_approximator=_sabotaged(0.01)
            )

    def test_healthy_approximator_passes_the_same_group(self):
        # Control: the identical group passes with the real factory,
        # so the mutation failures above are the sabotage, not the
        # scenario.
        result = run_matrix(_small_matrix())
        assert result.records[0].invariants_checked >= 5


# ----------------------------------------------------------------------
# Scenario x fault-injection interaction: recovered-bit-identical or
# typed ReproError, never a hang (extends the tests/test_faults.py
# contract to the scenario runner). Routing never reaches a pool, so
# the faults land in the construction maps — CSR builds, BFS and MWU
# lengths of the topology and approximator builds — which run on the
# process pool under a sharded process default.
# ----------------------------------------------------------------------
@needs_fork
class TestFaultInteraction:
    def _sharded_run(self, plan, policy):
        with use_config(forced(2, "process")), use_faults(plan):
            with use_recovery(policy):
                return run_matrix(_small_matrix())

    def test_worker_exit_recovers_bit_identically(self):
        expected = _timing_free(run_matrix(_small_matrix()))
        plan = FaultPlan(["pool.worker:exit@2"])
        result = self._sharded_run(
            plan, RecoveryPolicy(timeout=1.0, retries=2, backoff=0.0)
        )
        assert plan.fired()["pool.worker"] == 1
        assert _timing_free(result) == expected

    def test_arena_enospc_recovers_bit_identically(self):
        expected = _timing_free(run_matrix(_small_matrix()))
        plan = FaultPlan(["arena.export:enospc@1"])
        result = self._sharded_run(plan, FAST)
        assert plan.fired()["arena.export"] == 1
        assert _timing_free(result) == expected

    def test_persistent_fault_surfaces_typed_never_hangs(self):
        plan = FaultPlan(["pool.worker*inf"])
        with pytest.raises(PoolFailureError):
            self._sharded_run(plan, FAST)

"""Deterministic fault injection (see :mod:`repro.faults.plan`).

Quick tour::

    from repro.faults import FaultPlan, use_faults

    plan = FaultPlan(["pool.worker:exit@1"])      # kill the first shard
    with use_faults(plan):
        results = server.route_batch(demands)      # recovered, identical
    assert plan.fired()["pool.worker"] == 1

    plan = FaultPlan(["serve.miss@1"])            # crash the first solve
    with use_faults(plan):
        result = server.route(demand)              # retried, identical
    assert server.health().miss_retries == 1

or process-wide via the environment (strictly validated)::

    REPRO_FAULTS="arena.export:enospc@1,pool.worker@2*inf"
"""

from repro.faults.plan import (
    FAULT_POINTS,
    SITES,
    FaultAction,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    active_plan,
    execute_action,
    execute_directive,
    fault_point,
    faults_active,
    fire,
    maybe_fire,
    parse_fault_specs,
    plan_from_env,
    register_fault_site,
    set_fault_plan,
    use_faults,
)

__all__ = [
    "FAULT_POINTS",
    "SITES",
    "FaultAction",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "active_plan",
    "execute_action",
    "execute_directive",
    "fault_point",
    "faults_active",
    "fire",
    "maybe_fire",
    "parse_fault_specs",
    "plan_from_env",
    "register_fault_site",
    "set_fault_plan",
    "use_faults",
]

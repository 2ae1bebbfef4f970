"""Deterministic fault injection (see :mod:`repro.faults.plan`).

Quick tour::

    from repro.faults import FaultPlan, use_faults

    plan = FaultPlan(["serve.checkout@1"])        # fail the first checkout
    with use_faults(plan):
        result = server.route(demand)              # own workspace, identical
    assert plan.fired()["serve.checkout"] == 1
    assert server.health().workspace_fallbacks == 1

    plan = FaultPlan(["serve.miss@1"])            # crash the first solve
    with use_faults(plan):
        result = server.route(demand)              # retried, identical
    assert server.health().miss_retries == 1

or process-wide via the environment (strictly validated)::

    REPRO_FAULTS="serve.checkout@1,serve.miss:hang@2*inf"
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
    fault_point,
    maybe_fire,
    parse_fault_specs,
    plan_from_env,
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
    "fault_point",
    "maybe_fire",
    "parse_fault_specs",
    "plan_from_env",
    "set_fault_plan",
    "use_faults",
]

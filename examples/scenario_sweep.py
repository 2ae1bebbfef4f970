#!/usr/bin/env python3
"""Scenario sweep: run a slice of the declarative scenario corpus.

A scenario is one point of Topology x Demand x Failure (see
``repro.scenarios``). The runner executes each scenario — building
the topology, applying the failure through the write-through
``set_capacity`` epoch machinery, routing the demand plane — and
*asserts the correctness invariants* (demand conservation, congestion
soundness and guarantee, max-flow value vs exact Dinic, planted-cut
detection, warm/cold re-route agreement) before reporting any
numbers.

Run:  PYTHONPATH=src python examples/scenario_sweep.py
"""

from __future__ import annotations

from repro.scenarios import build_matrix, run_matrix


def main() -> None:
    # A small sweep: the planted-bottleneck topology under healthy and
    # degraded capacities, probed by a demand that straddles the cut
    # and by churning hotspots.
    matrix = build_matrix(
        topologies=("planted_60",),
        demands=("adversarial_cut", "hotspot"),
        failures=("none", "degrade"),
        epsilon=0.5,
        num_queries=1,
    )
    print(f"sweep: {len(matrix)} scenarios")
    result = run_matrix(matrix, progress=lambda line: print(f"  {line}"))

    for record in result.records:
        s = record.scenario
        print(
            f"{s.topology} x {s.demand} x {s.failure}: "
            f"exact={record.exact_value:g} "
            f"approx={record.maxflow_value:.4g} "
            f"congestion={record.congestion:.4g} "
            f"lower_bound={record.lower_bound:.4g} "
            f"checks={record.invariants_checked}"
        )
    print(
        f"{len(result.records)} scenarios, every invariant passed"
    )


if __name__ == "__main__":
    main()

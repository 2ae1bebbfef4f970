#!/usr/bin/env python3
"""Serving a stream of capacity updates with incremental refresh.

A monitoring loop watches link capacities drift (degradations and
restorations) and keeps routing the same traffic matrix. With the
default ``refresh="rebuild"`` policy every drift pays a full
approximator rebuild plus a cold solve. The ``refresh="incremental"``
policy instead consumes the graph's capacity **delta journal** on
sync: every tree's cut capacities are recomputed exactly in place (the
same trees serve every epoch; nothing is resampled), cached flows for
the same demands are rescaled to the new capacities and used to
**warm-start** the solver.

Warm-started answers carry the same guarantees as cold ones: exact
conservation and the (1+eps)*alpha congestion bound. Structural
changes (add_edge) or a journal overflow automatically fall back to
the full rebuild.

Run:  python examples/streaming_updates.py
"""

from __future__ import annotations

import time

import numpy as np

from repro.graphs.generators import random_connected
from repro.serve import FlowServer

#: Drift stream: (cycle, multiplier) — degrade then restore.
DRIFT_CYCLES = 6
DEGRADE = 0.6
RESTORE = 1.5
TOUCH_FRACTION = 0.01


def demand_plane(n: int, num_queries: int, rng: np.random.Generator):
    plane = rng.normal(size=(num_queries, n))
    plane -= plane.mean(axis=1, keepdims=True)
    return plane


def drift(graph, rng: np.random.Generator, factor: float) -> int:
    """Apply a small capacity-only delta; returns edges touched."""
    count = max(1, int(graph.num_edges * TOUCH_FRACTION))
    edges = rng.choice(graph.num_edges, size=count, replace=False)
    for eid in edges.tolist():
        graph.set_capacity(int(eid), graph.capacity(int(eid)) * factor)
    return count


def main() -> None:
    networks = {
        policy: random_connected(96, 0.05, rng=81)
        for policy in ("rebuild", "incremental")
    }
    servers = {
        policy: FlowServer(
            network,
            epsilon=0.3,
            solver="accelerated",
            rng=82,
            refresh=policy,
        )
        for policy, network in networks.items()
    }
    n = networks["rebuild"].num_nodes
    print(f"network: n={n}, m={networks['rebuild'].num_edges}; "
          f"policies: {', '.join(servers)}")

    rng = np.random.default_rng(83)
    plane = demand_plane(n, 3, rng)
    for server in servers.values():
        server.route_batch(plane)  # warm: build + populate the cache
    # The incremental server's trees: every epoch below must keep them.
    trees = servers["incremental"].approximator.trees()

    # --- drift stream ----------------------------------------------
    update_rng = np.random.default_rng(84)
    totals = {policy: 0.0 for policy in servers}
    for cycle in range(DRIFT_CYCLES):
        factor = DEGRADE if cycle % 2 == 0 else RESTORE
        seed = update_rng.integers(1 << 31)
        for policy, server in servers.items():
            touched = drift(
                networks[policy], np.random.default_rng(seed), factor
            )
            t0 = time.perf_counter()
            results = server.route_batch(plane)
            totals[policy] += time.perf_counter() - t0
        kind = "degrade" if factor < 1 else "restore"
        print(f"cycle {cycle}: {kind} x{factor} on {touched} edges, "
              f"re-routed {len(results)} demands "
              f"({sum(r.iterations for r in results)} iterations "
              f"incremental)")

    # --- verdict ----------------------------------------------------
    stats = servers["incremental"].stats()
    now_trees = servers["incremental"].approximator.trees()
    kept = sum(now is before for now, before in zip(now_trees, trees))
    print(f"\nincremental: {stats.incremental_refreshes} exact cut "
          f"refreshes, {stats.warm_starts} warm starts, "
          f"{stats.rebuilds} rebuilds; {kept} of {len(trees)} trees "
          f"kept through {DRIFT_CYCLES} epochs")
    assert stats.incremental_refreshes == DRIFT_CYCLES
    assert kept == len(trees)
    assert stats.warm_starts > 0
    assert stats.rebuilds == 0
    rebuild_stats = servers["rebuild"].stats()
    assert rebuild_stats.rebuilds == DRIFT_CYCLES

    # Identical drift, identical demands: the two policies must agree
    # on what they routed (same guarantees), while the incremental
    # server skipped every rebuild.
    speedup = totals["rebuild"] / max(totals["incremental"], 1e-12)
    print(f"update latency: rebuild {totals['rebuild'] * 1e3:.0f} ms vs "
          f"incremental {totals['incremental'] * 1e3:.0f} ms "
          f"({speedup:.1f}x) across {DRIFT_CYCLES} cycles")

    # A structural change ends the journal's reach: the next sync
    # falls back to a full rebuild, exactly once.
    network = networks["incremental"]
    network.add_edge(0, n - 1, 5.0)
    servers["incremental"].route(plane[0])
    stats = servers["incremental"].stats()
    print(f"\nafter add_edge: rebuilds={stats.rebuilds} "
          f"(journal cannot vouch across structural mutations)")
    assert stats.rebuilds == 1


if __name__ == "__main__":
    main()

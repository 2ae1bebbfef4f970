#!/usr/bin/env python3
"""Build-once / serve-many routing with a FlowServer.

A traffic-engineering controller builds the congestion approximator
once (the expensive n·log n tree-sampling step) and then answers a
stream of routing queries against it: single demands, batched demand
planes, and repeated queries that hit the result cache. When the
network changes (a capacity upgrade), the server notices the graph's
version bump, drops the now-stale cached results exactly once, and
rebuilds — subsequent queries are served against the live network.

Batched columns are bit-identical to one-shot calls, so singles and
batch columns share one cache namespace: a demand routed inside a
batch hits later as a single query.

Run:  python examples/flow_server.py
"""

from __future__ import annotations

import numpy as np

from repro.graphs.generators import random_connected
from repro.serve import FlowServer


def demand_plane(n: int, num_queries: int, rng: np.random.Generator):
    plane = rng.normal(size=(num_queries, n))
    plane -= plane.mean(axis=1, keepdims=True)
    return plane


def main() -> None:
    network = random_connected(48, 0.1, rng=71)
    print(f"network: n={network.num_nodes}, m={network.num_edges}")

    server = FlowServer(network, epsilon=0.3, solver="accelerated", rng=72)
    print(f"server up: {server.approximator.num_trees}-tree approximator, "
          f"solver={server.solver}")

    # --- serve a mixed query stream --------------------------------
    rng = np.random.default_rng(73)
    single = demand_plane(network.num_nodes, 1, rng)[0]
    result = server.route(single)
    print(f"\nsingle query: {result.iterations} iterations, "
          f"congestion estimate {result.potential:.3f}")

    plane = demand_plane(network.num_nodes, 6, rng)
    plane[0] = single  # one column repeats the single query
    batch = server.route_batch(plane)
    print(f"batch of {len(batch)}: iterations "
          f"{[r.iterations for r in batch]}")
    assert batch[0] is result, "repeated column must hit the cache"

    st = server.route_st(0, network.num_nodes - 1, value=2.0)
    print(f"s-t query 0->{network.num_nodes - 1}: "
          f"{st.iterations} iterations")

    cache = server.cache_stats()
    print(f"cache after stream: {cache.hits} hits, {cache.misses} misses")

    # --- mutate the network ----------------------------------------
    edge = 0
    old = network.capacities()[edge]
    network.set_capacity(edge, old * 4.0)
    print(f"\ncapacity upgrade on edge {edge}: {old:.2f} -> {old * 4.0:.2f}")

    refreshed = server.route(single)
    cache = server.cache_stats()
    stats = server.stats()
    print(f"re-served on the upgraded network: "
          f"{refreshed.iterations} iterations "
          f"(was {result.iterations} pre-upgrade)")
    print(f"invalidations={cache.invalidations} (exactly one), "
          f"rebuilds={stats.rebuilds}")
    assert cache.invalidations == 1
    assert refreshed is not result, "stale epoch must never be served"

    # The refreshed result is served from the rebuilt approximator;
    # asking again is now a cache hit on the new epoch.
    again = server.route(single)
    assert again is refreshed
    print("repeat query after upgrade: cache hit on the new epoch")

    stats = server.stats()
    print(f"\nserved {stats.single_queries} singles + "
          f"{stats.batch_queries} batches "
          f"({stats.batched_columns} columns)")


if __name__ == "__main__":
    main()

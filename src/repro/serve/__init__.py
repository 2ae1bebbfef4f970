"""Serving layer: build-once / serve-many routing (see ROADMAP).

:class:`FlowServer` owns a built congestion approximator and a
version-keyed result cache, and serves single and batched multi-demand
routing queries whose results are bit-identical to the corresponding
one-shot :func:`~repro.core.almost_route.almost_route` calls.
"""

from repro.serve.cache import CacheStats, ResultCache, demand_digest
from repro.serve.server import FlowServer, ServerHealth, ServerStats

__all__ = [
    "CacheStats",
    "FlowServer",
    "ResultCache",
    "ServerHealth",
    "ServerStats",
    "demand_digest",
]

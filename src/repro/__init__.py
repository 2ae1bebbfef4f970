"""repro — reproduction of "Near-Optimal Distributed Maximum Flow"
(Ghaffari, Karrenbauer, Kuhn, Lenzen, Patt-Shamir; PODC 2015).

Public API tour
---------------

Graphs and workloads::

    from repro import Graph
    from repro.graphs import generators

Approximate max flow (the paper's Theorem 1.1 pipeline)::

    from repro import max_flow, build_congestion_approximator
    result = max_flow(graph, s, t, epsilon=0.25)

Exact oracles and baselines::

    from repro import dinic_max_flow
    from repro.congest import distributed_push_relabel

Substrates (each independently usable)::

    from repro.lsst import akpw_spanning_tree        # Theorem 3.1
    from repro.sparsify import sparsify               # Lemma 6.1
    from repro.jtree import sample_virtual_tree       # Theorem 8.10
    from repro.congest import CongestNetwork          # the model itself

Serving (build the approximator once, route many demands — a warm
workspace pool and a version-keyed result cache; every query and every
batch column is the one-shot solve, bit for bit)::

    from repro import FlowServer
    server = FlowServer(graph, epsilon=0.25)
    results = server.route_batch(demands)     # list of AlmostRouteResult
"""

from repro.graphs import Graph, RootedTree
from repro.flow import dinic_max_flow
from repro.core import (
    ApproxFlow,
    ApproxMaxFlow,
    TreeCongestionApproximator,
    build_congestion_approximator,
    estimate_rounds,
    max_flow,
    min_congestion_flow,
)
from repro.congest import CongestNetwork, CostModel, distributed_push_relabel
from repro.jtree import HierarchyParams, sample_virtual_tree
from repro.lsst import akpw_spanning_tree
from repro.serve import FlowServer
from repro.sparsify import sparsify
from repro.errors import ReproError

__all__ = [
    "Graph",
    "RootedTree",
    "dinic_max_flow",
    "ApproxFlow",
    "ApproxMaxFlow",
    "TreeCongestionApproximator",
    "build_congestion_approximator",
    "estimate_rounds",
    "max_flow",
    "min_congestion_flow",
    "CongestNetwork",
    "CostModel",
    "distributed_push_relabel",
    "HierarchyParams",
    "sample_virtual_tree",
    "akpw_spanning_tree",
    "FlowServer",
    "sparsify",
    "ReproError",
]

__version__ = "1.0.0"

"""The paper's primary contribution: approximator + gradient descent."""

from repro.core.softmax import (
    smax,
    smax_and_gradient,
    smax_and_gradient_batch,
    smax_gradient,
)
from repro.core.approximator import (
    StackedTreeOperator,
    TreeCongestionApproximator,
    TreeOperator,
    build_congestion_approximator,
    estimate_alpha_st,
    racke_sample_trees,
)
from repro.core.almost_route import (
    AlmostRouteResult,
    BatchAlmostRouteResult,
    RouteWorkspace,
    almost_route,
    almost_route_batch,
)
from repro.core.maxflow import (
    ApproxFlow,
    ApproxMaxFlow,
    max_flow,
    min_congestion_flow,
)
from repro.core.rounds import RoundEstimate, estimate_rounds
from repro.core.accelerated import (
    accelerated_almost_route,
    accelerated_almost_route_batch,
)
from repro.core.binary_search import (
    BinarySearchMaxFlow,
    max_flow_binary_search,
)

__all__ = [
    "smax",
    "smax_and_gradient",
    "smax_and_gradient_batch",
    "smax_gradient",
    "StackedTreeOperator",
    "TreeCongestionApproximator",
    "TreeOperator",
    "build_congestion_approximator",
    "estimate_alpha_st",
    "racke_sample_trees",
    "AlmostRouteResult",
    "BatchAlmostRouteResult",
    "RouteWorkspace",
    "almost_route",
    "almost_route_batch",
    "ApproxFlow",
    "ApproxMaxFlow",
    "max_flow",
    "min_congestion_flow",
    "RoundEstimate",
    "estimate_rounds",
    "accelerated_almost_route",
    "accelerated_almost_route_batch",
    "BinarySearchMaxFlow",
    "max_flow_binary_search",
]

"""Release-quality checks on the public API surface.

Everything advertised in ``__all__`` must exist, be importable from the
documented location, and carry a docstring; the README's core snippet
must work verbatim.
"""

from __future__ import annotations

import importlib
import inspect

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.graphs",
    "repro.congest",
    "repro.flow",
    "repro.lsst",
    "repro.sparsify",
    "repro.cluster",
    "repro.jtree",
    "repro.core",
    "repro.util",
]


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_all_exports_exist(module_name):
    module = importlib.import_module(module_name)
    assert hasattr(module, "__all__"), f"{module_name} missing __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.{name} missing"


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_public_callables_documented(module_name):
    module = importlib.import_module(module_name)
    undocumented = []
    for name in module.__all__:
        obj = getattr(module, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            if not (obj.__doc__ or "").strip():
                undocumented.append(name)
    assert not undocumented, (
        f"{module_name} exports without docstrings: {undocumented}"
    )


def test_version_present():
    import repro

    assert repro.__version__


def test_readme_snippet_runs():
    from repro import build_congestion_approximator, dinic_max_flow, max_flow
    from repro.graphs.generators import random_connected

    graph = random_connected(50, extra_edge_probability=0.1, rng=7)
    approximator = build_congestion_approximator(graph, rng=13)
    result = max_flow(
        graph, source=0, sink=49, epsilon=0.25, approximator=approximator
    )
    exact = dinic_max_flow(graph, 0, 49).value
    assert result.value / exact > 0.9
    assert result.certified_upper_bound >= exact - 1e-9


def test_errors_module_hierarchy():
    from repro import errors

    for name in (
        "GraphError",
        "DisconnectedGraphError",
        "InvalidDemandError",
        "InvalidFlowError",
        "CongestModelError",
        "MessageTooLargeError",
        "RoundLimitExceededError",
        "ConvergenceError",
        "TreeError",
    ):
        exc = getattr(errors, name)
        assert issubclass(exc, errors.ReproError)

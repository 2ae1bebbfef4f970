"""The hot-kernel registry: ``@hot_kernel`` marks allocation-free code.

AlmostRoute's inner loop is allocation-free: each call allocates one
:class:`~repro.core.almost_route.RouteWorkspace` up front and every
gradient step writes into it. The contract is easy to erode: one
innocuous ``np.zeros`` inside a gradient step reintroduces a
per-iteration allocation (and first-touch page faulting) that the
workspace exists to avoid, and nothing crashes — the solve is just
slower, forever.

``@hot_kernel`` is a zero-overhead marker: it returns the function
unchanged (same object — monkeypatching sees no wrapper) and only
sets an attribute and records the qualified name
in :data:`HOT_KERNELS`. The static side of the contract lives in
repolint's ``hot-path-alloc`` rule, which flags allocating NumPy
constructors lexically inside any decorated function unless the line
carries an ``# alloc-ok (reason)`` marker — the escape hatch for
setup/fallback paths serving unbuffered callers.

This module is a dependency leaf (like :mod:`repro.dtypes`): it
imports nothing from the package, so the innermost kernels — including
:mod:`repro.graphs.graph`, which sits *below* ``repro.util`` in the
import graph — can decorate without cycles.
"""

from __future__ import annotations

from typing import Callable, TypeVar

__all__ = ["HOT_KERNELS", "hot_kernel"]

F = TypeVar("F", bound=Callable)

#: Qualified names (``module.qualname``) of every registered hot
#: kernel, in decoration order. Diagnostic/introspection hook; the
#: static rule reads decorator syntax, not this set.
HOT_KERNELS: list[str] = []


def hot_kernel(func: F) -> F:
    """Mark ``func`` as under the allocation-free hot-path contract.

    Returns ``func`` itself (no wrapper): the marker costs nothing at
    call time and preserves function identity for monkeypatched
    tests.
    """
    func.__hot_kernel__ = True  # type: ignore[attr-defined]
    HOT_KERNELS.append(f"{func.__module__}.{func.__qualname__}")
    return func

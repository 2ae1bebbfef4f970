"""The symmetric soft-max of Sherman's potential (paper §9.1).

``smax(y) = log Σ_i (e^{y_i} + e^{-y_i})`` is the differentiable proxy
for ``‖y‖_∞`` used in both halves of the potential
``φ(f) = smax(C⁻¹f) + smax(2αR(b − Bf))``. Its gradient weights
``g_i = (e^{y_i} − e^{-y_i}) / Σ_j (e^{y_j} + e^{-y_j})`` satisfy
``Σ|g_i| ≤ 1`` and concentrate on the largest |y_i| — which is what
makes the descent focus on the most congested edges and cuts.

Everything is computed in log-space with max-subtraction so the
(deliberately large, Θ(ε⁻¹ log n)) arguments never overflow.

:func:`smax_and_gradient` is the per-iteration form: with ``out=`` and
``scratch=`` buffers (the AlmostRoute call's own
:class:`~repro.core.almost_route.RouteWorkspace`) it performs no
allocation. The scratch is one **contiguous pair buffer** of
shape ``(2k,)``: both exponential families ``e^{y−m}`` and ``e^{−y−m}``
are then evaluated by a *single* ``np.exp`` ufunc call over the stacked
buffer (a two-call form paid a second dispatch + loop startup for the
same element count; ``benchmarks/test_bench_gradient.py`` prints the
soft-max share of a gradient step). ``max|y|`` is taken from ``|y|``
written into the second half, which the exponentials overwrite next.
The buffered and unbuffered
paths execute the identical per-element operations and the identical
two-half summation fold, so results are bit-identical (golden-tested
in ``tests/test_softmax.py``).

The call is two steps, and the AlmostRoute loops run them apart.
``_smax_pair`` computes the value and leaves the exponentials and their
sum behind. ``_pair_gradient`` turns them into the gradient. Most
soft-maxes of a descent are value-only: the potential at the iterate
and on every 17/16 step is compared with the target, and its gradient
is overwritten (accelerated loop) or needed only for the last fully
evaluated step (plain loop, which finishes it from that step's pair
buffer with the same subtract and divide).

:func:`smax_and_gradient_batch` is the ``(Q, k)`` plane form: one
:func:`smax_and_gradient` call per row, so each row is that call's
result exactly. No library code calls it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.hotpath import hot_kernel

__all__ = [
    "smax",
    "smax_gradient",
    "smax_and_gradient",
    "smax_and_gradient_batch",
]


def smax(y: np.ndarray) -> float:
    """Return ``log Σ_i (e^{y_i} + e^{-y_i})``; smax([]) = -inf."""
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        return float("-inf")
    m = float(np.abs(y).max())
    total = np.exp(y - m).sum() + np.exp(-y - m).sum()
    return m + float(np.log(total))


def smax_gradient(y: np.ndarray) -> np.ndarray:
    """Return the gradient g of smax at y.

    ``g_i = (e^{y_i} − e^{-y_i}) / Σ_j (e^{y_j} + e^{-y_j})``, computed
    stably. Satisfies ``Σ_i |g_i| ≤ 1``.
    """
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        return np.zeros(0)
    m = float(np.abs(y).max())
    pos = np.exp(y - m)
    neg = np.exp(-y - m)
    return (pos - neg) / (pos.sum() + neg.sum())


@hot_kernel
def smax_and_gradient(
    y: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
) -> tuple[float, np.ndarray]:
    """Return ``(smax(y), grad smax(y))`` sharing one pass.

    Args:
        y: Argument vector of length ``k``.
        out: Optional buffer (shape of ``y``) receiving the gradient.
        scratch: Optional ``(2k,)`` work buffer: both exponential
            halves live in it and a single ``np.exp`` call evaluates
            them. With ``out`` and ``scratch`` the call allocates
            nothing; the result is bit-identical either way.

    Raises:
        GraphError: If a buffer aliases ``y`` or ``scratch`` is not
            ``(2k,)``-shaped.
    """
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        # Slice (not return) the buffer so the result is always a
        # correctly-shaped empty gradient, never stale buffer content.
        return float("-inf"), (
            np.zeros(0) if out is None else out[:0]  # alloc-ok (empty input)
        )
    for name, buf in (("out", out), ("scratch", scratch)):
        # y is read after the buffers are written; aliasing would
        # silently corrupt both the value and the gradient.
        if buf is not None and np.may_share_memory(buf, y):
            raise GraphError(f"{name} buffer must not alias y")
    k = y.size
    if scratch is not None and scratch.shape != (2 * k,):
        raise GraphError(
            f"scratch must have shape {(2 * k,)}, got {scratch.shape}"
        )
    pair = scratch if scratch is not None else np.empty(2 * k)  # alloc-ok (unbuffered fallback)
    value, total = _smax_pair(y, pair)
    grad = out if out is not None else np.empty_like(y)  # alloc-ok (unbuffered fallback)
    _pair_gradient(pair, total, grad)
    return value, grad


@hot_kernel
def _smax_pair(y: np.ndarray, pair: np.ndarray) -> tuple[float, float]:
    """The soft-max value alone: ``(smax(y), Σ_i (e^{y_i−m} + e^{−y_i−m}))``.

    Leaves ``e^{y−m}`` in ``pair[:k]`` and ``e^{−y−m}`` in ``pair[k:]``,
    so :func:`_pair_gradient` can finish the gradient later from
    ``pair`` and the returned sum. ``pair`` must be ``(2k,)``-shaped
    and must not alias ``y`` (unchecked: callers pass their own
    workspace buffers).
    """
    k = y.size
    if k == 0:
        return float("-inf"), 0.0
    pos = pair[:k]
    neg = pair[k:]
    # |y| goes where e^{−y−m} goes next, so the max allocates nothing.
    np.abs(y, out=neg)
    m = float(neg.max())
    np.subtract(y, m, out=pos)
    np.subtract(-m, y, out=neg)
    # One ufunc dispatch for both exponential families.
    np.exp(pair, out=pair)
    total = pos.sum() + neg.sum()
    return m + float(np.log(total)), total


@hot_kernel
def _pair_gradient(pair: np.ndarray, total: float, out: np.ndarray) -> None:
    """Write ``(e^{y−m} − e^{−y−m}) / total`` into ``out``, reading the
    exponentials :func:`_smax_pair` left in ``pair``."""
    k = out.size
    np.subtract(pair[:k], pair[k:], out=out)
    np.true_divide(out, total, out=out)


def smax_and_gradient_batch(
    y: np.ndarray,
    out: np.ndarray | None = None,
    scratch: np.ndarray | None = None,
    values_out: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise :func:`smax_and_gradient` over a ``(Q, k)`` plane.

    Returns ``(values, gradients)`` with ``values[q], gradients[q]``
    computed by ``smax_and_gradient(y[q])``.

    Args:
        y: Argument plane of shape ``(Q, k)``.
        out: Optional ``(Q, k)`` buffer receiving the gradients.
        scratch: Optional ``(Q, 2k)`` work buffer; row ``q`` is row
            ``q``'s pair scratch.
        values_out: Optional ``(Q,)`` buffer receiving the values.
    """
    y = np.asarray(y, dtype=float)
    if y.ndim != 2:
        raise GraphError(f"expected a (Q, k) plane, got shape {y.shape}")
    num_queries, k = y.shape
    if scratch is not None and scratch.shape != (num_queries, 2 * k):
        raise GraphError(
            f"scratch must have shape {(num_queries, 2 * k)}, "
            f"got {scratch.shape}"
        )
    values = values_out if values_out is not None else np.empty(num_queries)
    grads = out if out is not None else np.empty_like(y)
    for q in range(num_queries):
        values[q], _ = smax_and_gradient(
            y[q],
            out=grads[q],
            scratch=None if scratch is None else scratch[q],
        )
    return values, grads

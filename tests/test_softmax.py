"""Tests for the symmetric soft-max (paper §9.1)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import GraphError
from repro.core.softmax import (
    smax,
    smax_and_gradient,
    smax_and_gradient_batch,
    smax_gradient,
)


class TestValue:
    def test_zero_vector(self):
        # smax(0) = log(2k).
        assert smax(np.zeros(5)) == pytest.approx(math.log(10))

    def test_upper_bounds_infinity_norm(self):
        rng = np.random.default_rng(1)
        y = rng.normal(size=20) * 3
        assert smax(y) >= np.abs(y).max()

    def test_infinity_norm_plus_log_bound(self):
        rng = np.random.default_rng(2)
        y = rng.normal(size=20) * 3
        assert smax(y) <= np.abs(y).max() + math.log(2 * 20)

    def test_symmetry(self):
        y = np.array([1.0, -2.0, 3.0])
        assert smax(y) == pytest.approx(smax(-y))

    def test_no_overflow_on_huge_arguments(self):
        y = np.array([1000.0, -999.0])
        value = smax(y)
        assert np.isfinite(value)
        assert value == pytest.approx(1000.0, abs=1.0)

    def test_empty_vector(self):
        assert smax(np.zeros(0)) == float("-inf")


class TestGradient:
    def test_gradient_l1_bounded_by_one(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            y = rng.normal(size=15) * 5
            g = smax_gradient(y)
            assert np.abs(g).sum() <= 1.0 + 1e-12

    def test_gradient_sign_matches_argument(self):
        y = np.array([2.0, -3.0, 0.0])
        g = smax_gradient(y)
        assert g[0] > 0
        assert g[1] < 0
        assert g[2] == pytest.approx(0.0)

    def test_finite_difference(self):
        rng = np.random.default_rng(4)
        y = rng.normal(size=8)
        g = smax_gradient(y)
        h = 1e-6
        for i in range(8):
            bump = y.copy()
            bump[i] += h
            numeric = (smax(bump) - smax(y)) / h
            assert g[i] == pytest.approx(numeric, abs=1e-4)

    def test_gradient_concentrates_on_max(self):
        y = np.array([10.0, 1.0, 1.0])
        g = smax_gradient(y)
        assert g[0] > 0.99

    def test_combined_matches_separate(self):
        y = np.array([1.0, 2.0, -1.5])
        value, grad = smax_and_gradient(y)
        assert value == pytest.approx(smax(y))
        np.testing.assert_allclose(grad, smax_gradient(y))

    def test_no_overflow_gradient(self):
        g = smax_gradient(np.array([800.0, -800.0, 0.0]))
        assert np.all(np.isfinite(g))


class TestFusedExp:
    """The single-``np.exp`` pair-buffer path is golden bit-identical
    to the unbuffered call and to the pre-fusion implementation."""

    @staticmethod
    def _legacy_reference(y: np.ndarray) -> tuple[float, np.ndarray]:
        """The exact pre-fusion computation (two exp calls, same
        summation fold), replicated as the golden oracle."""
        m = float(np.abs(y).max())
        pos = np.exp(y - m)
        neg = np.exp(-y - m)
        total = pos.sum() + neg.sum()
        return m + float(np.log(total)), (pos - neg) / total

    @pytest.mark.parametrize("k", [1, 2, 17, 256, 1023])
    def test_all_paths_bit_identical(self, k):
        rng = np.random.default_rng(k)
        y = rng.normal(size=k) * 40.0
        golden_value, golden_grad = self._legacy_reference(y)

        value_fused, grad_fused = smax_and_gradient(y)
        out = np.empty(k)
        pair = np.empty(2 * k)
        value_pair, grad_pair = smax_and_gradient(y, out=out, scratch=pair)

        assert value_fused == golden_value == value_pair
        assert grad_pair is out
        assert np.array_equal(golden_grad, grad_fused)
        assert np.array_equal(golden_grad, grad_pair)

    def test_pair_buffer_is_allocation_site(self):
        """With out= and a pair scratch the gradient lands in out and
        the exponentials in the caller's buffer (no hidden copies)."""
        y = np.linspace(-3.0, 3.0, 8)
        out = np.empty(8)
        pair = np.empty(16)
        _, grad = smax_and_gradient(y, out=out, scratch=pair)
        assert grad is out
        m = np.abs(y).max()
        assert np.array_equal(pair[:8], np.exp(y - m))
        assert np.array_equal(pair[8:], np.exp(-y - m))

    def test_pair_scratch_rejects_alias(self):
        base = np.zeros(16)
        y = base[:8]
        with pytest.raises(GraphError):
            smax_and_gradient(y, scratch=base)

    @pytest.mark.parametrize("size", [8, 15, 17])
    def test_rejects_wrong_scratch_shape(self, size):
        """Only a (2k,) pair buffer is accepted: the (k,) shape that
        once selected a split two-exp path is an error now."""
        with pytest.raises(GraphError, match="scratch must have shape"):
            smax_and_gradient(np.zeros(8), scratch=np.empty(size))


class TestBatchPlane:
    """The ``(Q, k)`` plane form is golden bit-identical per row to the
    1-D fused path."""

    @pytest.mark.parametrize("shape", [(1, 1), (1, 64), (7, 33), (16, 256)])
    def test_rows_bit_identical_to_1d(self, shape):
        rng = np.random.default_rng(shape[0] * 1000 + shape[1])
        y = rng.normal(size=shape) * 40.0
        values, grads = smax_and_gradient_batch(y)
        for q in range(shape[0]):
            value_1d, grad_1d = smax_and_gradient(y[q])
            assert float(values[q]) == value_1d
            assert np.array_equal(grad_1d, grads[q])

    def test_rows_match_legacy_reference(self):
        rng = np.random.default_rng(99)
        y = rng.normal(size=(5, 31)) * 30.0
        values, grads = smax_and_gradient_batch(y)
        for q in range(5):
            golden_value, golden_grad = TestFusedExp._legacy_reference(y[q])
            assert float(values[q]) == golden_value
            assert np.array_equal(golden_grad, grads[q])

    def test_buffered_call_is_identical_and_in_place(self):
        rng = np.random.default_rng(100)
        y = rng.normal(size=(4, 12)) * 20.0
        plain_values, plain_grads = smax_and_gradient_batch(y)
        out = np.empty((4, 12))
        scratch = np.empty((4, 24))
        values_out = np.empty(4)
        values, grads = smax_and_gradient_batch(
            y, out=out, scratch=scratch, values_out=values_out
        )
        assert grads is out
        assert values is values_out
        assert np.array_equal(plain_values, values)
        assert np.array_equal(plain_grads, grads)

    def test_rejects_1d_input(self):
        with pytest.raises(GraphError):
            smax_and_gradient_batch(np.zeros(8))

    def test_rejects_wrong_scratch_shape(self):
        with pytest.raises(GraphError):
            smax_and_gradient_batch(np.zeros((3, 8)), scratch=np.empty((3, 8)))

    def test_rejects_alias(self):
        base = np.zeros((2, 16))
        y = base[:, :8]
        with pytest.raises(GraphError):
            smax_and_gradient_batch(y, scratch=base)

    def test_zero_width_plane(self):
        values, grads = smax_and_gradient_batch(np.zeros((3, 0)))
        assert np.all(values == float("-inf"))
        assert grads.shape == (3, 0)

"""Unit and property tests for the tensor primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.nn.functional import (
    cross_entropy,
    gelu,
    kl_divergence,
    layer_norm,
    linear,
    log_softmax,
    relu,
    softmax,
    softmax_inplace,
)

finite_rows = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(2, 20)),
    elements=st.floats(-50, 50),
)


class TestSoftmax:
    @given(finite_rows)
    @settings(max_examples=50, deadline=None)
    def test_rows_sum_to_one(self, x):
        probs = softmax(x)
        assert np.allclose(probs.sum(axis=-1), 1.0)
        assert np.all(probs >= 0)

    @given(finite_rows)
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, x):
        assert np.allclose(softmax(x), softmax(x + 123.0))

    def test_extreme_values_stable(self):
        probs = softmax(np.array([1e4, 0.0, -1e4]))
        assert np.isfinite(probs).all()
        assert probs[0] == pytest.approx(1.0)

    @given(finite_rows)
    @settings(max_examples=30, deadline=None)
    def test_inplace_form_keeps_dtype_and_matches(self, x):
        # fp64 is bit-identical: the exact tier's SpAtten core uses it.
        for dtype, tol in ((np.float64, 0.0), (np.float32, 1e-6)):
            scores = x.astype(dtype)
            probs = softmax_inplace(scores)
            assert probs is scores and probs.dtype == dtype
            assert np.allclose(probs, softmax(x), rtol=0, atol=tol)

    def test_matches_log_softmax(self):
        x = np.random.default_rng(0).normal(size=(4, 9))
        assert np.allclose(np.log(softmax(x)), log_softmax(x))

    def test_axis_argument(self):
        x = np.random.default_rng(1).normal(size=(3, 5))
        assert np.allclose(softmax(x, axis=0).sum(axis=0), 1.0)


class TestLayerNorm:
    def test_zero_mean_unit_var(self):
        x = np.random.default_rng(2).normal(3.0, 5.0, size=(7, 16))
        y = layer_norm(x, np.ones(16), np.zeros(16))
        assert np.allclose(y.mean(axis=-1), 0.0, atol=1e-9)
        assert np.allclose(y.var(axis=-1), 1.0, atol=1e-3)

    def test_gamma_beta_applied(self):
        x = np.random.default_rng(3).normal(size=(2, 8))
        gamma, beta = 2.0 * np.ones(8), 3.0 * np.ones(8)
        y = layer_norm(x, gamma, beta)
        assert np.allclose(y.mean(axis=-1), 3.0, atol=1e-9)

    def test_constant_row_is_safe(self):
        y = layer_norm(np.full((1, 8), 5.0), np.ones(8), np.zeros(8))
        assert np.isfinite(y).all()


class TestActivations:
    def test_gelu_limits(self):
        assert gelu(np.array([100.0]))[0] == pytest.approx(100.0)
        assert gelu(np.array([-100.0]))[0] == pytest.approx(0.0, abs=1e-6)
        assert gelu(np.array([0.0]))[0] == 0.0

    def test_gelu_is_the_tanh_form_in_the_input_dtype(self):
        x = np.random.default_rng(6).normal(0, 3, size=(7, 33))
        cubic = 0.5 * x * (
            1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3))
        )
        assert np.allclose(gelu(x), cubic, rtol=0, atol=1e-14)
        narrow = gelu(x.astype(np.float32))
        assert narrow.dtype == np.float32
        assert np.allclose(narrow, cubic, rtol=0, atol=1e-5)

    def test_gelu_monotone_above_dip(self):
        # GELU has a local minimum near x = -0.75; it is monotone above.
        x = np.linspace(-0.7, 5, 200)
        assert np.all(np.diff(gelu(x)) > -1e-9)

    def test_relu(self):
        assert np.array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_linear_with_and_without_bias(self):
        x = np.ones((2, 3))
        w = np.eye(3)
        assert np.allclose(linear(x, w), x)
        assert np.allclose(linear(x, w, np.ones(3)), x + 1)


class TestLosses:
    def test_cross_entropy_perfect_prediction(self):
        logits = np.array([[100.0, 0.0], [0.0, 100.0]])
        assert cross_entropy(logits, np.array([0, 1])) == pytest.approx(0.0, abs=1e-6)

    def test_cross_entropy_uniform(self):
        logits = np.zeros((1, 4))
        assert cross_entropy(logits, np.array([2])) == pytest.approx(np.log(4))

    def test_kl_zero_for_identical(self):
        p = softmax(np.random.default_rng(4).normal(size=(3, 6)))
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-9)

    @given(finite_rows)
    @settings(max_examples=30, deadline=None)
    def test_kl_nonnegative(self, x):
        rng = np.random.default_rng(5)
        p = softmax(x)
        q = softmax(x + rng.normal(0, 1.0, size=x.shape))
        assert kl_divergence(p, q) >= -1e-12

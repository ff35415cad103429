"""Unit and property tests for progressive quantization."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.config import QuantConfig
from repro.core.quantization import (
    LinearQuantizer,
    QuantizationRangeError,
    attention_prob_error,
    dequantize_rows,
    needs_lsb,
    quantize_attention_inputs,
    quantize_rows,
    softmax_error_bound,
)
from repro.nn.functional import softmax

value_arrays = hnp.arrays(
    np.float64,
    st.integers(1, 40),
    elements=st.floats(-1000, 1000, allow_nan=False),
)

row_arrays = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(1, 12)),
    elements=st.floats(-1000, 1000, allow_nan=False),
)


class TestLinearQuantizer:
    def test_roundtrip_error_bounded_by_step(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0, 3.0, size=1000)
        quantizer = LinearQuantizer(8, 4)
        q = quantizer.quantize(x)
        recovered = quantizer.dequantize_full(q)
        step = q.scale
        assert np.max(np.abs(recovered - x)) <= step / 2 + 1e-12

    @given(value_arrays)
    @settings(max_examples=60, deadline=None)
    def test_split_recompose_identity(self, x):
        quantizer = LinearQuantizer(8, 4)
        q = quantizer.quantize(x)
        msb, lsb = quantizer.split(q)
        recomposed = quantizer.recompose(msb, lsb, q.scale)
        assert np.allclose(recomposed, quantizer.dequantize_full(q))

    @given(value_arrays)
    @settings(max_examples=60, deadline=None)
    def test_lsb_chunk_in_range(self, x):
        quantizer = LinearQuantizer(6, 4)
        msb, lsb = quantizer.split(quantizer.quantize(x))
        assert np.all(lsb >= 0) and np.all(lsb < 16)

    def test_msb_only_is_coarser(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=500)
        quantizer = LinearQuantizer(6, 4)
        q = quantizer.quantize(x)
        full_err = np.abs(quantizer.dequantize_full(q) - x).mean()
        msb_err = np.abs(quantizer.dequantize_msb(q) - x).mean()
        assert msb_err > full_err

    def test_msb_error_bounded_by_coarse_step(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=500)
        quantizer = LinearQuantizer(6, 4)
        q = quantizer.quantize(x)
        coarse_step = q.scale * 16
        assert np.max(np.abs(quantizer.dequantize_msb(q) - x)) <= coarse_step

    def test_zero_lsb_degenerates_gracefully(self):
        quantizer = LinearQuantizer(8, 0)
        x = np.array([1.0, -2.0, 0.5])
        q = quantizer.quantize(x)
        msb, lsb = quantizer.split(q)
        assert np.array_equal(msb, q.codes)
        assert np.all(lsb == 0)
        assert np.allclose(quantizer.dequantize_msb(q), quantizer.dequantize_full(q))

    def test_all_zero_input(self):
        quantizer = LinearQuantizer(8, 4)
        q = quantizer.quantize(np.zeros(5))
        assert np.allclose(quantizer.dequantize_full(q), 0.0)

    def test_dram_footprint(self):
        q = LinearQuantizer(8, 4).quantize(np.ones(16))
        assert q.nbytes_dram == pytest.approx(16 * 12 / 8)

    def test_invalid_bits_rejected(self):
        with pytest.raises(ValueError):
            LinearQuantizer(1, 4)
        with pytest.raises(ValueError):
            LinearQuantizer(8, -1)


class TestQuantizerEdgeCases:
    """The edge-case contract of the module docstring, audited when
    the quantizers went on the serving hot path (int8 numerics tier)."""

    def test_zero_range_round_trip_is_exact(self):
        q = LinearQuantizer(8, 0).quantize(np.zeros(7))
        assert q.scale == 1.0
        assert np.array_equal(q.codes, np.zeros(7, dtype=np.int32))

    def test_non_finite_raises_named_error(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(QuantizationRangeError):
                LinearQuantizer(8, 4).quantize(np.array([1.0, bad]))

    def test_range_error_is_a_value_error(self):
        # Call sites that catch ValueError must keep working.
        assert issubclass(QuantizationRangeError, ValueError)

    @given(value_arrays)
    # Subnormal range: max_abs / qmax underflows to 0.0.
    @example(np.array([5e-324, 0.0]))
    @settings(max_examples=60, deadline=None)
    def test_most_negative_code_never_produced(self, x):
        # Symmetric grid: -128 would dequantize outside the declared
        # range and break the negation symmetry below.
        q = LinearQuantizer(8, 0).quantize(x)
        assert q.codes.min(initial=0) >= -127
        assert q.codes.max(initial=0) <= 127

    @given(value_arrays)
    @settings(max_examples=60, deadline=None)
    def test_negation_commutes_with_quantization(self, x):
        quantizer = LinearQuantizer(8, 0)
        q_pos = quantizer.quantize(x)
        q_neg = quantizer.quantize(-x)
        assert q_neg.scale == q_pos.scale
        assert np.array_equal(q_neg.codes, -q_pos.codes)


class TestQuantizeRows:
    """Per-row quantization (the KV cache's int8 storage tier)."""

    @given(row_arrays)
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_error_bounded_by_half_step(self, x):
        codes, scales = quantize_rows(x, bits=8)
        recovered = dequantize_rows(codes, scales, dtype=np.float64)
        # scale/2 rounding plus the fp32-scale representation slack.
        bound = scales.astype(np.float64) * (0.5 + 1e-5)
        assert np.all(np.abs(recovered - x) <= bound + 1e-12)

    @given(row_arrays)
    @settings(max_examples=60, deadline=None)
    def test_codes_symmetric_and_negation_commutes(self, x):
        codes, scales = quantize_rows(x, bits=8)
        assert codes.dtype == np.int8
        assert codes.min(initial=0) >= -127 and codes.max(initial=0) <= 127
        neg_codes, neg_scales = quantize_rows(-x, bits=8)
        assert np.array_equal(neg_scales, scales)
        assert np.array_equal(neg_codes, -codes)

    def test_zero_range_rows_round_trip_exactly(self):
        x = np.array([[0.0, 0.0, 0.0], [1.0, -2.0, 0.5]])
        codes, scales = quantize_rows(x, bits=8)
        assert scales[0, 0] == 1.0
        assert np.array_equal(codes[0], np.zeros(3, dtype=np.int8))
        assert np.array_equal(dequantize_rows(codes, scales)[0], x[0])

    def test_subnormal_row_does_not_divide_by_zero(self):
        # max_abs/127 underflows to 0.0 in the fp32 scale cast; the
        # guard pins such rows to scale 1.0 / all-zero codes.
        x = np.full((1, 4), 1e-300)
        codes, scales = quantize_rows(x, bits=8)
        assert scales[0, 0] == 1.0
        assert np.array_equal(codes, np.zeros((1, 4), dtype=np.int8))
        assert np.isfinite(dequantize_rows(codes, scales)).all()

    def test_non_finite_raises_named_error(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(QuantizationRangeError):
                quantize_rows(np.array([[1.0, bad]]), bits=8)

    def test_invalid_bits_rejected(self):
        with pytest.raises(ValueError):
            quantize_rows(np.ones((2, 2)), bits=1)

    def test_empty_input_keeps_keepdims_shape(self):
        codes, scales = quantize_rows(np.empty((0, 5)), bits=8)
        assert codes.shape == (0, 5)
        assert scales.shape == (0, 1)

    def test_wide_bits_use_int32_codes(self):
        codes, _ = quantize_rows(np.ones((2, 3)), bits=12)
        assert codes.dtype == np.int32


class TestProgressiveDecision:
    def test_dominated_row_skips_lsb(self):
        probs = np.array([[0.9, 0.05, 0.05], [0.34, 0.33, 0.33]])
        decision = needs_lsb(probs, threshold=0.5)
        assert not decision[0] and decision[1]

    def test_threshold_edges(self):
        probs = np.array([[0.5, 0.5]])
        assert not needs_lsb(probs, threshold=0.5)[0]  # max == threshold
        assert needs_lsb(probs, threshold=0.51)[0]

    def test_multihead_shape(self):
        probs = np.full((2, 3, 4), 0.25)
        assert needs_lsb(probs, 0.3).shape == (2, 3)

    def test_quantize_attention_inputs_shapes(self):
        rng = np.random.default_rng(3)
        q = rng.normal(size=(2, 3, 8))
        k = rng.normal(size=(2, 5, 8))
        config = QuantConfig(msb_bits=6, lsb_bits=4, progressive=True)
        q_msb, k_msb, q_full, k_full = quantize_attention_inputs(q, k, config)
        assert q_msb.shape == q.shape and k_full.shape == k.shape
        assert np.abs(q_full - q).mean() < np.abs(q_msb - q).mean()


class TestSoftmaxErrorBound:
    """Eq. 2: softmax attenuates score perturbations (error < delta_s)."""

    @given(
        hnp.arrays(np.float64, st.integers(2, 24), elements=st.floats(-5, 5)),
        st.floats(0.001, 0.5),
        st.integers(0, 23),
    )
    @settings(max_examples=100, deadline=None)
    def test_empirical_error_below_bound(self, scores, delta, idx):
        idx = idx % len(scores)
        probs = softmax(scores)
        perturbed = scores.copy()
        perturbed[idx] += delta
        empirical = np.abs(softmax(perturbed) - probs).sum()
        # First-order bound with a curvature allowance for finite delta.
        bound = softmax_error_bound(probs, delta)
        assert empirical <= bound + 0.6 * delta**2
        assert bound < delta  # the paper's strict inequality

    def test_bound_is_tight_at_half(self):
        probs = np.array([0.5, 0.5])
        assert softmax_error_bound(probs, 1.0) == pytest.approx(0.5)


class TestAttentionProbError:
    def test_dominated_rows_have_smaller_error(self):
        rng = np.random.default_rng(4)
        flat = rng.normal(0, 0.5, size=(200, 16))
        sharp = flat.copy()
        sharp[:, 0] += 8.0
        quantizer = LinearQuantizer(4, 0)

        def mean_err(rows):
            q = quantizer.quantize(rows)
            _, errs = attention_prob_error(rows, quantizer.dequantize_full(q))
            return errs.mean()

        assert mean_err(sharp) < mean_err(flat)

    def test_zero_error_for_identical_scores(self):
        scores = np.random.default_rng(5).normal(size=(3, 8))
        max_probs, errors = attention_prob_error(scores, scores)
        assert np.allclose(errors, 0.0)
        assert max_probs.shape == (3,)

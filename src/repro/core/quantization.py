"""Linear symmetric quantization with MSB/LSB split (paper Section III-D).

SpAtten stores attention inputs in DRAM as two separately-fetchable bit
chunks: the most-significant ``msb_bits`` and an optional ``lsb_bits``
refinement ("We store MSBs continuously and LSBs continuously in DRAM, so
that they can be fetched separately").  The on-chip pipeline first
computes attention probabilities from MSBs only; if the resulting
distribution is *flat* (max probability below a threshold), the LSBs are
fetched and the probabilities recomputed once.

This module provides:

* :class:`LinearQuantizer` — symmetric uniform quantizer for a given
  total bitwidth, with exact MSB/LSB code splitting and recomposition.
* :func:`msb_only_dequant` / :func:`full_dequant` — the two reads the
  datapath performs.
* :func:`needs_lsb` — the progressive-quantization decision rule.
* :func:`softmax_error_bound` — the theoretical bound of Eq. 2
  (``error = Δs * 2 p0 (1 - p0) < Δs``), used by property tests.
* :func:`quantize_rows` / :func:`dequantize_rows` — vectorized per-row
  symmetric quantization used by the serving hot path's ``int8``
  numerics tier (per-(head, token) scales on KV cache columns).

Edge-case contract (audited before this module went on the hot path):

* **Zero-range rows** quantize with scale 1.0 to all-zero codes — an
  exact round trip, never a division by zero or NaN.
* **Clamp symmetry**: codes live in ``[-qmax, qmax]`` with
  ``qmax = 2^(bits-1) - 1``; the asymmetric most-negative int code
  (−128 at 8 bits) is never produced, so ``dequantize(quantize(x))``
  is always within ``scale/2`` of a representable value and negation
  commutes with the round trip.
* **Non-finite input** (NaN/±Inf) raises :class:`QuantizationRangeError`
  instead of silently producing undefined integer casts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..config import QuantConfig
from ..nn.functional import softmax

__all__ = [
    "LinearQuantizer",
    "QuantizationRangeError",
    "QuantizedTensor",
    "dequantize_rows",
    "needs_lsb",
    "quantize_attention_inputs",
    "quantize_rows",
    "softmax_error_bound",
    "attention_prob_error",
]


class QuantizationRangeError(ValueError):
    """Input holds values a linear quantizer cannot represent (NaN/Inf).

    Casting NaN or ±Inf through ``np.rint(...).astype(int)`` is
    undefined behaviour (platform-dependent garbage codes), so the
    quantizers reject non-finite input loudly instead of corrupting
    the cache silently.
    """


@dataclass
class QuantizedTensor:
    """Integer codes plus the scale needed to dequantize them.

    ``codes`` are signed integers in ``[-(2^(bits-1)-1), 2^(bits-1)-1]``
    (symmetric range; the most negative code is unused, as is standard
    for symmetric linear quantization).
    """

    codes: np.ndarray  # int32
    scale: float
    bits: int

    @property
    def nbytes_dram(self) -> float:
        """DRAM footprint in bytes (bit-packed, as the hardware stores it)."""
        return self.codes.size * self.bits / 8.0


class LinearQuantizer:
    """Symmetric uniform quantizer with an MSB/LSB split.

    Args:
        msb_bits: width of the first chunk.
        lsb_bits: width of the refinement chunk (0 disables the split).

    The full code is ``round(x / scale)`` with
    ``scale = max|x| / (2^(total_bits-1) - 1)``.  The MSB chunk is the
    arithmetic right shift of the full code by ``lsb_bits``; recomposing
    ``(msb << lsb_bits) | lsb`` recovers the full code exactly, which is
    what the on-chip bitwidth converter does when LSBs arrive.
    """

    def __init__(self, msb_bits: int, lsb_bits: int = 0):
        if msb_bits < 2:
            raise ValueError("msb_bits must be >= 2")
        if lsb_bits < 0:
            raise ValueError("lsb_bits must be >= 0")
        self.msb_bits = msb_bits
        self.lsb_bits = lsb_bits

    @property
    def total_bits(self) -> int:
        return self.msb_bits + self.lsb_bits

    def quantize(self, x: np.ndarray) -> QuantizedTensor:
        """Quantize to the full (MSB+LSB) width.

        Zero-range input (all zeros, empty, or a range so small the
        scale underflows) uses scale 1.0 and zero codes; non-finite
        input raises
        :class:`QuantizationRangeError`.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.size and not np.isfinite(x).all():
            raise QuantizationRangeError(
                "cannot quantize non-finite values (NaN/Inf in input)"
            )
        max_abs = float(np.max(np.abs(x))) if x.size else 0.0
        qmax = 2 ** (self.total_bits - 1) - 1
        # A subnormal range underflows max_abs / qmax to 0.0; it is the
        # zero-range case (zero codes at scale 1.0), not a division by 0.
        scale = max_abs / qmax or 1.0
        codes = np.clip(np.rint(x / scale), -qmax, qmax).astype(np.int32)
        return QuantizedTensor(codes=codes, scale=scale, bits=self.total_bits)

    def split(self, q: QuantizedTensor) -> Tuple[np.ndarray, np.ndarray]:
        """Split full codes into (msb_chunk, lsb_chunk).

        The MSB chunk is an arithmetic shift (sign-preserving); the LSB
        chunk holds the low ``lsb_bits`` as non-negative residues so that
        ``(msb << lsb_bits) + lsb == full_code`` exactly.
        """
        if self.lsb_bits == 0:
            return q.codes.copy(), np.zeros_like(q.codes)
        msb = q.codes >> self.lsb_bits  # arithmetic shift (floor division)
        lsb = q.codes - (msb << self.lsb_bits)
        return msb, lsb

    def dequantize_full(self, q: QuantizedTensor) -> np.ndarray:
        return q.codes.astype(np.float64) * q.scale

    def dequantize_msb(self, q: QuantizedTensor) -> np.ndarray:
        """Value reconstructed from the MSB chunk alone.

        Equivalent to quantization with step ``scale * 2^lsb_bits`` and a
        floor rounding; the mid-rise offset (+0.5 step) halves the bias.
        """
        if self.lsb_bits == 0:
            return self.dequantize_full(q)
        msb, _ = self.split(q)
        step = q.scale * (1 << self.lsb_bits)
        return (msb.astype(np.float64) + 0.5) * step

    def recompose(self, msb: np.ndarray, lsb: np.ndarray, scale: float) -> np.ndarray:
        """Exact value from both chunks (the LSB-refetch path)."""
        codes = (msb.astype(np.int64) << self.lsb_bits) + lsb.astype(np.int64)
        return codes.astype(np.float64) * scale


def needs_lsb(probs: np.ndarray, threshold: float) -> np.ndarray:
    """Per-row progressive-quantization decision (paper Fig. 6).

    A row (one softmax distribution) needs the LSB refetch when its max
    probability is below ``threshold`` — i.e. no dominant token exists,
    so the quantization error is large (Fig. 7) and more bits are needed.

    Returns a boolean array over rows (all axes of ``probs`` except the
    last are treated as row dimensions).
    """
    probs = np.asarray(probs)
    return probs.max(axis=-1) < threshold


def quantize_attention_inputs(
    q: np.ndarray,
    k: np.ndarray,
    config: QuantConfig,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Quantize Q and K, returning (q_msb_only, k_msb_only, q_full, k_full).

    ``*_msb_only`` simulate the first-pass fetch; ``*_full`` the values
    after the optional LSB refetch.  Dequantized floats are returned so
    the caller can run the standard attention math on either version.
    """
    quantizer = LinearQuantizer(config.msb_bits, config.lsb_bits)
    q_q = quantizer.quantize(q)
    k_q = quantizer.quantize(k)
    return (
        quantizer.dequantize_msb(q_q),
        quantizer.dequantize_msb(k_q),
        quantizer.dequantize_full(q_q),
        quantizer.dequantize_full(k_q),
    )


def softmax_error_bound(probs_row: np.ndarray, delta_s: float) -> float:
    """Theoretical total output error for a score perturbation Δs (Eq. 2).

    If score ``s0`` of a token with probability ``p0`` changes by
    ``Δs``, the summed absolute change of all output probabilities is
    ``Δs * 2 p0 (1 - p0)``, which is strictly less than ``Δs`` (softmax
    attenuates quantization noise).  The bound uses the *largest*
    ``p0 (1-p0)`` over the row, i.e. the worst single-token perturbation.
    """
    probs_row = np.asarray(probs_row, dtype=np.float64)
    worst = float(np.max(probs_row * (1.0 - probs_row)))
    return float(abs(delta_s) * 2.0 * worst)


def attention_prob_error(
    scores_fp: np.ndarray, scores_q: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-row (max_prob, mean_abs_prob_error) pairs — the Fig. 7 scatter.

    Args:
        scores_fp: float attention scores ``[..., L1]``.
        scores_q: quantized-then-dequantized scores, same shape.

    Returns:
        ``(max_probs, mean_errors)`` flattened over rows, where
        ``max_probs`` comes from the float probabilities and
        ``mean_errors`` is the mean absolute difference between float and
        quantized probability rows.
    """
    probs_fp = softmax(scores_fp, axis=-1)
    probs_q = softmax(scores_q, axis=-1)
    max_probs = probs_fp.max(axis=-1).reshape(-1)
    mean_errors = np.abs(probs_fp - probs_q).mean(axis=-1).reshape(-1)
    return max_probs, mean_errors


def quantize_rows(
    x: np.ndarray, bits: int = 8, axis: int = -1
) -> Tuple[np.ndarray, np.ndarray]:
    """Vectorized per-row symmetric quantization along ``axis``.

    Every row (slice along ``axis``) gets its own scale
    ``max|row| / qmax`` with ``qmax = 2^(bits-1) - 1``, so one outlier
    token cannot flatten the whole tensor's resolution — the per-row
    analogue of :meth:`LinearQuantizer.quantize`, shaped for the KV
    cache's ``int8`` storage tier (one scale per head × column).

    Args:
        x: float array.
        bits: total signed bitwidth (codes land in ``[-qmax, qmax]``;
            the asymmetric most-negative code is never produced).
        axis: the row axis the scale is shared across.

    Returns:
        ``(codes, scales)`` — ``codes`` is ``int8`` for ``bits <= 8``
        (``int32`` otherwise) with the shape of ``x``; ``scales`` is
        ``float32`` with ``keepdims`` shape, broadcastable against
        ``codes``.  Zero-range rows get scale 1.0 and all-zero codes
        (exact round trip); non-finite input raises
        :class:`QuantizationRangeError`.
    """
    if bits < 2:
        raise ValueError("bits must be >= 2")
    x = np.asarray(x)
    if x.size and not np.isfinite(x).all():
        raise QuantizationRangeError(
            "cannot quantize non-finite values (NaN/Inf in input)"
        )
    qmax = 2 ** (bits - 1) - 1
    if x.size:
        # fmax skips NaN-propagation logic (input is already known
        # finite), about 2x faster than maximum.reduce on this path.
        max_abs = np.fmax.reduce(np.abs(x), axis=axis, keepdims=True)
    else:  # empty input: no rows, but keep the keepdims shape contract
        shape = list(x.shape)
        shape[axis] = 1
        max_abs = np.zeros(shape)
    scales = np.where(max_abs > 0.0, max_abs / qmax, 1.0).astype(np.float32)
    # A subnormal fp64 range can underflow to 0 in the fp32 cast; such
    # rows quantize to zero codes at scale 1.0 (error below fp32 tiny).
    scales[scales == 0.0] = 1.0
    # Codes are derived from the *stored* (fp32) scales so that
    # dequantize_rows(quantize_rows(x)) round-trips within scale/2.
    codes = np.clip(np.rint(x / scales), -qmax, qmax)
    codes = codes.astype(np.int8 if bits <= 8 else np.int32)
    return codes, scales


def dequantize_rows(
    codes: np.ndarray, scales: np.ndarray, dtype=np.float32
) -> np.ndarray:
    """Reconstruct float rows from :func:`quantize_rows` output."""
    return codes.astype(dtype) * scales

"""Numerics policies: the accuracy-for-speed ladder of the serving path.

The repo's original contract was *bit identity* — every serving path had
to reproduce the fp64 looped oracle to the last ulp.  PR 3 measured the
price of that contract: OpenBLAS reductions are padding-variant, so a
bit-identical packed decode core must keep exact-length per-sequence
matmuls and softmax denominators, and the fp64 gelu/tanh FFN tax is
backend-independent — together capping the packed path near ~2×.

SpAtten itself never pays that tax.  The paper's progressive
quantization (Section III-D) runs MSB-only attention first and fetches
LSBs only when the probability distribution is flat: its speed comes
from an *accuracy budget*, not a bit budget.  This module ports that
philosophy to the serving hot path as an explicit, operator-visible
axis:

``exact``
    The default.  fp64 compute, fp64 KV storage, per-sequence
    attention cores at the oracle's widths — bit-identical to the
    looped oracle (asserted by the identity tests and
    ``benchmarks/bench_numerics``).
``fp32``
    fp32 KV planes and an fp32 batched core: masked-softmax attention
    over padded ``[n, h, Lq, Lk]`` planes of batch-resident KV rows
    plus a vectorized fp32 tanh/gelu FFN — the padded design the
    bit-identity contract rules out.  Prompts are summarized by the same
    backend, on the same core, in fp32.
``int8``
    Same batched core, but the KV cache stores int8 codes with per-row
    (head × column) fp32 scales — :func:`repro.core.quantization
    .quantize_rows`.  4× less KV storage than fp32 at a declared
    accuracy budget.  A pruned prompt's store block attends to the
    fp32 K/V it has just computed — its rows held no columns before it
    wrote them — so pruned prompts are summarized in fp32 and their K/V
    quantized from it.  A dense prompt chunk writes its store row first
    and attends over the columns as stored, so it reads dequantized
    int8 K/V, as does a dense row's decode step (from the dequantized
    planes its store keeps): the score GEMM reads fp32 Q
    against dequantized int8 K (fp32 accumulation), exactly what the
    cache can reproduce.  A pruned row's decode step attends on the
    int8 codes themselves, cast to fp32, with the per-column scales
    folded in — the K scales multiply the scores, the V scales the
    probabilities inside the A·V operand — which equals the
    dequantized product up to fp32 rounding.

A tier governs both stages of a request — prompt summarization and
decode — whenever the model is driven through a
:class:`~repro.nn.batched_attention.PackedDecodeBackend` of that tier.
Cumulative token / head importance stays fp64 on every tier (it is the
pruning decisions' ranking truth), and ``prefill`` /
``decode_step_batch`` without a backend remain the fp64 oracle.

Every policy declares its quality budget (max mean KL divergence from
the fp64 oracle's next-token distribution and min argmax-match rate);
``benchmarks/bench_numerics.py`` measures the ladder against those
budgets and fails the build when a tier exceeds its declaration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "NumericsPolicy",
    "EXACT",
    "FP32",
    "INT8",
    "NUMERICS_LADDER",
    "NumericsMismatchError",
    "resolve_numerics",
]


class NumericsMismatchError(ValueError):
    """An executor and the decode backend driving it sit on different tiers.

    The backend would run one tier's arithmetic over a KV cache stored
    (and billed) at another's width — silently losing bit identity
    under ``exact``, or the declared budget under ``fp32``/``int8``.
    """


@dataclass(frozen=True)
class NumericsPolicy:
    """One rung of the numerics ladder.

    Attributes:
        name: ladder tier name (``exact`` / ``fp32`` / ``int8``).
        compute_dtype: dtype of the prompt-pass and decode-step
            hidden-state math.
        kv_dtype: storage dtype of KV cache planes (``np.int8`` stores
            codes plus per-row fp32 scales).  It decides the tier's DRAM
            accounting width (:meth:`storage_bytes_per_element`) and
            whether score GEMMs read int8-rounded KV operands
            (:attr:`quantized_gemm`).
        kl_budget: max mean KL(oracle ‖ tier) over next-token
            distributions tolerated by the quality gate.
        argmax_budget: min fraction of decode steps whose argmax token
            matches the fp64 oracle.
    """

    name: str
    compute_dtype: type
    kv_dtype: type
    kl_budget: float
    argmax_budget: float

    @property
    def is_exact(self) -> bool:
        """Whether this tier promises bit identity with the oracle."""
        return self.name == "exact"

    @property
    def quantized_gemm(self) -> bool:
        """Whether score GEMMs read int8-rounded KV operands (per-row
        scales, fp32 accumulate): the cache stores int8 codes."""
        return np.dtype(self.kv_dtype) == np.int8

    def storage_bytes_per_element(self, default: int) -> int:
        """DRAM accounting width per cached scalar: the storage dtype's,
        or the model's declared ``default`` on the exact tier, which
        changes no accounting."""
        if self.is_exact:
            return default
        return np.dtype(self.kv_dtype).itemsize


#: Bit-identical fp64 — the contract every pre-existing test asserts.
EXACT = NumericsPolicy(
    name="exact",
    compute_dtype=np.float64,
    kv_dtype=np.float64,
    kl_budget=0.0,
    argmax_budget=1.0,
)

#: fp32 KV + fp32 batched masked-softmax decode core.
FP32 = NumericsPolicy(
    name="fp32",
    compute_dtype=np.float32,
    kv_dtype=np.float32,
    kl_budget=5e-4,
    argmax_budget=0.995,
)

#: int8 KV codes (per-row fp32 scales) + fp32 score GEMMs over the
#: int8-rounded K (dequantized, or codes with the scales folded in).
INT8 = NumericsPolicy(
    name="int8",
    compute_dtype=np.float32,
    kv_dtype=np.int8,
    kl_budget=5e-2,
    argmax_budget=0.99,
)

#: Ladder order, fastest-last; also the CLI choices for ``--numerics``.
NUMERICS_LADDER = ("exact", "fp32", "int8")

_POLICIES = {"exact": EXACT, "fp32": FP32, "int8": INT8}


def resolve_numerics(
    numerics: Union[str, NumericsPolicy, None]
) -> NumericsPolicy:
    """Resolve a tier name (or policy, or None → exact) to a policy."""
    if numerics is None:
        return EXACT
    if isinstance(numerics, NumericsPolicy):
        return numerics
    try:
        return _POLICIES[numerics]
    except KeyError:
        raise ValueError(
            f"unknown numerics tier {numerics!r}; "
            f"expected one of {NUMERICS_LADDER}"
        ) from None

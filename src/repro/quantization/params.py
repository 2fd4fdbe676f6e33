"""Quantization parameters and fixed-point requantization arithmetic.

The requantization path mirrors TFLite/CMSIS-NN: a real-valued multiplier
``M ∈ (0, 1)`` is decomposed into a 31-bit integer mantissa and a shift, and
applied with 64-bit integer arithmetic and round-half-away-from-zero. This is
the arithmetic an MCU actually executes, so quantized outputs here are
bit-comparable to a device run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import QuantizationError


def qrange(bits: int) -> Tuple[int, int]:
    """Signed integer range for a bit width (e.g. 8 → (-128, 127))."""
    if bits < 2 or bits > 32:
        raise QuantizationError(f"unsupported bit width {bits}")
    return -(2 ** (bits - 1)), 2 ** (bits - 1) - 1


@dataclass(frozen=True)
class QuantParams:
    """Affine quantization parameters: ``real = scale * (q - zero_point)``.

    ``scale`` is a scalar for per-tensor quantization or a 1-D array for
    per-channel (last axis) quantization; per-channel zero points are 0.
    """

    scale: np.ndarray
    zero_point: int
    bits: int = 8

    def __post_init__(self) -> None:
        # Scales round-trip through float32: model files store float32
        # scales (as TFLite flatbuffers do), so keeping float32 precision
        # in memory makes serialization bit-exact.
        scale32 = np.atleast_1d(np.asarray(self.scale, dtype=np.float32))
        object.__setattr__(self, "scale", scale32.astype(np.float64))
        if np.any(self.scale <= 0):
            raise QuantizationError("quantization scale must be positive")
        qmin, qmax = qrange(self.bits)
        if not (qmin <= self.zero_point <= qmax):
            raise QuantizationError(
                f"zero point {self.zero_point} outside [{qmin}, {qmax}] for {self.bits}-bit"
            )

    @property
    def per_channel(self) -> bool:
        return self.scale.size > 1

    @property
    def qmin(self) -> int:
        return qrange(self.bits)[0]

    @property
    def qmax(self) -> int:
        return qrange(self.bits)[1]


def affine_params_from_range(
    low: float, high: float, bits: int = 8
) -> QuantParams:
    """Asymmetric (activation) parameters covering [low, high].

    The range is nudged to include zero exactly, as TFLite requires, so that
    zero padding is representable without error.
    """
    low = min(float(low), 0.0)
    high = max(float(high), 0.0)
    qmin, qmax = qrange(bits)
    if high == low:
        high = low + 1e-6
    scale = (high - low) / (qmax - qmin)
    zero_point = int(round(qmin - low / scale))
    zero_point = max(qmin, min(qmax, zero_point))
    return QuantParams(scale=np.array([scale]), zero_point=zero_point, bits=bits)


def symmetric_params_from_absmax(absmax: np.ndarray, bits: int = 8) -> QuantParams:
    """Symmetric (weight) parameters from per-channel absolute maxima."""
    absmax = np.atleast_1d(np.asarray(absmax, dtype=np.float64))
    absmax = np.maximum(absmax, 1e-8)
    _, qmax = qrange(bits)
    return QuantParams(scale=absmax / qmax, zero_point=0, bits=bits)


def quantize(values: np.ndarray, params: QuantParams) -> np.ndarray:
    """Real values → integer grid (stored in the smallest numpy int type)."""
    scale = params.scale if params.scale.size == 1 else params.scale
    q = np.round(np.asarray(values, dtype=np.float64) / scale) + params.zero_point
    q = np.clip(q, params.qmin, params.qmax)
    dtype = np.int8 if params.bits <= 8 else np.int16 if params.bits <= 16 else np.int32
    return q.astype(dtype)


def dequantize(q: np.ndarray, params: QuantParams) -> np.ndarray:
    """Integer grid → real values (float32)."""
    scale = params.scale if params.scale.size == 1 else params.scale
    return ((np.asarray(q, dtype=np.float64) - params.zero_point) * scale).astype(np.float32)


def quantize_multiplier(real_multiplier):
    """Decompose positive real multipliers into ``(mantissa_q31, shift)``.

    ``real ≈ mantissa * 2^(shift - 31)`` with mantissa in [2^30, 2^31).
    This matches TFLite's ``QuantizeMultiplier``. A scalar gives two ints;
    an array (one multiplier per channel) gives two int64 arrays, which an
    op computes once and hands to :func:`requantize` on every invoke.
    """
    real = np.asarray(real_multiplier, dtype=np.float64)
    if np.any(real <= 0):
        raise QuantizationError("requantization multiplier must be positive")
    mantissa, exponent = np.frexp(real)
    mantissa_q31 = np.round(mantissa * (1 << 31)).astype(np.int64)
    overflow = mantissa_q31 == (1 << 31)  # rounding overflow: 0.5 → 1.0
    mantissa_q31, exponent = mantissa_q31 >> overflow, exponent.astype(np.int64) + overflow
    if real.ndim == 0:
        return int(mantissa_q31), int(exponent)
    return mantissa_q31, exponent


def multiply_by_quantized_multiplier(acc: np.ndarray, mantissa_q31, shift) -> np.ndarray:
    """Apply fixed-point multipliers to int32 accumulators (vectorized).

    Equivalent to TFLite's ``MultiplyByQuantizedMultiplier``: a rounding Q31
    multiply, then a left shift (``shift > 0``) or a right shift rounding
    half away from zero (``shift < 0``). ``mantissa_q31`` and ``shift`` are
    scalars or per-channel arrays over the last axis of ``acc``.
    """
    shift = np.asarray(shift, dtype=np.int64)
    # TFLite adds 2^30 (1 - 2^30 to a negative product) and truncates toward
    # zero: for either sign that is floor((p + 2^30) / 2^31). Every step is
    # an unmasked in-place ufunc on one buffer.
    out = np.asarray(acc, dtype=np.int64) * mantissa_q31
    out += 1 << 30
    out >>= 31
    # Past 33 bits every int32 accumulator rounds to 0; capping the right
    # shift at 62 keeps 2^(right-1) within int64.
    left, right = np.maximum(shift, 0), np.clip(-shift, 0, 62)
    if left.any():
        out <<= left
    if right.any():
        # Half away from zero: floor((h + 2^(right-1) - [h < 0]) / 2^right).
        negative = out >> 63  # -1 where h < 0, else 0
        if not right.all():
            negative &= np.where(right > 0, -1, 0)
        out += negative
        out += (np.int64(1) << right) >> 1
        out >>= right
    return out


def requantize(
    acc: np.ndarray,
    multiplier,
    output_zero_point: int,
    bits: int = 8,
) -> np.ndarray:
    """int32 accumulators → int8/int4 outputs via fixed-point multipliers.

    ``multiplier`` is the ``(mantissa, shift)`` pair :func:`quantize_multiplier`
    returns for ``input_scale / output_scale``: one entry, or one per
    channel (last axis of ``acc``). Saturates to the ``bits`` range.
    """
    mantissa, shift = multiplier
    if np.size(mantissa) not in (1, acc.shape[-1]):
        raise QuantizationError(
            f"per-channel scale count {np.size(mantissa)} != channels {acc.shape[-1]}"
        )
    out = multiply_by_quantized_multiplier(acc, mantissa, shift)
    out += output_zero_point
    qmin, qmax = qrange(bits)
    np.clip(out, qmin, qmax, out=out)
    return out.astype(np.int8 if bits <= 8 else np.int16)

"""The benchmark's own reference computations, written apart from the program.

Nothing here calls ``repro.tensor``, ``repro.quantization`` or
``repro.runtime`` code. The graphs are read as plain data (op kinds,
attributes, weights, scales, zero points); the arithmetic is redone here:

* :func:`float_forward` — float64 forward pass of an exported float graph;
* :func:`int8_forward` — the integer forward pass the quantized kernels
  document: zero-point-subtracted integer accumulation, per-channel Q31
  multipliers with round-half-away-from-zero shifts, round-half-away-from-
  zero average pooling, float-rescale add, input quantize and output
  dequantize;
* :func:`hypervolume_2d`, :func:`dominates`, :func:`arch_params` — the
  search-side references.

``selftest.py`` pins each against hand-computed cases.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

SUPPORTED_OPS = ("conv2d", "depthwise_conv2d", "dense", "global_avg_pool", "add")


# ----------------------------------------------------------------------
# Geometry shared by both passes
# ----------------------------------------------------------------------
def _same_pad(size: int, kernel: int, stride: int) -> Tuple[int, int]:
    out = (size + stride - 1) // stride
    total = max((out - 1) * stride + kernel - size, 0)
    return total // 2, total - total // 2


def _geometry(op) -> Tuple[int, int, int, int, str]:
    attrs = op.attrs
    kh = int(attrs.get("kernel_h", attrs.get("kernel", 1)))
    kw = int(attrs.get("kernel_w", attrs.get("kernel", kh)))
    sh = int(attrs.get("stride_h", attrs.get("stride", 1)))
    sw = int(attrs.get("stride_w", attrs.get("stride", sh)))
    return kh, kw, sh, sw, str(attrs.get("padding", "same"))


def windows(x: np.ndarray, kh: int, kw: int, sh: int, sw: int, padding: str,
            fill: float) -> np.ndarray:
    """(N, OH, OW, KH, KW, C) copy of every receptive field, padded by ``fill``."""
    n, h, w, c = x.shape
    if padding == "same":
        (top, bottom), (left, right) = _same_pad(h, kh, sh), _same_pad(w, kw, sw)
    elif padding == "valid":
        top = bottom = left = right = 0
    else:
        raise ValueError(f"unknown padding {padding!r}")
    padded = np.full((n, h + top + bottom, w + left + right, c), fill, dtype=x.dtype)
    padded[:, top:top + h, left:left + w, :] = x
    oh = (padded.shape[1] - kh) // sh + 1
    ow = (padded.shape[2] - kw) // sw + 1
    out = np.empty((n, oh, ow, kh, kw, c), dtype=x.dtype)
    for i in range(kh):
        for j in range(kw):
            out[:, :, :, i, j, :] = padded[:, i:i + sh * (oh - 1) + 1:sh,
                                           j:j + sw * (ow - 1) + 1:sw, :]
    return out


def _check_supported(graph) -> None:
    for op in graph.ops:
        if op.kind not in SUPPORTED_OPS:
            raise ValueError(f"reference has no {op.kind!r} op (in {graph.name})")
    if len(graph.inputs) != 1 or len(graph.outputs) != 1:
        raise ValueError("reference passes take single-input single-output graphs")


# ----------------------------------------------------------------------
# Float
# ----------------------------------------------------------------------
def _float_act(x: np.ndarray, activation) -> np.ndarray:
    if activation is None:
        return x
    if activation == "relu":
        return np.maximum(x, 0.0)
    if activation == "relu6":
        return np.minimum(np.maximum(x, 0.0), 6.0)
    raise ValueError(f"unknown activation {activation!r}")


def float_forward(graph, batch: np.ndarray) -> np.ndarray:
    """float64 forward pass of a float graph over an (N, *input) batch."""
    _check_supported(graph)
    values: Dict[str, np.ndarray] = {graph.inputs[0]: np.asarray(batch, dtype=np.float64)}
    for op in graph.ops:
        x = values[op.inputs[0]]
        activation = op.attrs.get("activation")
        if op.kind in ("conv2d", "depthwise_conv2d", "dense"):
            weight = np.asarray(graph.tensors[op.inputs[1]].data, dtype=np.float64)
            bias = (np.asarray(graph.tensors[op.inputs[2]].data, dtype=np.float64)
                    if len(op.inputs) > 2 else 0.0)
            if op.kind == "dense":
                out = x @ weight
            else:
                kh, kw, sh, sw, padding = _geometry(op)
                cols = windows(x, kh, kw, sh, sw, padding, 0.0)
                if op.kind == "conv2d":
                    n, oh, ow = cols.shape[:3]
                    out = (cols.reshape(n * oh * ow, -1) @ weight.reshape(-1, weight.shape[-1])
                           ).reshape(n, oh, ow, -1)
                else:
                    out = np.einsum("nhwijc,ijc->nhwc", cols, weight)
            out = _float_act(out + bias, activation)
        elif op.kind == "global_avg_pool":
            out = x.mean(axis=(1, 2))
        else:  # add
            out = _float_act(x + values[op.inputs[1]], activation)
        values[op.outputs[0]] = out
    return values[graph.outputs[0]]


def float_matches(output: np.ndarray, reference: np.ndarray, rtol: float) -> bool:
    """Close relative to the reference output's own scale (max |value|)."""
    scale = float(np.max(np.abs(reference)))
    if scale == 0.0 or not np.all(np.isfinite(output)):
        return bool(scale == 0.0 and np.all(output == 0))
    return float(np.max(np.abs(output.astype(np.float64) - reference))) <= rtol * scale


# ----------------------------------------------------------------------
# Integer arithmetic
# ----------------------------------------------------------------------
def q31_multiplier(real: float) -> Tuple[int, int]:
    """(mantissa, exponent) with real = mantissa * 2**(exponent - 31),
    mantissa in [2**30, 2**31); a mantissa that rounds up to 2**31 is halved."""
    if not real > 0:
        raise ValueError("multiplier must be positive")
    fraction, exponent = math.frexp(real)
    mantissa = round(fraction * 2.0 ** 31)
    if mantissa == 2 ** 31:
        mantissa //= 2
        exponent += 1
    return int(mantissa), int(exponent)


def rounding_doubling_high_mul(acc: np.ndarray, mantissa: int) -> np.ndarray:
    """round(acc * mantissa / 2**31), halves away from zero, via an int64
    product nudged by 2**30 and truncated toward zero."""
    product = np.asarray(acc, dtype=np.int64) * np.int64(mantissa)
    sign = np.where(product >= 0, 1, -1).astype(np.int64)
    # (|p| + 2**30 - (p < 0)) // 2**31 == trunc((p + nudge) / 2**31) in magnitude.
    magnitude = np.abs(product) + (1 << 30) - (product < 0)
    return sign * (magnitude // (1 << 31))


def rounding_right_shift(x: np.ndarray, shift: int) -> np.ndarray:
    """x / 2**shift rounded half away from zero (shift >= 0)."""
    x = np.asarray(x, dtype=np.int64)
    if shift == 0:
        return x
    sign = np.where(x >= 0, 1, -1).astype(np.int64)
    return sign * ((np.abs(x) + (1 << (shift - 1))) >> shift)


def apply_multiplier(acc: np.ndarray, real: float) -> np.ndarray:
    mantissa, exponent = q31_multiplier(real)
    high = rounding_doubling_high_mul(acc, mantissa)
    if exponent <= 0:
        return rounding_right_shift(high, -exponent)
    return high * (1 << exponent)


def rounded_mean(total: np.ndarray, count: int) -> np.ndarray:
    """Integer mean, halves away from zero."""
    total = np.asarray(total, dtype=np.int64)
    sign = np.where(total >= 0, 1, -1).astype(np.int64)
    return sign * ((np.abs(total) + count // 2) // count)


def _int_bounds(activation, scale: float, zero_point: int) -> Tuple[int, int]:
    low, high = -128, 127
    if activation is None:
        return low, high
    if activation == "relu":
        return max(low, zero_point), high
    if activation == "relu6":
        return max(low, zero_point), min(high, int(round(6.0 / scale)) + zero_point)
    raise ValueError(f"unknown activation {activation!r}")


def _integer_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact int64 product of two integer matrices.

    Products of int8-range operands summed over the reduction stay far
    below 2**53, so float64 BLAS computes them exactly; the bound is
    checked, not assumed.
    """
    bound = float(np.abs(a).max(initial=0)) * float(np.abs(b).max(initial=0)) * a.shape[-1]
    if bound >= 2.0 ** 52:
        raise ValueError("integer accumulation would not be exact in float64")
    return np.rint(a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)


def _per_channel_requantize(acc: np.ndarray, in_scale: float, w_scales: np.ndarray,
                            out_scale: float) -> np.ndarray:
    out = np.empty(acc.shape, dtype=np.int64)
    w_scales = np.atleast_1d(w_scales)
    channels = acc.shape[-1]
    for c in range(channels):
        w_scale = float(w_scales[c] if w_scales.size > 1 else w_scales[0])
        out[..., c] = apply_multiplier(acc[..., c], in_scale * w_scale / out_scale)
    return out


def int8_forward(graph, batch: np.ndarray) -> np.ndarray:
    """Integer forward pass of an int8 graph; float in, dequantized float32 out."""
    _check_supported(graph)
    tensors = graph.tensors
    in_spec = tensors[graph.inputs[0]]
    in_scale, in_zp = float(in_spec.quant.scale[0]), int(in_spec.quant.zero_point)
    quantized = np.round(np.asarray(batch, dtype=np.float64) / in_scale) + in_zp
    values: Dict[str, np.ndarray] = {
        graph.inputs[0]: np.clip(quantized, -128, 127).astype(np.int64)
    }
    for op in graph.ops:
        x = values[op.inputs[0]]
        x_params = tensors[op.inputs[0]].quant
        out_params = tensors[op.outputs[0]].quant
        out_scale, out_zp = float(out_params.scale[0]), int(out_params.zero_point)
        low, high = _int_bounds(op.attrs.get("activation"), out_scale, out_zp)
        if op.kind in ("conv2d", "depthwise_conv2d", "dense"):
            w_spec = tensors[op.inputs[1]]
            weight = np.asarray(w_spec.data, dtype=np.int64)
            bias = (np.asarray(tensors[op.inputs[2]].data, dtype=np.int64)
                    if len(op.inputs) > 2 else np.zeros(weight.shape[-1], dtype=np.int64))
            zp = int(x_params.zero_point)
            if op.kind == "dense":
                acc = _integer_matmul(x - zp, weight)
            else:
                kh, kw, sh, sw, padding = _geometry(op)
                cols = windows(x, kh, kw, sh, sw, padding, zp) - zp
                n, oh, ow = cols.shape[:3]
                if op.kind == "conv2d":
                    acc = _integer_matmul(cols.reshape(n * oh * ow, -1),
                                          weight.reshape(-1, weight.shape[-1]))
                    acc = acc.reshape(n, oh, ow, -1)
                else:
                    acc = np.einsum("nhwijc,ijc->nhwc", cols, weight)
            requantized = _per_channel_requantize(
                acc + bias, float(x_params.scale[0]), w_spec.quant.scale, out_scale
            )
            out = np.clip(requantized + out_zp, -128, 127)
        elif op.kind == "global_avg_pool":
            count = x.shape[1] * x.shape[2]
            out = rounded_mean(x.sum(axis=(1, 2)), count)
        else:  # add: rescale both operands to real values, round half to even
            b = values[op.inputs[1]]
            b_params = tensors[op.inputs[1]].quant
            real = ((x.astype(np.float64) - x_params.zero_point) * x_params.scale[0]
                    + (b.astype(np.float64) - b_params.zero_point) * b_params.scale[0])
            out = np.round(real / out_scale) + out_zp
        values[op.outputs[0]] = np.clip(out, low, high).astype(np.int64)
    out_spec = tensors[graph.outputs[0]]
    q = values[graph.outputs[0]].astype(np.float64)
    return ((q - out_spec.quant.zero_point) * float(out_spec.quant.scale[0])).astype(np.float32)


# ----------------------------------------------------------------------
# Search-side references
# ----------------------------------------------------------------------
def dominates(a: Tuple[float, Sequence[float]], b: Tuple[float, Sequence[float]]) -> bool:
    """Score maximized, costs minimized; no worse everywhere, better somewhere."""
    (score_a, costs_a), (score_b, costs_b) = a, b
    no_worse = score_a >= score_b and all(x <= y for x, y in zip(costs_a, costs_b))
    better = score_a > score_b or any(x < y for x, y in zip(costs_a, costs_b))
    return no_worse and better


def hypervolume_2d(points: Sequence[Tuple[float, float]], ops_cap: float) -> float:
    """Area dominated by (accuracy, ops) points, from accuracy 0 up and from
    each point's ops out to ``ops_cap``; ops in millions (accuracy x Mops)."""
    usable = sorted((ops, acc) for acc, ops in points if acc > 0 and ops < ops_cap)
    area, best = 0.0, 0.0
    for position, (ops, acc) in enumerate(usable):
        best = max(best, acc)
        right = usable[position + 1][0] if position + 1 < len(usable) else ops_cap
        area += best * (right - ops)
    return area / 1e6


def arch_params(arch) -> int:
    """Weight and bias scalars of a conv/depthwise/dense stack."""
    channels = int(arch.input_shape[-1])
    total = 0
    for layer in arch.layers:
        kind = type(layer).__name__
        if kind == "ConvSpec":
            kh, kw = layer.kernel
            total += kh * kw * channels * layer.out_channels + layer.out_channels
            channels = layer.out_channels
        elif kind == "DWConvSpec":
            kh, kw = layer.kernel
            total += kh * kw * channels + channels
        elif kind == "DenseSpec":
            total += channels * layer.units + layer.units
            channels = layer.units
        elif kind not in ("DropoutSpec", "GlobalPoolSpec"):
            raise ValueError(f"arch_params has no rule for {kind}")
    return total


def front_problems(front: List[Tuple[str, float, Tuple[float, ...]]],
                   evaluated: List[Tuple[str, float, Tuple[float, ...]]]) -> List[str]:
    """Pairwise front check: members mutually non-dominated, every evaluated
    point on the front or dominated by a member."""
    problems = []
    for name_a, score_a, costs_a in front:
        for name_b, score_b, costs_b in front:
            if name_a != name_b and dominates((score_a, costs_a), (score_b, costs_b)):
                problems.append(f"front member {name_b} is dominated by {name_a}")
    names = {name for name, _, _ in front}
    for name, score, costs in evaluated:
        if name in names:
            continue
        if not any(dominates((s, c), (score, costs)) for _, s, c in front):
            problems.append(f"{name} is neither on the front nor dominated by it")
    return problems

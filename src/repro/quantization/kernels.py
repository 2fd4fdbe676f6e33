"""Integer kernels (the CMSIS-NN analogues), lowered onto the float kernels.

They execute quantized operators with the arithmetic an MCU uses: int8 (or
int4) operands, exact integer accumulation, fixed-point requantization and
fused activation clamping. Conv, depthwise and dense run on the float
path's kernels in :mod:`repro.tensor.gemm` (im2col plus a BLAS GEMM, the
shift-and-add depthwise loop, a matmul). The input enters as
``x_q - zero_point`` in float32, so their zero padding is TFLite's
zero-point padding, and the integer weights enter as float32. This is
exact: with reduction length K, every product and partial sum is an integer
of magnitude at most K·max|x_q - zp|·max|w_q|, and float32 holds every
integer below 2^24. An op whose bound reaches 2^24 takes float64 weights,
exact below 2^53. The int32 bias and a Q31 requantization with multipliers
decomposed once per op finish the op, bit for bit as an int32-accumulating
integer kernel would.

All spatial kernels use NHWC layout and TF padding semantics, consistent
with the float path.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import QuantizationError
from repro.quantization.params import QuantParams, qrange, quantize_multiplier, requantize
from repro.tensor import gemm
from repro.tensor.conv import IntOrPair, extract_patches, resolve_padding


def _activation_bounds(
    activation: Optional[str], out_params: QuantParams
) -> Tuple[int, int]:
    """Integer clamp bounds implementing a fused activation."""
    qmin, qmax = qrange(out_params.bits)
    if activation is None:
        return qmin, qmax
    scale = float(out_params.scale[0])
    zp = out_params.zero_point
    if activation == "relu":
        return max(qmin, zp), qmax
    if activation == "relu6":
        upper = int(round(6.0 / scale)) + zp
        return max(qmin, zp), min(qmax, upper)
    raise QuantizationError(f"unsupported fused activation {activation!r}")


def _pad_quantized(x: np.ndarray, pad_h, pad_w, zero_point: int) -> np.ndarray:
    if pad_h == (0, 0) and pad_w == (0, 0):
        return x
    return np.pad(x, ((0, 0), pad_h, pad_w, (0, 0)), constant_values=zero_point)


class IntLinear:
    """A quantized ``conv2d``, ``depthwise_conv2d`` or ``dense`` op, bound once.

    Holds what every invoke reuses: the weights in the float type that keeps
    the op exact, the int64 bias, the per-channel Q31 multipliers and the
    fused activation's clamp range. Calling it runs the op on a batch.
    """

    def __init__(self, kind: str, w_q: np.ndarray, bias_q: np.ndarray, in_params: QuantParams,
                 w_params: QuantParams, out_params: QuantParams, stride: IntOrPair = 1,
                 padding: str = "same", activation: Optional[str] = None) -> None:
        self.kind, self.stride, self.padding = kind, stride, padding
        self.zero_point, self.out_params = in_params.zero_point, out_params
        qmin, qmax = qrange(in_params.bits)
        depth = int(np.prod(w_q.shape[:-1]))  # K: KH·KW·C, KH·KW or IN
        bound = (depth * max(qmax - self.zero_point, self.zero_point - qmin)
                 * int(np.abs(w_q.astype(np.int64)).max(initial=0)))
        self.weight = w_q.astype(np.float32 if bound < 2 ** 24 else np.float64)
        self.bias = np.asarray(bias_q, dtype=np.int64)
        self.multiplier = quantize_multiplier(
            in_params.scale[0] * w_params.scale / float(out_params.scale[0]))
        self.low, self.high = _activation_bounds(activation, out_params)

    def __call__(self, x_q: np.ndarray) -> np.ndarray:
        x = np.subtract(x_q, self.zero_point, dtype=np.float32)
        if self.kind == "dense":
            acc = x @ self.weight
        elif self.kind == "conv2d":
            acc, cache = gemm.conv2d_forward(x, self.weight, self.stride, self.padding)
            cache.release()
        else:
            acc, _ = gemm.depthwise_conv2d_forward(x, self.weight, self.stride, self.padding)
        # Exact: every accumulator is an integer-valued float.
        acc = np.add(acc, self.bias, dtype=np.int64, casting="unsafe")
        out = requantize(acc, self.multiplier, self.out_params.zero_point, self.out_params.bits)
        return np.clip(out, self.low, self.high, out=out)


def conv2d_int(x_q: np.ndarray, w_q: np.ndarray, bias_q: np.ndarray, in_params: QuantParams,
               w_params: QuantParams, out_params: QuantParams, stride: IntOrPair = 1,
               padding: str = "same", activation: Optional[str] = None) -> np.ndarray:
    """Quantized 2-D convolution.

    Parameters
    ----------
    x_q: (N, H, W, C) integer input.
    w_q: (KH, KW, C, OC) integer weights (per-channel symmetric over OC).
    bias_q: (OC,) int32 bias, pre-scaled by ``in_scale * w_scale``.
    """
    return IntLinear("conv2d", w_q, bias_q, in_params, w_params, out_params, stride, padding,
                     activation)(x_q)


def depthwise_conv2d_int(x_q: np.ndarray, w_q: np.ndarray, bias_q: np.ndarray,
                         in_params: QuantParams, w_params: QuantParams, out_params: QuantParams,
                         stride: IntOrPair = 1, padding: str = "same",
                         activation: Optional[str] = None) -> np.ndarray:
    """Quantized depthwise convolution; weights are (KH, KW, C)."""
    return IntLinear("depthwise_conv2d", w_q, bias_q, in_params, w_params, out_params, stride,
                     padding, activation)(x_q)


def dense_int(x_q: np.ndarray, w_q: np.ndarray, bias_q: np.ndarray, in_params: QuantParams,
              w_params: QuantParams, out_params: QuantParams,
              activation: Optional[str] = None) -> np.ndarray:
    """Quantized fully connected layer; weights are (IN, OUT)."""
    return IntLinear("dense", w_q, bias_q, in_params, w_params, out_params,
                     activation=activation)(x_q)


def avg_pool_int(
    x_q: np.ndarray, pool: int, stride: int, padding: str, params: QuantParams
) -> np.ndarray:
    """Quantized average pooling (same params in and out, as in TFLite)."""
    pad_h, pad_w = resolve_padding(x_q.shape[1], x_q.shape[2], pool, pool, stride, padding)
    padded = _pad_quantized(x_q, pad_h, pad_w, params.zero_point)
    patches = extract_patches(padded, pool, pool, stride).astype(np.int64)
    total = patches.sum(axis=(-2, -1))
    count = pool * pool
    avg = np.where(total >= 0, (total + count // 2) // count, -((-total + count // 2) // count))
    return np.clip(avg, params.qmin, params.qmax).astype(x_q.dtype)


def global_avg_pool_int(x_q: np.ndarray, params: QuantParams) -> np.ndarray:
    """Quantized global average pooling → (N, C)."""
    total = x_q.astype(np.int64).sum(axis=(1, 2))
    count = x_q.shape[1] * x_q.shape[2]
    avg = np.where(total >= 0, (total + count // 2) // count, -((-total + count // 2) // count))
    return np.clip(avg, params.qmin, params.qmax).astype(x_q.dtype)


def max_pool_int(x_q: np.ndarray, pool: int, stride: int, padding: str, params: QuantParams) -> np.ndarray:
    """Quantized max pooling (no requantization needed)."""
    pad_h, pad_w = resolve_padding(x_q.shape[1], x_q.shape[2], pool, pool, stride, padding)
    padded = _pad_quantized(x_q, pad_h, pad_w, params.qmin)
    patches = extract_patches(padded, pool, pool, stride)
    return patches.max(axis=(-2, -1)).astype(x_q.dtype)


def add_int(
    a_q: np.ndarray,
    b_q: np.ndarray,
    a_params: QuantParams,
    b_params: QuantParams,
    out_params: QuantParams,
    activation: Optional[str] = None,
) -> np.ndarray:
    """Quantized elementwise add with independent input scales.

    Uses the float-rescale formulation (TFLite reference semantics) and
    clamps to the fused activation range.
    """
    a_real = (a_q.astype(np.float64) - a_params.zero_point) * a_params.scale[0]
    b_real = (b_q.astype(np.float64) - b_params.zero_point) * b_params.scale[0]
    out = np.round((a_real + b_real) / out_params.scale[0]) + out_params.zero_point
    lo, hi = _activation_bounds(activation, out_params)
    return np.clip(out, lo, hi).astype(np.int8 if out_params.bits <= 8 else np.int16)


def softmax_int(x_q: np.ndarray, in_params: QuantParams) -> np.ndarray:
    """Quantized softmax with the fixed TFLite output params (1/256, -128).

    Computed through a dequantize → float softmax → requantize reference
    path, which is within 1 LSB of the device LUT implementation.
    """
    real = (x_q.astype(np.float64) - in_params.zero_point) * in_params.scale[0]
    shifted = real - real.max(axis=-1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=-1, keepdims=True)
    q = np.round(probs / (1.0 / 256.0)) - 128
    return np.clip(q, -128, 127).astype(np.int8)

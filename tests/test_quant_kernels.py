"""Integer reference kernels vs the float path."""

import numpy as np
import pytest

from repro.errors import QuantizationError
from repro.quantization import (
    affine_params_from_range,
    dequantize,
    quantize,
    symmetric_params_from_absmax,
)
from repro.quantization import kernels as qk
from repro.quantization.kernels import IntLinear
from repro.quantization.params import (
    QuantParams,
    multiply_by_quantized_multiplier,
    qrange,
    quantize_multiplier,
    requantize,
)
from repro.tensor import conv as fconv


def make_activation_params(data, bits=8):
    return affine_params_from_range(float(data.min()), float(data.max()), bits=bits)


def quantize_weights(w, bits=8):
    axes = tuple(range(w.ndim - 1))
    params = symmetric_params_from_absmax(np.abs(w).max(axis=axes), bits=bits)
    return quantize(w, params), params


def quantize_bias(b, in_params, w_params):
    effective = in_params.scale[0] * w_params.scale
    return np.round(b / effective).astype(np.int32)


class TestConvInt:
    @pytest.mark.parametrize("bits", [8, 4])
    def test_close_to_float(self, rng, bits):
        x = rng.normal(size=(2, 6, 6, 3)).astype(np.float32)
        w = (rng.normal(size=(3, 3, 3, 4)) * 0.3).astype(np.float32)
        b = (rng.normal(size=4) * 0.1).astype(np.float32)
        float_out, _ = fconv.conv2d_forward(x, w, 1, "same")
        float_out = float_out + b

        in_params = make_activation_params(x, bits)
        w_q, w_params = quantize_weights(w, bits)
        out_params = make_activation_params(float_out, bits)
        x_q = quantize(x, in_params)
        b_q = quantize_bias(b, in_params, w_params)
        out_q = qk.conv2d_int(x_q, w_q, b_q, in_params, w_params, out_params, 1, "same")
        recovered = dequantize(out_q, out_params)
        tolerance = (4 if bits == 8 else 3) * float(np.max(out_params.scale))
        assert np.abs(recovered - float_out).max() < tolerance

    def test_relu_fused_clamps_at_zero(self, rng):
        x = rng.normal(size=(1, 4, 4, 2)).astype(np.float32)
        w = rng.normal(size=(3, 3, 2, 2)).astype(np.float32)
        b = np.zeros(2, dtype=np.float32)
        in_params = make_activation_params(x)
        w_q, w_params = quantize_weights(w)
        out_params = affine_params_from_range(-3.0, 3.0)
        x_q = quantize(x, in_params)
        out = qk.conv2d_int(
            x_q, w_q, quantize_bias(b, in_params, w_params),
            in_params, w_params, out_params, activation="relu",
        )
        recovered = dequantize(out, out_params)
        assert recovered.min() >= -1e-6

    def test_relu6_fused_clamps_at_six(self, rng):
        x = np.full((1, 3, 3, 1), 4.0, dtype=np.float32)
        w = np.ones((1, 1, 1, 1), dtype=np.float32) * 10.0
        in_params = affine_params_from_range(0.0, 4.0)
        w_q, w_params = quantize_weights(w)
        out_params = affine_params_from_range(0.0, 40.0)
        out = qk.conv2d_int(
            quantize(x, in_params), w_q, np.zeros(1, np.int32),
            in_params, w_params, out_params, activation="relu6",
        )
        assert dequantize(out, out_params).max() <= 6.2

    def test_unknown_activation_raises(self, rng):
        x = np.zeros((1, 3, 3, 1), dtype=np.float32)
        w = np.ones((1, 1, 1, 1), dtype=np.float32)
        in_params = affine_params_from_range(-1, 1)
        w_q, w_params = quantize_weights(w)
        with pytest.raises(QuantizationError):
            qk.conv2d_int(
                quantize(x, in_params), w_q, np.zeros(1, np.int32),
                in_params, w_params, in_params, activation="gelu",
            )


class TestDepthwiseDenseInt:
    def test_depthwise_close_to_float(self, rng):
        x = rng.normal(size=(2, 5, 5, 4)).astype(np.float32)
        w = (rng.normal(size=(3, 3, 4)) * 0.3).astype(np.float32)
        b = np.zeros(4, dtype=np.float32)
        float_out, _ = fconv.depthwise_conv2d_forward(x, w, 2, "same")
        in_params = make_activation_params(x)
        w_q, w_params = quantize_weights(w)
        out_params = make_activation_params(float_out)
        out = qk.depthwise_conv2d_int(
            quantize(x, in_params), w_q, quantize_bias(b, in_params, w_params),
            in_params, w_params, out_params, stride=2,
        )
        assert np.abs(dequantize(out, out_params) - float_out).max() < 4 * out_params.scale[0]

    def test_dense_close_to_float(self, rng):
        x = rng.normal(size=(8, 16)).astype(np.float32)
        w = (rng.normal(size=(16, 5)) * 0.2).astype(np.float32)
        b = rng.normal(size=5).astype(np.float32) * 0.1
        float_out = x @ w + b
        in_params = make_activation_params(x)
        w_q, w_params = quantize_weights(w)
        out_params = make_activation_params(float_out)
        out = qk.dense_int(
            quantize(x, in_params), w_q, quantize_bias(b, in_params, w_params),
            in_params, w_params, out_params,
        )
        assert np.abs(dequantize(out, out_params) - float_out).max() < 4 * out_params.scale[0]


class TestPoolingAddSoftmaxInt:
    def test_avg_pool_rounding(self):
        params = affine_params_from_range(-1.0, 1.0)
        x_q = np.array([[[[10], [11]], [[12], [14]]]], dtype=np.int8)
        out = qk.avg_pool_int(x_q, 2, 2, "valid", params)
        assert out[0, 0, 0, 0] == 12  # round(47/4) = 12

    def test_global_avg_pool(self):
        params = affine_params_from_range(-1.0, 1.0)
        x_q = np.arange(8, dtype=np.int8).reshape(1, 2, 2, 2)
        out = qk.global_avg_pool_int(x_q, params)
        assert out.shape == (1, 2)
        assert out[0, 0] == 3  # mean(0,2,4,6)

    def test_max_pool(self):
        params = affine_params_from_range(-1.0, 1.0)
        x_q = np.array([[[[1], [9]], [[3], [4]]]], dtype=np.int8)
        assert qk.max_pool_int(x_q, 2, 2, "valid", params)[0, 0, 0, 0] == 9

    def test_add_rescales(self):
        a_params = affine_params_from_range(-1.0, 1.0)
        b_params = affine_params_from_range(-2.0, 2.0)
        out_params = affine_params_from_range(-3.0, 3.0)
        a_q = quantize(np.array([0.5]), a_params)
        b_q = quantize(np.array([1.0]), b_params)
        out = qk.add_int(a_q, b_q, a_params, b_params, out_params)
        assert abs(dequantize(out, out_params)[0] - 1.5) < 2 * out_params.scale[0]

    def test_softmax_int_distribution(self, rng):
        in_params = affine_params_from_range(-8.0, 8.0)
        logits = rng.normal(size=(4, 6)).astype(np.float32) * 3
        q = quantize(logits, in_params)
        out = qk.softmax_int(q, in_params)
        probs = (out.astype(np.float64) + 128) / 256.0
        assert np.allclose(probs.sum(axis=-1), 1.0, atol=0.05)
        assert (out >= -128).all() and (out <= 127).all()


# ----------------------------------------------------------------------
# Bitwise differential suite: the float-GEMM lowering against the integer
# formulation it replaced (a 6-D patch view contracted in int64 with einsum,
# and a Python loop of scalar Q31 multipliers over the channels), kept here
# as the oracle.
# ----------------------------------------------------------------------
def _oracle_quantize_multiplier(real_multiplier: float):
    mantissa, exponent = np.frexp(real_multiplier)
    mantissa_q31 = int(round(mantissa * (1 << 31)))
    if mantissa_q31 == (1 << 31):
        mantissa_q31 //= 2
        exponent += 1
    return mantissa_q31, int(exponent)


def _oracle_multiply(acc, mantissa_q31, shift):
    product = np.asarray(acc, dtype=np.int64) * mantissa_q31
    nudged = product + np.where(product >= 0, 1 << 30, 1 - (1 << 30))
    high = np.where(nudged >= 0, nudged >> 31, -((-nudged) >> 31))
    right_shift = -shift
    if right_shift > 0:
        rounding = np.int64(1) << (right_shift - 1)
        high = np.where(
            high >= 0, (high + rounding) >> right_shift, -((-high + rounding) >> right_shift)
        )
    elif right_shift < 0:
        high = high << (-right_shift)
    return high.astype(np.int64)


def _oracle_requantize(acc, real_multipliers, output_zero_point, bits):
    real_multipliers = np.atleast_1d(real_multipliers)
    out = np.empty(acc.shape, dtype=np.int64)
    for c in range(acc.shape[-1]):
        real = real_multipliers[c if real_multipliers.size > 1 else 0]
        out[..., c] = _oracle_multiply(acc[..., c], *_oracle_quantize_multiplier(float(real)))
    qmin, qmax = qrange(bits)
    return np.clip(out + output_zero_point, qmin, qmax).astype(np.int8 if bits <= 8 else np.int16)


def _oracle_finish(acc, bias_q, in_params, w_params, out_params, activation):
    acc += bias_q.astype(np.int64)
    real = in_params.scale[0] * w_params.scale / float(out_params.scale[0])
    out = _oracle_requantize(acc, real, out_params.zero_point, out_params.bits)
    lo, hi = qk._activation_bounds(activation, out_params)
    return np.clip(out, lo, hi).astype(out.dtype)


def _oracle_patches(x_q, kh, kw, stride, padding, zero_point):
    pad_h, pad_w = fconv.resolve_padding(x_q.shape[1], x_q.shape[2], kh, kw, stride, padding)
    padded = np.pad(x_q, ((0, 0), pad_h, pad_w, (0, 0)), constant_values=zero_point)
    patches = fconv.extract_patches(padded, kh, kw, stride).astype(np.int64)
    patches -= zero_point
    return patches


def _oracle_conv2d(x_q, w_q, bias_q, in_params, w_params, out_params, stride, padding,
                   activation):
    patches = _oracle_patches(x_q, *w_q.shape[:2], stride, padding, in_params.zero_point)
    acc = np.einsum("nxyckl,klcf->nxyf", patches, w_q.astype(np.int64), optimize=True)
    return _oracle_finish(acc, bias_q, in_params, w_params, out_params, activation)


def _oracle_depthwise_conv2d(x_q, w_q, bias_q, in_params, w_params, out_params, stride,
                             padding, activation):
    patches = _oracle_patches(x_q, *w_q.shape[:2], stride, padding, in_params.zero_point)
    acc = np.einsum("nxyckl,klc->nxyc", patches, w_q.astype(np.int64), optimize=True)
    return _oracle_finish(acc, bias_q, in_params, w_params, out_params, activation)


def _oracle_dense(x_q, w_q, bias_q, in_params, w_params, out_params, activation):
    acc = (x_q.astype(np.int64) - in_params.zero_point) @ w_q.astype(np.int64)
    return _oracle_finish(acc, bias_q, in_params, w_params, out_params, activation)


#: Effective multiplier (in_scale * w_scale / out_scale) regimes: the usual
#: (0, 1) range, above 1 (a left shift), below 2^-20 (a long rounding right
#: shift), and per-channel multipliers on both sides of 1.
REGIMES = ("normal", "above_one", "tiny", "mixed")
ACTIVATIONS = (None, "relu", "relu6")
BATCHES = (1, 3, 23)
GEOMETRIES = [
    (kernel, stride, padding)
    for kernel in ((1, 1), (3, 3), (10, 4), (4, 4))
    for stride in (1, 2, (2, 1))
    for padding in ("same", "valid")
]
#: Each spatial geometry and each dense case runs every bit width with the
#: input zero point at the bottom, middle and top of its range.
BIT_ZERO_POINTS = [(bits, where) for bits in (8, 4) for where in ("min", "zero", "max")]


def _geometry_id(geometry):
    (kh, kw), stride, padding = geometry
    stride = f"{stride[0]}x{stride[1]}" if isinstance(stride, tuple) else stride
    return f"k{kh}x{kw}-s{stride}-{padding}"


def _case_params(rng, bits, where, channels, index):
    """Params and bias for case ``index``; the other axes cycle with it."""
    qmin, qmax = qrange(bits)
    zero_point = {"min": qmin, "zero": 0, "max": qmax}[where]
    regime = REGIMES[index % len(REGIMES)]
    per_channel = regime == "mixed" or (index // len(REGIMES)) % 2 == 0
    in_params = QuantParams(np.array([rng.uniform(0.005, 0.1)]), zero_point, bits)
    w_scale = rng.uniform(0.002, 0.05, size=channels if per_channel else 1)
    target = {"normal": rng.uniform(1e-3, 0.5), "above_one": rng.uniform(1.5, 6.0),
              "tiny": rng.uniform(2.0 ** -26, 2.0 ** -21), "mixed": 1.0}[regime]
    out_scale = in_params.scale[0] * float(np.median(w_scale)) / target
    if regime == "mixed":  # per-channel multipliers spread over 2^-4 .. 2^3
        w_scale = 2.0 ** rng.uniform(-4, 3, size=channels) * out_scale / in_params.scale[0]
    out_params = QuantParams(np.array([out_scale]), int(rng.integers(qmin, qmax + 1)), bits)
    bias_limit = 2 ** 30 if regime == "tiny" else 2 ** 16
    bias_q = rng.integers(-bias_limit, bias_limit, size=channels).astype(np.int32)
    return in_params, QuantParams(w_scale, 0, bits), out_params, bias_q


def _assert_same(got, expected, context):
    assert got.dtype == expected.dtype, context
    assert np.array_equal(got, expected), context


class TestLoweringIsBitwise:
    """The float-GEMM lowering reproduces the int64 einsum kernels exactly."""

    @pytest.mark.parametrize("kind", ["conv2d", "depthwise_conv2d"])
    @pytest.mark.parametrize("geometry", GEOMETRIES, ids=_geometry_id)
    def test_spatial_kernels(self, kind, geometry):
        kernel, stride, padding = geometry
        channels = 4 if kind == "conv2d" else 5
        weight_shape = (*kernel, 3, channels) if kind == "conv2d" else (*kernel, channels)
        kernel_fn = getattr(qk, f"{kind}_int")
        oracle = globals()[f"_oracle_{kind}"]
        g = GEOMETRIES.index(geometry)
        rng = np.random.default_rng([g, len(kind)])
        for i, (bits, where) in enumerate(BIT_ZERO_POINTS):
            index = g + i
            in_params, w_params, out_params, bias_q = _case_params(rng, bits, where, channels,
                                                                   index)
            activation = ACTIVATIONS[index % 3]
            batch = BATCHES[(g // 3 + i) % 3]
            lo, hi = qrange(bits)
            x_q = rng.integers(lo, hi + 1, size=(batch, 11, 6, weight_shape[2])).astype(np.int8)
            w_q = rng.integers(lo, hi + 1, size=weight_shape).astype(np.int8)
            args = (x_q, w_q, bias_q, in_params, w_params, out_params, stride, padding,
                    activation)
            _assert_same(kernel_fn(*args), oracle(*args),
                         f"bits={bits} zp={in_params.zero_point} {REGIMES[index % 4]} "
                         f"activation={activation} batch={batch}")

    @pytest.mark.parametrize("activation", ACTIVATIONS, ids=str)
    @pytest.mark.parametrize("bits, where", BIT_ZERO_POINTS)
    def test_dense(self, bits, where, activation):
        index = BIT_ZERO_POINTS.index((bits, where)) * 3 + ACTIVATIONS.index(activation)
        rng = np.random.default_rng([index, 7])
        in_params, w_params, out_params, bias_q = _case_params(rng, bits, where, 7, index)
        lo, hi = qrange(bits)
        x_q = rng.integers(lo, hi + 1, size=(BATCHES[index % 3], 20)).astype(np.int8)
        w_q = rng.integers(lo, hi + 1, size=(20, 7)).astype(np.int8)
        args = (x_q, w_q, bias_q, in_params, w_params, out_params)
        _assert_same(qk.dense_int(*args, activation=activation),
                     _oracle_dense(*args, activation), REGIMES[index % 4])

    @pytest.mark.parametrize("kind", ["conv2d", "depthwise_conv2d", "dense"])
    def test_accumulators_past_the_float32_bound(self, kind):
        """K·max|x - zp|·max|w| >= 2^24 takes float64 weights and stays exact.

        Every input is 127 with the zero point at -128 and every window is
        full ("valid"), so each accumulator is 255·Σw over its channel, past
        2^24, where float32 sums round. The bias cancels all but a small
        remainder, and a multiplier of 1.5 makes a one-unit error in the
        accumulator visible in the output.
        """
        rng = np.random.default_rng(24)
        weight_shape = {"conv2d": (3, 3, 80, 4), "depthwise_conv2d": (26, 26, 4),
                        "dense": (640, 4)}[kind]
        in_shape = {"conv2d": (2, 5, 5, 80), "depthwise_conv2d": (2, 27, 27, 4),
                    "dense": (3, 640)}[kind]
        w_q = rng.integers(110, 128, size=weight_shape).astype(np.int8)
        x_q = np.full(in_shape, 127, dtype=np.int8)
        sums = 255 * w_q.astype(np.int64).reshape(-1, 4).sum(axis=0)
        assert sums.min() >= 2 ** 24
        bias_q = (rng.integers(-40, 40, size=4) - sums).astype(np.int32)
        in_params = QuantParams(np.array([0.02]), -128)
        w_params = QuantParams(rng.uniform(0.01, 0.02, size=4), 0)
        out_params = QuantParams(np.array([0.02 * w_params.scale[0] / 1.5]), 0)
        bound = IntLinear(kind, w_q, bias_q, in_params, w_params, out_params)
        assert bound.weight.dtype == np.float64
        args = (x_q, w_q, bias_q, in_params, w_params, out_params)
        geometry = () if kind == "dense" else (1, "valid")
        got = getattr(qk, f"{kind}_int")(*args, *geometry)
        expected = globals()[f"_oracle_{kind}"](*args, *geometry, None)
        _assert_same(got, expected, kind)
        assert len(np.unique(expected)) > 1  # not all saturated

    def test_float32_weights_within_the_bound(self):
        rng = np.random.default_rng(3)
        in_params, w_params, out_params, bias_q = _case_params(rng, 8, "min", 4, 0)
        w_q = rng.integers(-128, 128, size=(3, 3, 8, 4)).astype(np.int8)
        bound = IntLinear("conv2d", w_q, bias_q, in_params, w_params, out_params)
        assert bound.weight.dtype == np.float32  # 72 * 255 * 128 < 2^24


class TestVectorizedRequantize:
    """``requantize`` over the channel axis against per-channel scalar loops."""

    @pytest.mark.parametrize("bits", [8, 4])
    @pytest.mark.parametrize("where", ["min", "zero", "max"])
    def test_matches_scalar_channel_loop(self, bits, where):
        rng = np.random.default_rng([bits, len(where)])
        qmin, qmax = qrange(bits)
        zero_point = {"min": qmin, "zero": 0, "max": qmax}[where]
        channels = 24
        # Multipliers from 2^-30 (a 30-bit rounding shift) to 2^3 (a left
        # shift), one at the mantissa's rounding overflow, and two far
        # below any real scale (as a corrupted model file can carry).
        real = 2.0 ** rng.uniform(-30, 3, size=channels)
        real[:3] = [1.0 - 2.0 ** -40, 2.0 ** -40, 2.0 ** -120]
        acc = rng.integers(-(2 ** 31), 2 ** 31, size=(40, channels), dtype=np.int64)
        acc[:5] = np.array([-(2 ** 31), 2 ** 31 - 1, 0, 1, -1])[:, None]
        acc[5:10] = rng.integers(-300, 300, size=(5, channels))
        mantissa, shift = quantize_multiplier(real)
        got = requantize(acc, (mantissa, shift), zero_point, bits)

        loop = np.empty(acc.shape, dtype=np.int64)
        for c in range(channels):
            scalar = quantize_multiplier(float(real[c]))
            assert scalar == _oracle_quantize_multiplier(float(real[c]))
            assert scalar == (int(mantissa[c]), int(shift[c]))
            loop[:, c] = multiply_by_quantized_multiplier(acc[:, c], *scalar)
            np.testing.assert_array_equal(loop[:, c], _oracle_multiply(acc[:, c], *scalar))
        loop = np.clip(loop + zero_point, qmin, qmax).astype(np.int8)
        _assert_same(got, loop, "channel loop")
        _assert_same(got, _oracle_requantize(acc, real, zero_point, bits), "oracle")

    def test_per_tensor_multiplier_broadcasts(self):
        rng = np.random.default_rng(11)
        acc = rng.integers(-(2 ** 31), 2 ** 31, size=(6, 5, 9), dtype=np.int64)
        real = np.array([3e-7])
        got = requantize(acc, quantize_multiplier(real), -3, 8)
        _assert_same(got, _oracle_requantize(acc, real, -3, 8), "per-tensor")

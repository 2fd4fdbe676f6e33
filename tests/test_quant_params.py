"""Quantization parameters and fixed-point arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QuantizationError
from repro.quantization import (
    QuantParams,
    affine_params_from_range,
    dequantize,
    multiply_by_quantized_multiplier,
    pack_int4,
    packed_size_bytes,
    quantize,
    quantize_multiplier,
    symmetric_params_from_absmax,
    unpack_int4,
)
from repro.quantization.params import qrange, requantize


class TestQuantParams:
    def test_qrange(self):
        assert qrange(8) == (-128, 127)
        assert qrange(4) == (-8, 7)

    def test_qrange_rejects_bad_bits(self):
        with pytest.raises(QuantizationError):
            qrange(1)

    def test_negative_scale_rejected(self):
        with pytest.raises(QuantizationError):
            QuantParams(scale=np.array([-1.0]), zero_point=0)

    def test_zero_point_range_checked(self):
        with pytest.raises(QuantizationError):
            QuantParams(scale=np.array([0.1]), zero_point=500, bits=8)

    def test_per_channel_flag(self):
        assert QuantParams(scale=np.array([0.1, 0.2]), zero_point=0).per_channel
        assert not QuantParams(scale=np.array([0.1]), zero_point=0).per_channel


class TestAffineParams:
    def test_range_includes_zero(self):
        params = affine_params_from_range(2.0, 6.0)
        # Zero must be exactly representable.
        zero_real = dequantize(np.array([params.zero_point], dtype=np.int8), params)
        assert abs(zero_real[0]) < 1e-9

    def test_relu_range(self):
        params = affine_params_from_range(0.0, 6.0)
        assert params.zero_point == -128

    @given(low=st.floats(-10, 0), high=st.floats(0.01, 10))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_error_below_half_lsb(self, low, high):
        params = affine_params_from_range(low, high)
        values = np.linspace(low, high, 64).astype(np.float32)
        recovered = dequantize(quantize(values, params), params)
        assert np.abs(recovered - values).max() <= params.scale[0] * 0.51

    def test_degenerate_range(self):
        params = affine_params_from_range(0.0, 0.0)
        assert params.scale[0] > 0


class TestSymmetricParams:
    def test_per_channel(self):
        params = symmetric_params_from_absmax(np.array([1.0, 2.0, 4.0]))
        assert params.per_channel
        assert params.zero_point == 0
        assert np.allclose(params.scale * 127, [1.0, 2.0, 4.0], rtol=1e-5)

    def test_quantize_saturates(self):
        params = symmetric_params_from_absmax(np.array([1.0]))
        q = quantize(np.array([5.0]), params)
        assert q[0] == 127


class TestQuantizeMultiplier:
    @given(st.floats(1e-6, 0.999))
    @settings(max_examples=100, deadline=None)
    def test_reconstruction(self, real):
        mantissa, shift = quantize_multiplier(real)
        reconstructed = mantissa * (2.0 ** (shift - 31))
        assert abs(reconstructed - real) / real < 1e-6

    def test_rejects_nonpositive(self):
        with pytest.raises(QuantizationError):
            quantize_multiplier(0.0)

    @given(st.integers(-(2**20), 2**20), st.floats(1e-4, 0.99))
    @settings(max_examples=100, deadline=None)
    def test_fixed_point_matches_float(self, acc, multiplier):
        mantissa, shift = quantize_multiplier(multiplier)
        fixed = multiply_by_quantized_multiplier(np.array([acc]), mantissa, shift)[0]
        expected = round(acc * multiplier)
        assert abs(int(fixed) - expected) <= 1

    def test_vectorized(self):
        mantissa, shift = quantize_multiplier(0.25)
        acc = np.array([100, -100, 4, -4, 0])
        out = multiply_by_quantized_multiplier(acc, mantissa, shift)
        assert np.array_equal(out, [25, -25, 1, -1, 0])


class TestRequantize:
    def test_per_tensor(self):
        acc = np.array([400, -400])
        out = requantize(acc, quantize_multiplier(np.array([0.01]) / 0.1), 0, bits=8)
        assert np.array_equal(out, [40, -40])

    def test_saturation(self):
        acc = np.array([10_000_000])
        out = requantize(acc, quantize_multiplier(np.array([0.5]) / 0.5), 0, bits=8)
        assert out[0] == 127

    def test_per_channel(self):
        acc = np.array([[100, 100]])
        out = requantize(acc, quantize_multiplier(np.array([0.01, 0.02]) / 0.1), 0, bits=8)
        assert np.array_equal(out[0], [10, 20])

    def test_per_channel_mismatch_raises(self):
        with pytest.raises(QuantizationError):
            requantize(np.zeros((2, 3), dtype=np.int64),
                       quantize_multiplier(np.array([0.1, 0.2]) / 0.1), 0)

    def test_zero_point_applied(self):
        out = requantize(np.array([0]), quantize_multiplier(np.array([1.0]) / 1.0), 5, bits=8)
        assert out[0] == 5


class TestInt4Packing:
    @given(st.lists(st.integers(-8, 7), min_size=0, max_size=33))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, values):
        arr = np.array(values, dtype=np.int8)
        packed = pack_int4(arr)
        assert packed.nbytes == (len(values) + 1) // 2
        recovered = unpack_int4(packed, len(values))
        assert np.array_equal(recovered, arr)

    def test_out_of_range_rejected(self):
        with pytest.raises(QuantizationError):
            pack_int4(np.array([8], dtype=np.int8))

    def test_unpack_count_checked(self):
        with pytest.raises(QuantizationError):
            unpack_int4(np.zeros(1, dtype=np.uint8), 3)

    def test_packed_size(self):
        assert packed_size_bytes(10, 8) == 10
        assert packed_size_bytes(10, 4) == 5
        assert packed_size_bytes(11, 4) == 6
        with pytest.raises(QuantizationError):
            packed_size_bytes(10, 3)

    def test_negative_values_sign_extended(self):
        arr = np.array([-8, -1, 7, 0], dtype=np.int8)
        assert np.array_equal(unpack_int4(pack_int4(arr), 4), arr)

"""Self-tests of the benchmark's reference computations (``reference.py``).

Every expected value is worked out by hand in the comments, so a wrong
reference cannot pass silently. ``run.py`` runs this suite in every run;
run it alone with ``python3 e2ebench/selftest.py``.
"""

from __future__ import annotations

import unittest
from types import SimpleNamespace

import numpy as np

import reference as ref


def _quant(scale, zero_point=0):
    return SimpleNamespace(scale=np.atleast_1d(np.asarray(scale, dtype=np.float64)),
                           zero_point=zero_point)


def _tensor(data=None, quant=None):
    return SimpleNamespace(data=None if data is None else np.asarray(data), quant=quant)


def _op(kind, inputs, output, **attrs):
    return SimpleNamespace(kind=kind, inputs=list(inputs), outputs=[output], attrs=attrs)


def _graph(ops, tensors):
    return SimpleNamespace(name="hand", inputs=["x"], outputs=[ops[-1].outputs[0]],
                           ops=ops, tensors=tensors)


class FloatForwardTest(unittest.TestCase):
    def test_conv_valid_and_same(self):
        x = np.arange(1, 10, dtype=np.float64).reshape(1, 3, 3, 1)
        tensors = {"x": _tensor(), "w": _tensor(np.ones((2, 2, 1, 1))), "b": _tensor([1.0]),
                   "y": _tensor()}
        valid = _op("conv2d", ["x", "w", "b"], "y", kernel_h=2, kernel_w=2, padding="valid")
        # 2x2 window sums of 1..9 plus bias 1.
        out = ref.float_forward(_graph([valid], tensors), x)
        np.testing.assert_array_equal(out[0, :, :, 0], [[13, 17], [25, 29]])
        same = _op("conv2d", ["x", "w"], "y", kernel_h=2, kernel_w=2, padding="same")
        # SAME pads one zero row below and one zero column right.
        out = ref.float_forward(_graph([same], tensors), x)
        np.testing.assert_array_equal(out[0, :, :, 0], [[12, 16, 9], [24, 28, 15], [15, 17, 9]])

    def test_strided_depthwise_relu6(self):
        x = np.arange(1, 10, dtype=np.float64).reshape(1, 3, 3, 1).repeat(2, axis=3)
        w = np.ones((3, 3, 2))
        w[..., 1] = -1.0
        tensors = {"x": _tensor(), "w": _tensor(w), "y": _tensor()}
        op = _op("depthwise_conv2d", ["x", "w"], "y", kernel_h=3, kernel_w=3,
                 stride_h=2, stride_w=2, padding="same", activation="relu6")
        # SAME with stride 2 on 3x3: pads 1 on each side, outputs 2x2 at
        # centres (0,0), (0,2), (2,0), (2,2): window sums 12, 16, 24, 28.
        out = ref.float_forward(_graph([op], tensors), x)
        np.testing.assert_array_equal(out[0, :, :, 0], [[6, 6], [6, 6]])  # clipped at 6
        np.testing.assert_array_equal(out[0, :, :, 1], [[0, 0], [0, 0]])  # negated, then relu

    def test_dense_pool_add(self):
        x = np.array([[[[1.0, -2.0]], [[3.0, 0.0]]]])  # (1, 2, 1, 2)
        tensors = {"x": _tensor(), "g": _tensor(), "w": _tensor([[1.0, 2.0], [3.0, 4.0]]),
                   "b": _tensor([10.0, 2.0]), "d": _tensor(), "s": _tensor()}
        ops = [_op("global_avg_pool", ["x"], "g"),
               _op("dense", ["g", "w", "b"], "d", activation="relu"),
               _op("add", ["d", "g"], "s", activation=None)]
        # mean -> [2, -1]; [2-3, 4-4] + [10, 2] = [9, 2]; relu; + [2, -1] = [11, 1].
        out = ref.float_forward(_graph(ops, tensors), x)
        np.testing.assert_array_equal(out, [[11.0, 1.0]])

    def test_unknown_op_is_refused(self):
        graph = _graph([_op("softmax", ["x"], "y")], {"x": _tensor(), "y": _tensor()})
        with self.assertRaises(ValueError):
            ref.float_forward(graph, np.zeros((1, 2)))

    def test_relative_tolerance(self):
        reference = np.array([1e-5, -3e-5])
        self.assertTrue(ref.float_matches(np.float32(reference * (1 + 1e-6)), reference, 1e-4))
        # An absolute error of 1e-6 is tiny in absolute terms but 3% of this scale.
        self.assertFalse(ref.float_matches(np.float32(reference + 1e-6), reference, 1e-4))


class IntegerArithmeticTest(unittest.TestCase):
    def test_q31_multiplier(self):
        self.assertEqual(ref.q31_multiplier(0.5), (2 ** 30, 0))
        self.assertEqual(ref.q31_multiplier(1.0), (2 ** 30, 1))
        self.assertEqual(ref.q31_multiplier(0.75), (3 * 2 ** 29, 0))
        # 0.1 = 0.8 * 2**-3; 0.8 * 2**31 = 1717986918.4 -> 1717986918.
        self.assertEqual(ref.q31_multiplier(0.1), (1717986918, -3))

    def test_high_mul_nudge_then_truncate(self):
        m = 2 ** 30  # one half in Q31
        got = ref.rounding_doubling_high_mul(np.array([2 ** 30, 1, 3, -1, -3, -2 ** 30]), m)
        # x/2: 2**29 exactly; 0.5 -> 1; 1.5 -> 2; -0.5 -> 0; -1.5 -> -1
        # (gemmlowp's SaturatingRoundingDoublingHighMul nudges by 2**30,
        # or 1 - 2**30 below zero, then truncates toward zero).
        np.testing.assert_array_equal(got, [2 ** 29, 1, 2, 0, -1, -2 ** 29])

    def test_rounding_right_shift_matches_tflite_examples(self):
        # gemmlowp RoundingDivideByPOT: nearest, ties away from zero.
        cases = [(5, 1, 3), (-5, 1, -3), (3, 1, 2), (-3, 1, -2), (4, 2, 1),
                 (6, 2, 2), (-6, 2, -2), (7, 2, 2), (-7, 2, -2), (-5, 2, -1), (0, 3, 0)]
        for x, shift, expected in cases:
            self.assertEqual(int(ref.rounding_right_shift(np.array(x), shift)), expected,
                             (x, shift))

    def test_apply_multiplier(self):
        # 100 * 0.3: mantissa round(0.6 * 2**31) = 1288490189, high mul 60, >> 1 -> 30.
        self.assertEqual(int(ref.apply_multiplier(np.array(100), 0.3)), 30)
        # 6 * 0.25: high mul by one half gives 3, then 1.5 -> 2 (away from zero).
        self.assertEqual(int(ref.apply_multiplier(np.array(6), 0.25)), 2)
        self.assertEqual(int(ref.apply_multiplier(np.array(-6), 0.25)), -2)
        # -5 * 0.25: -2.5 -> -2 in the high mul, then -1 exactly.
        self.assertEqual(int(ref.apply_multiplier(np.array(-5), 0.25)), -1)

    def test_rounded_mean(self):
        totals = np.array([5, -5, 7, -6, 6, 0])
        counts = [2, 2, 4, 4, 4, 4]
        got = [int(ref.rounded_mean(t, c)) for t, c in zip(totals, counts)]
        self.assertEqual(got, [3, -3, 2, -2, 2, 0])  # 2.5, -2.5, 1.75, -1.5, 1.5, 0

    def test_int8_dense_graph(self):
        tensors = {
            "x": _tensor(quant=_quant(0.25, 1)),
            "w": _tensor([[2], [-1]], _quant(0.5)),
            "b": _tensor([0]),
            "y": _tensor(quant=_quant(0.25, 0)),
        }
        graph = _graph([_op("dense", ["x", "w", "b"], "y")], tensors)
        # x: round(0.5/0.25)+1 = 3, round(-0.25/0.25)+1 = 0; acc (3-1)*2 + (0-1)*-1 = 5;
        # multiplier 0.25*0.5/0.25 = 0.5: 2.5 -> 3; dequantized 3 * 0.25.
        out = ref.int8_forward(graph, np.array([[0.5, -0.25]], dtype=np.float32))
        self.assertEqual(out.dtype, np.float32)
        np.testing.assert_array_equal(out, [[0.75]])

    def test_int8_conv_pads_with_zero_point_and_clamps_relu6(self):
        tensors = {
            "x": _tensor(quant=_quant(1.0, -10)),
            "w": _tensor(np.ones((1, 2, 1, 1), dtype=np.int64), _quant(1.0)),
            "y": _tensor(quant=_quant(0.5, -128)),
        }
        op = _op("conv2d", ["x", "w"], "y", kernel_h=1, kernel_w=2, padding="same",
                 activation="relu6")
        graph = _graph([op], tensors)
        # Input 2, 4 -> q = 2-10, 4-10 = -8, -6; SAME pads the right with the zero
        # point, which contributes 0. acc = 2+4 = 6 and 4 + 0 = 4; multiplier 2
        # (q31 (2**30, 2): high mul 3, 2, then << 2) -> 12, 8; + zp -> -116, -120;
        # relu6 upper bound round(6/0.5) - 128 = -116.
        out = ref.int8_forward(graph, np.array([[[[2.0], [4.0]]]], dtype=np.float32))
        np.testing.assert_array_equal(out[0, 0, :, 0], [6.0, 4.0])

    def test_int8_add_and_pool_rounding(self):
        tensors = {
            "x": _tensor(quant=_quant(0.1, 0)),
            "g": _tensor(quant=_quant(0.1, 0)),
            "s": _tensor(quant=_quant(1.0, 0)),
        }
        ops = [_op("global_avg_pool", ["x"], "g"), _op("add", ["g", "g"], "s")]
        graph = _graph(ops, tensors)
        # q: channel 0 [5, 10], mean 7.5 -> 8; channel 1 [2, 3], mean 2.5 -> 3.
        # add: 0.8 + 0.8 = 1.6 -> 2; 0.3 + 0.3 = 0.6 -> 1.
        x = np.array([[[[0.5, 0.2]], [[1.0, 0.3]]]], dtype=np.float32)
        np.testing.assert_array_equal(ref.int8_forward(graph, x), [[2.0, 1.0]])
        # A tie in the add rounds half to even: 0.25 + 0.25 = 0.5 -> 0.
        tensors["g"] = _tensor(quant=_quant(0.25, 0))
        tensors["x"] = _tensor(quant=_quant(0.25, 0))
        x = np.array([[[[0.25, 0.75]]]], dtype=np.float32)
        np.testing.assert_array_equal(ref.int8_forward(graph, x), [[0.0, 2.0]])


class SearchReferenceTest(unittest.TestCase):
    def test_hypervolume(self):
        points = [(0.5, 1e6), (0.8, 2e6), (0.6, 3e6), (0.9, 5e6), (0.0, 0.5e6)]
        # [1, 2) Mops at 0.5, then [2, 4) at 0.8 = 0.5 + 1.6; the point past the
        # cap and the zero-accuracy point add nothing.
        self.assertAlmostEqual(ref.hypervolume_2d(points, 4e6), 2.1, places=12)
        self.assertEqual(ref.hypervolume_2d([], 4e6), 0.0)

    def test_dominance_and_front(self):
        self.assertTrue(ref.dominates((0.9, (1, 2)), (0.8, (1, 2))))
        self.assertFalse(ref.dominates((0.9, (1, 2)), (0.9, (1, 2))))
        self.assertFalse(ref.dominates((0.9, (1, 3)), (0.8, (1, 2))))
        front = [("a", 0.9, (2.0,)), ("b", 0.7, (1.0,))]
        evaluated = front + [("c", 0.6, (1.5,))]
        self.assertEqual(ref.front_problems(front, evaluated), [])
        # d beats b and nothing on the front dominates it.
        self.assertEqual(len(ref.front_problems(front, evaluated + [("d", 0.8, (1.0,))])), 1)
        # A front member that both a and b dominate is reported once per dominator.
        self.assertEqual(len(ref.front_problems(front + [("e", 0.7, (3.0,))], evaluated)), 2)

    def test_arch_params(self):
        ConvSpec = type("ConvSpec", (), {})
        DWConvSpec = type("DWConvSpec", (), {})
        DenseSpec = type("DenseSpec", (), {})
        GlobalPoolSpec = type("GlobalPoolSpec", (), {})
        stem, dw, pw, dense = ConvSpec(), DWConvSpec(), ConvSpec(), DenseSpec()
        stem.kernel, stem.out_channels = (4, 4), 8
        dw.kernel = (3, 3)
        pw.kernel, pw.out_channels = (1, 1), 16
        dense.units = 4
        arch = SimpleNamespace(input_shape=(16, 8, 1),
                               layers=(stem, dw, pw, GlobalPoolSpec(), dense))
        # 4*4*1*8+8 = 136; 3*3*8+8 = 80; 8*16+16 = 144; 16*4+4 = 68.
        self.assertEqual(ref.arch_params(arch), 136 + 80 + 144 + 68)


if __name__ == "__main__":
    unittest.main()

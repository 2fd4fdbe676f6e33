"""Graph interpreter — the TFLM ``MicroInterpreter`` analogue.

Executes a :class:`~repro.runtime.graph.Graph` op by op in schedule order.
Two execution modes are supported, chosen per-graph by the activation dtype:

* **int8/int4**: full integer inference with the CMSIS-NN-style kernels in
  :mod:`repro.quantization.kernels` (exact integer accumulation, fixed
  point requantization). Float inputs are quantized at the graph boundary
  and outputs are dequantized back, as an application would do on device.
* **float32**: plain float kernels, used to measure the accuracy cost of
  quantization.

A batch larger than the interpreter's tile (see :data:`TILE_ELEMENTS`) runs
as consecutive tile-sized slices through the whole op loop, so each op's
output is still in cache when the next op reads it.

The interpreter also exposes the recording-API style accounting TFLM
provides (arena size, per-tensor allocations) via :meth:`Interpreter.plan`.
"""

from __future__ import annotations

import math
import os
import time
from typing import Dict, List, Optional

import numpy as np

from repro import obs
from repro.errors import GraphError
from repro.quantization import kernels as qk
from repro.quantization.params import dequantize, quantize
from repro.runtime.graph import Graph, OpNode
from repro.runtime.planner import ArenaPlan, plan_arena
from repro.tensor import conv as fconv
from repro.tensor import gemm as fgemm
from repro.tensor.backend import get_backend

#: dtype family each tensor-spec dtype admits at execution time (int4 is
#: carried unpacked as int8; accumulators may widen within the family).
_INTEGER_DTYPES = ("int8", "int4", "int16", "int32")
#: Activation dtypes that select the integer kernels.
_QUANTIZED_DTYPES = ("int8", "int4", "int16")
#: Op kinds whose constants are bound once per interpreter.
_LINEAR_KINDS = ("conv2d", "depthwise_conv2d", "dense")
#: Element budget of one batch tile: the tile times the largest per-sample
#: buffer any op touches (:func:`sample_elements`) stays within it. 2^18
#: float32 elements is 1 MiB, half of a 2 MiB L2. It is fixed rather than
#: measured at run time because the tile sets the float GEMM row counts,
#: and with them the float results.
TILE_ELEMENTS = 2 ** 18


class Interpreter:
    """Executes a validated graph.

    Parameters
    ----------
    graph:
        The model; :meth:`Graph.validate`, the deploy-path invariant
        checker :func:`repro.validate.validate_graph`, and a one-time
        constant-operand sweep all run on construction. Per-op operand
        re-verification is **not** in the dispatch hot loop: it runs only
        with ``debug_checks`` (or ``REPRO_DEBUG_CHECKS=1``), because
        construction-time validation already covers everything a static
        graph can violate.
    debug_checks:
        Re-verify every operand before each op dispatch (shape, dtype
        family, produced-ness). Defaults to the ``REPRO_DEBUG_CHECKS``
        environment variable.
    max_batch:
        The planned batch size, when set: the arena plan is computed for
        it eagerly and :meth:`invoke` refuses a larger request batch with
        a clear :class:`GraphError` instead of letting it run past the
        planned arena (on device that is memory corruption; here it used
        to surface as a shape/broadcast error deep in dispatch). The
        serving layer's pooled interpreters always set this.
    """

    # Class-level defaults so partially-constructed instances (tests build
    # them via __new__ to drive _execute directly) still dispatch.
    debug_checks = False
    max_batch: Optional[int] = None

    def __init__(
        self,
        graph: Graph,
        debug_checks: Optional[bool] = None,
        max_batch: Optional[int] = None,
    ) -> None:
        # Imported here (like planner.tensor_lifetimes) because repro.validate
        # imports the graph IR back from this package.
        from repro.validate.checks import validate_graph

        graph.validate()
        validate_graph(graph)
        self.graph = graph
        self._check_constants()
        #: Per-op constants bound once (see :meth:`_bind`), keyed by op name.
        self._bound = {op.name: self._bind(op) for op in graph.ops if op.kind in _LINEAR_KINDS}
        #: Samples per tile: :meth:`invoke` runs a larger batch in slices of this.
        self.tile = max(1, TILE_ELEMENTS // sample_elements(graph))
        if debug_checks is None:
            debug_checks = os.environ.get("REPRO_DEBUG_CHECKS", "0") not in ("", "0")
        self.debug_checks = bool(debug_checks)
        #: Weight-kind constants consumed in *data* positions (products of
        #: constant folding); invoke() seeds them into the value map.
        self._const_data_inputs: List[str] = self._find_const_data_inputs()
        self._plans: Dict[int, ArenaPlan] = {}
        self.max_batch = None
        if max_batch is not None:
            self.max_batch = _check_batch_size(max_batch, "max_batch")
            self.plan(batch_size=self.max_batch)  # plan the arena up front
        #: Wall-clock seconds per op name from the most recent observed
        #: invoke, summed over its tiles (populated only while observability
        #: is enabled).
        self.last_op_timings: Dict[str, float] = {}

    # ------------------------------------------------------------------
    def plan(self, batch_size: int = 1) -> ArenaPlan:
        """Arena plan for this graph at the given batch size (cached).

        ``batch_size > 1`` models the vectorized serving mode: every
        activation allocation scales by the batch while weights stay in
        flash, so the plan answers "what arena does one batched dispatch
        need?".
        """
        batch_size = _check_batch_size(batch_size, "batch_size")
        if batch_size not in self._plans:
            self._plans[batch_size] = plan_arena(self.graph, batch_size=batch_size)
        return self._plans[batch_size]

    # ------------------------------------------------------------------
    def _check_constants(self) -> None:
        """One-time sweep: every constant operand carries well-shaped data."""
        for op in self.graph.ops:
            for t in op.inputs:
                spec = self.graph.tensors[t]
                if spec.kind not in ("weight", "bias"):
                    continue
                if spec.data is None:
                    raise GraphError(f"op {op.name}: constant {t!r} has no data")
                if tuple(spec.data.shape) != tuple(spec.shape):
                    raise GraphError(
                        f"op {op.name}: constant {t!r} data shape "
                        f"{tuple(spec.data.shape)} != spec shape {tuple(spec.shape)}"
                    )

    def _bind(self, op: OpNode):
        """Constants of a conv/depthwise/dense op, prepared for every invoke.

        A quantized op binds to a :class:`~repro.quantization.kernels.IntLinear`
        (float weights, int64 bias, Q31 multipliers, clamp range); a float op
        to its float32 weight and bias.
        """
        tensors = self.graph.tensors
        w_spec = tensors[op.inputs[1]]
        b_spec = tensors[op.inputs[2]] if len(op.inputs) > 2 else None
        out_spec = tensors[op.outputs[0]]
        if out_spec.dtype in _QUANTIZED_DTYPES:
            bias = b_spec.data if b_spec is not None else np.zeros(out_spec.shape[-1], np.int32)
            return qk.IntLinear(
                op.kind, w_spec.data, bias, tensors[op.inputs[0]].quant, w_spec.quant,
                out_spec.quant, stride=_op_stride(op), padding=str(op.attrs.get("padding", "same")),
                activation=op.attrs.get("activation"),
            )
        bias = np.asarray(b_spec.data, dtype=np.float32) if b_spec is not None else 0.0
        return np.asarray(w_spec.data, dtype=np.float32), bias

    def _find_const_data_inputs(self) -> List[str]:
        names = set()
        for op in self.graph.ops:
            data_slots = op.inputs[:2] if op.kind == "add" else op.inputs[:1]
            for t in data_slots:
                spec = self.graph.tensors[t]
                if spec.kind == "weight" and spec.data is not None:
                    names.add(t)
        return sorted(names)

    @property
    def is_quantized(self) -> bool:
        return all(self.graph.tensors[t].dtype in _QUANTIZED_DTYPES for t in self.graph.inputs)

    # ------------------------------------------------------------------
    def invoke(self, batch: np.ndarray) -> np.ndarray:
        """Run one batch through the graph.

        ``batch`` is float32 of shape (N, *input_shape); the result is
        float32 logits/probabilities of shape (N, *output_shape). A batch
        larger than :attr:`tile` runs as consecutive tiles of that many
        samples (the last one shorter), each through every op.
        """
        if len(self.graph.inputs) != 1 or len(self.graph.outputs) != 1:
            raise GraphError("invoke() supports single-input single-output graphs")
        in_spec = self.graph.tensors[self.graph.inputs[0]]
        batch = np.asarray(batch, dtype=np.float32)
        expected = (batch.shape[0],) + tuple(in_spec.shape)
        if batch.shape != expected:
            raise GraphError(f"input shape {batch.shape} != expected {expected}")
        if self.max_batch is not None and batch.shape[0] > self.max_batch:
            raise GraphError(
                f"request batch {batch.shape[0]} exceeds the planned batch "
                f"size {self.max_batch}: the arena was planned with "
                f"plan(batch_size={self.max_batch}); re-plan or split the batch"
            )

        if not obs.enabled():
            out = self._run_tiles(batch, None)
        else:
            n = int(batch.shape[0])
            timings = {op.name: 0.0 for op in self.graph.ops}
            with obs.span(
                "interpreter/invoke", model=self.graph.name, batch=n,
                tiles=max(1, -(-n // self.tile)),
            ):
                obs.incr("interpreter.invocations")
                out = self._run_tiles(batch, timings)
                for op in self.graph.ops:
                    obs.observe(f"interpreter.op_seconds.{op.kind}", timings[op.name])
                    obs.incr(f"interpreter.op_calls.{op.kind}")
            self.last_op_timings = timings

        out_spec = self.graph.tensors[self.graph.outputs[0]]
        if out_spec.dtype != "float32" and out_spec.quant is not None:
            return dequantize(out, out_spec.quant)
        return np.asarray(out, dtype=np.float32)

    def _run_tiles(self, batch: np.ndarray, timings: Optional[Dict[str, float]]) -> np.ndarray:
        """The graph output for ``batch``, computed one tile at a time."""
        out_name = self.graph.outputs[0]
        n = batch.shape[0]
        if n <= self.tile:
            return self.run_tile(batch, timings)[out_name]
        out = None
        for start in range(0, n, self.tile):
            part = self.run_tile(batch[start : start + self.tile], timings)[out_name]
            if out is None:
                out = np.empty((n,) + part.shape[1:], dtype=part.dtype)
            out[start : start + len(part)] = part
        return out

    def run_tile(
        self, batch: np.ndarray, timings: Optional[Dict[str, float]] = None
    ) -> Dict[str, np.ndarray]:
        """Run a float32 ``batch`` through every op at once; returns the value map.

        :meth:`invoke` calls this once per tile; calibration calls it on a
        whole batch to read every activation. With ``timings``, each op's
        wall time is added to ``timings[op.name]``.
        """
        in_name = self.graph.inputs[0]
        in_spec = self.graph.tensors[in_name]
        values: Dict[str, np.ndarray] = {
            in_name: quantize(batch, in_spec.quant) if self.is_quantized else batch
        }
        # Materialized constants (from constant folding) enter the value map
        # as read-only broadcast views over the batch axis.
        n = int(batch.shape[0])
        for name in self._const_data_inputs:
            data = self.graph.tensors[name].data
            values[name] = np.broadcast_to(data[None, ...], (n,) + data.shape)

        if timings is None:
            for op in self.graph.ops:
                self._execute(op, values)
        else:
            for op in self.graph.ops:
                start = time.perf_counter()
                self._execute(op, values)
                timings[op.name] += time.perf_counter() - start
        return values

    # ------------------------------------------------------------------
    def _check_operands(self, op: OpNode, values: Dict[str, np.ndarray]) -> None:
        """Pre-dispatch operand verification.

        Turns silent wrong-number bugs (a kernel fed a stale or mis-shaped
        buffer) into a :class:`GraphError` naming the op and operand. For
        each input: constants (weight/bias) must carry data matching their
        declared shape; activations must have been produced, with the
        declared per-example shape and a dtype in the declared family.
        """
        tensors = self.graph.tensors
        for t in op.inputs:
            spec = tensors.get(t)
            if spec is None:
                raise GraphError(f"op {op.name}: references unknown tensor {t!r}")
            if spec.kind in ("weight", "bias"):
                if spec.data is None:
                    raise GraphError(f"op {op.name}: constant {t!r} has no data")
                if tuple(spec.data.shape) != tuple(spec.shape):
                    raise GraphError(
                        f"op {op.name}: constant {t!r} data shape "
                        f"{tuple(spec.data.shape)} != spec shape {tuple(spec.shape)}"
                    )
                continue
            if t not in values:
                raise GraphError(f"op {op.name}: input {t!r} was never produced")
            value = values[t]
            if value.shape[1:] != tuple(spec.shape):
                raise GraphError(
                    f"op {op.name}: input {t!r} has shape {value.shape[1:]} "
                    f"per example, spec says {tuple(spec.shape)}"
                )
            if spec.dtype in _INTEGER_DTYPES:
                if not np.issubdtype(value.dtype, np.integer):
                    raise GraphError(
                        f"op {op.name}: input {t!r} is {value.dtype}, "
                        f"spec dtype {spec.dtype} requires an integer array"
                    )
            elif not np.issubdtype(value.dtype, np.floating):
                raise GraphError(
                    f"op {op.name}: input {t!r} is {value.dtype}, "
                    f"spec dtype {spec.dtype} requires a float array"
                )

    def _execute(self, op: OpNode, values: Dict[str, np.ndarray]) -> None:
        if self.debug_checks:
            self._check_operands(op, values)
        tensors = self.graph.tensors
        out_name = op.outputs[0]
        out_spec = tensors[out_name]
        quantized = out_spec.dtype in _QUANTIZED_DTYPES

        if op.kind in _LINEAR_KINDS:
            x = values[op.inputs[0]]
            if quantized:
                values[out_name] = self._bound[op.name](x)
            else:
                weight, bias = self._bound[op.name]
                stride = _op_stride(op)
                padding = str(op.attrs.get("padding", "same"))
                if op.kind == "conv2d":
                    if get_backend() == "gemm":
                        out, cache = fgemm.conv2d_forward(x, weight, stride, padding)
                        cache.release()
                    else:
                        out, _ = fconv.conv2d_forward(x, weight, stride, padding)
                elif op.kind == "depthwise_conv2d":
                    if get_backend() == "gemm":
                        out, cache = fgemm.depthwise_conv2d_forward(x, weight, stride, padding)
                        cache.release()
                    else:
                        out, _ = fconv.depthwise_conv2d_forward(x, weight, stride, padding)
                else:
                    out = x @ weight
                out += bias  # the kernel's output is a fresh array
                values[out_name] = _float_activation(out, op.attrs.get("activation"))
            return

        if op.kind in ("avg_pool", "max_pool"):
            x = values[op.inputs[0]]
            pool = int(op.attrs["pool"])
            stride = int(op.attrs.get("stride", pool))
            padding = str(op.attrs.get("padding", "valid"))
            if quantized:
                fn = qk.avg_pool_int if op.kind == "avg_pool" else qk.max_pool_int
                values[out_name] = fn(x, pool, stride, padding, out_spec.quant)
            else:
                if op.kind == "avg_pool":
                    values[out_name] = fconv.avg_pool2d_forward(x, pool, stride, padding)
                else:
                    values[out_name], _ = fconv.max_pool2d_forward(x, pool, stride, padding)
            return

        if op.kind == "global_avg_pool":
            x = values[op.inputs[0]]
            if quantized:
                values[out_name] = qk.global_avg_pool_int(x, out_spec.quant)
            else:
                values[out_name] = x.mean(axis=(1, 2))
            return

        if op.kind == "add":
            a = values[op.inputs[0]]
            b = values[op.inputs[1]]
            activation = op.attrs.get("activation")
            if quantized:
                values[out_name] = qk.add_int(
                    a,
                    b,
                    tensors[op.inputs[0]].quant,
                    tensors[op.inputs[1]].quant,
                    out_spec.quant,
                    activation=activation,
                )
            else:
                values[out_name] = _float_activation(a + b, activation)
            return

        if op.kind == "softmax":
            x = values[op.inputs[0]]
            if quantized:
                values[out_name] = qk.softmax_int(x, tensors[op.inputs[0]].quant)
            else:
                shifted = x - x.max(axis=-1, keepdims=True)
                e = np.exp(shifted)
                values[out_name] = e / e.sum(axis=-1, keepdims=True)
            return

        if op.kind == "reshape":
            x = values[op.inputs[0]]
            values[out_name] = x.reshape((x.shape[0],) + tuple(out_spec.shape))
            return

        if op.kind == "batch_norm":
            # y = x * scale + offset, channelwise — the unfused front-end
            # form; repro.runtime.passes folds it into the preceding conv.
            x = values[op.inputs[0]]
            scale_spec = tensors[op.inputs[1]]
            offset_spec = tensors[op.inputs[2]]
            activation = op.attrs.get("activation")
            if quantized:
                in_spec = tensors[op.inputs[0]]
                if scale_spec.dtype == "float32":
                    scale = scale_spec.data
                else:
                    scale = dequantize(scale_spec.data, scale_spec.quant)
                if offset_spec.dtype == "float32":
                    offset = offset_spec.data
                else:
                    # Offset follows the conv-bias convention: int32 scaled
                    # by in_scale * scale_scale (quantize_graph second pass).
                    effective = in_spec.quant.scale[0] * scale_spec.quant.scale
                    offset = offset_spec.data.astype(np.float64) * effective
                out = dequantize(x, in_spec.quant) * scale + offset
                values[out_name] = quantize(
                    _float_activation(out.astype(np.float32), activation), out_spec.quant
                )
            else:
                out = x * scale_spec.data + offset_spec.data
                values[out_name] = _float_activation(out, activation)
            return

        if op.kind in ("relu", "relu6"):
            x = values[op.inputs[0]]
            if quantized:
                in_spec = tensors[op.inputs[0]]
                out = _float_activation(dequantize(x, in_spec.quant), op.kind)
                values[out_name] = quantize(out, out_spec.quant)
            else:
                values[out_name] = _float_activation(x, op.kind)
            return

        if op.kind == "quantize":
            values[out_name] = quantize(values[op.inputs[0]], out_spec.quant)
            return

        if op.kind == "dequantize":
            in_spec = tensors[op.inputs[0]]
            values[out_name] = dequantize(values[op.inputs[0]], in_spec.quant)
            return

        raise GraphError(f"op {op.name}: interpreter has no kernel for kind {op.kind}")


def _check_batch_size(value, what: str) -> int:
    """Validate a batch-size argument: a positive integral count.

    Rejects bools, floats, and sub-1 values with a clear GraphError —
    before PR 7 a bad value surfaced as an arena-size arithmetic error (or
    a broadcast failure deep in dispatch) far from the caller.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise GraphError(f"{what} must be a positive int, got {value!r}")
    if value < 1:
        raise GraphError(f"{what} must be >= 1, got {value}")
    return int(value)


def _op_stride(op: OpNode):
    """Read an op's stride attribute, supporting asymmetric (h, w) strides."""
    if "stride_h" in op.attrs:
        return (int(op.attrs["stride_h"]), int(op.attrs.get("stride_w", op.attrs["stride_h"])))
    return int(op.attrs.get("stride", 1))


def sample_elements(graph: Graph) -> int:
    """The largest per-sample buffer, in elements, that any op of ``graph`` touches.

    Counts every non-constant operand and result, and each ``conv2d``'s
    im2col matrix (OH·OW·KH·KW·C per sample).
    """
    tensors = graph.tensors
    largest = 1
    for op in graph.ops:
        for t in op.inputs + op.outputs:
            if tensors[t].kind not in ("weight", "bias"):
                largest = max(largest, math.prod(tensors[t].shape))
        if op.kind == "conv2d":
            kh, kw, c = tensors[op.inputs[1]].shape[:3]
            oh, ow = tensors[op.outputs[0]].shape[:2]
            largest = max(largest, oh * ow * kh * kw * c)
    return largest


def _float_activation(x: np.ndarray, activation: Optional[str]) -> np.ndarray:
    if activation is None:
        return x.astype(np.float32, copy=False)
    if activation == "relu":
        return np.maximum(x, 0.0).astype(np.float32, copy=False)
    if activation == "relu6":
        return np.clip(x, 0.0, 6.0).astype(np.float32, copy=False)
    raise GraphError(f"unknown activation {activation!r}")

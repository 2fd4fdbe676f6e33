"""Declarative architecture specifications.

An :class:`ArchSpec` is the single source of truth for a model architecture.
It compiles three ways, guaranteeing that the model we train, the model we
"deploy" (quantize + serialize + memory-plan) and the model we time on the
hardware model are the same network:

* :func:`build_module` — a float training module (optionally with fake-quant
  nodes for QAT);
* :func:`export_graph` — a runtime graph with BN folded into convolutions
  and int8/int4 per-channel quantized weights (the TFLite-converter flow);
* :func:`arch_workload` — per-layer op counts for the latency/energy model.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ShapeError
from repro.hw.workload import LayerWorkload, ModelWorkload
from repro.nn.layers import (
    AvgPool2D,
    BatchNorm,
    Conv2D,
    Dense,
    DepthwiseConv2D,
    Dropout,
    Flatten,
    GlobalAvgPool,
    MaxPool2D,
)
from repro.nn.module import Module
from repro.quantization.fake_quant import FakeQuant
from repro.quantization.params import (
    QuantParams,
    affine_params_from_range,
    quantize,
    symmetric_params_from_absmax,
)
from repro.runtime.graph import Graph, OpNode, TensorSpec
from repro.runtime.interpreter import Interpreter
from repro.tensor import Tensor
from repro.tensor.conv import as_pair, conv_output_size
from repro.utils.rng import RngLike, new_rng, spawn_rng

Shape = Tuple[int, ...]


# ----------------------------------------------------------------------
# Layer specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ConvSpec:
    """Conv2D + BatchNorm + activation.

    ``kernel`` and ``stride`` accept an int or an (h, w) pair — DS-CNN's
    10×4 stem with stride (2, 1) and similar audio-model geometries are
    first-class citizens.
    """

    out_channels: int
    kernel: Union[int, Tuple[int, int]] = 3
    stride: Union[int, Tuple[int, int]] = 1
    padding: str = "same"
    activation: Optional[str] = "relu"

    def __post_init__(self) -> None:
        object.__setattr__(self, "kernel", as_pair(self.kernel))
        object.__setattr__(self, "stride", as_pair(self.stride))


@dataclass(frozen=True)
class DWConvSpec:
    """DepthwiseConv2D + BatchNorm + activation."""

    kernel: Union[int, Tuple[int, int]] = 3
    stride: Union[int, Tuple[int, int]] = 1
    padding: str = "same"
    activation: Optional[str] = "relu"

    def __post_init__(self) -> None:
        object.__setattr__(self, "kernel", as_pair(self.kernel))
        object.__setattr__(self, "stride", as_pair(self.stride))


@dataclass(frozen=True)
class DenseSpec:
    units: int
    activation: Optional[str] = None


@dataclass(frozen=True)
class PoolSpec:
    kind: str = "avg"  # or "max"
    pool: int = 2
    stride: Optional[int] = None
    padding: str = "valid"


@dataclass(frozen=True)
class GlobalPoolSpec:
    pass


@dataclass(frozen=True)
class FlattenSpec:
    pass


@dataclass(frozen=True)
class DropoutSpec:
    """Training-time only; elided at export."""

    rate: float = 0.2


@dataclass(frozen=True)
class ResidualSpec:
    """``output = body(x) + shortcut(x)`` with a fused activation.

    ``shortcut`` is ``"identity"`` (stride-1, equal channels) or
    ``"avgpool"`` (the paper's parallel average-pooling branch used when the
    body downsamples). Channel counts of body output and shortcut must agree.
    """

    body: Tuple[object, ...]
    shortcut: str = "identity"
    activation: Optional[str] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "body", tuple(self.body))
        if self.shortcut not in ("identity", "avgpool"):
            raise ShapeError(f"unknown residual shortcut {self.shortcut!r}")


LayerSpecType = Union[
    ConvSpec,
    DWConvSpec,
    DenseSpec,
    PoolSpec,
    GlobalPoolSpec,
    FlattenSpec,
    DropoutSpec,
    ResidualSpec,
]


@dataclass(frozen=True)
class ArchSpec:
    """A complete architecture: input geometry plus an ordered layer list."""

    name: str
    input_shape: Shape
    layers: Tuple[LayerSpecType, ...]
    include_softmax: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "input_shape", tuple(int(d) for d in self.input_shape))

    def with_name(self, name: str) -> "ArchSpec":
        return replace(self, name=name)


# ----------------------------------------------------------------------
# Shape inference
# ----------------------------------------------------------------------
def _infer_shape(spec: LayerSpecType, shape: Shape) -> Shape:
    if isinstance(spec, ConvSpec):
        h, w, _ = shape
        oh = conv_output_size(h, spec.kernel[0], spec.stride[0], spec.padding)
        ow = conv_output_size(w, spec.kernel[1], spec.stride[1], spec.padding)
        return (oh, ow, spec.out_channels)
    if isinstance(spec, DWConvSpec):
        h, w, c = shape
        oh = conv_output_size(h, spec.kernel[0], spec.stride[0], spec.padding)
        ow = conv_output_size(w, spec.kernel[1], spec.stride[1], spec.padding)
        return (oh, ow, c)
    if isinstance(spec, DenseSpec):
        return (spec.units,)
    if isinstance(spec, PoolSpec):
        h, w, c = shape
        stride = spec.stride if spec.stride is not None else spec.pool
        oh = conv_output_size(h, spec.pool, stride, spec.padding)
        ow = conv_output_size(w, spec.pool, stride, spec.padding)
        return (oh, ow, c)
    if isinstance(spec, GlobalPoolSpec):
        return (shape[-1],)
    if isinstance(spec, FlattenSpec):
        out = 1
        for d in shape:
            out *= d
        return (out,)
    if isinstance(spec, DropoutSpec):
        return shape
    if isinstance(spec, ResidualSpec):
        body_shape = shape
        for inner in spec.body:
            body_shape = _infer_shape(inner, body_shape)
        short_shape = _shortcut_shape(spec, shape)
        if body_shape != short_shape:
            raise ShapeError(
                f"residual branch shapes differ: body {body_shape} vs shortcut {short_shape}"
            )
        return body_shape
    raise ShapeError(f"unknown layer spec {type(spec).__name__}")


def _residual_stride(spec: ResidualSpec) -> int:
    """Total (symmetric) downsampling factor of a residual body.

    Residual bodies must use symmetric strides so the average-pool shortcut
    can mirror the downsampling with a square pool.
    """
    stride = 1
    for inner in spec.body:
        if isinstance(inner, (ConvSpec, DWConvSpec)):
            sh, sw = inner.stride
            if sh != sw:
                raise ShapeError("residual bodies require symmetric strides")
            stride *= sh
        elif isinstance(inner, PoolSpec):
            stride *= inner.stride if inner.stride is not None else inner.pool
        elif isinstance(inner, ResidualSpec):
            stride *= _residual_stride(inner)
    return stride


def _shortcut_shape(spec: ResidualSpec, shape: Shape) -> Shape:
    if spec.shortcut == "identity":
        return shape
    stride = _residual_stride(spec)
    h, w, c = shape
    oh = conv_output_size(h, stride, stride, "same")
    ow = conv_output_size(w, stride, stride, "same")
    return (oh, ow, c)


def output_shape(arch: ArchSpec) -> Shape:
    shape = arch.input_shape
    for spec in arch.layers:
        shape = _infer_shape(spec, shape)
    return shape


def intermediate_shapes(arch: ArchSpec) -> List[Shape]:
    """Shape after each top-level layer (useful for debugging/backbones)."""
    shapes = []
    shape = arch.input_shape
    for spec in arch.layers:
        shape = _infer_shape(spec, shape)
        shapes.append(shape)
    return shapes


# ----------------------------------------------------------------------
# Training module
# ----------------------------------------------------------------------
class ConvBNAct(Module):
    """Conv (no bias) + BN + activation, foldable for deployment."""

    def __init__(self, in_channels: int, spec: ConvSpec, rng: np.random.Generator) -> None:
        super().__init__()
        self.spec = spec
        self.conv = Conv2D(
            in_channels,
            spec.out_channels,
            spec.kernel,
            stride=spec.stride,
            padding=spec.padding,
            use_bias=False,
            rng=rng,
        )
        self.bn = BatchNorm(spec.out_channels)

    def forward(self, x: Tensor) -> Tensor:
        return _apply_activation(self.bn(self.conv(x)), self.spec.activation)

    def fold(self) -> Tuple[np.ndarray, np.ndarray]:
        """Fold BN into the conv: returns (weight, bias) in float32."""
        scale = self.bn.gamma.data / np.sqrt(self.bn.running_var + self.bn.eps)
        weight = self.conv.weight.data * scale  # broadcast over last axis (OC)
        bias = self.bn.beta.data - self.bn.running_mean * scale
        return weight.astype(np.float32), bias.astype(np.float32)


class DWConvBNAct(Module):
    """Depthwise conv (no bias) + BN + activation, foldable."""

    def __init__(self, channels: int, spec: DWConvSpec, rng: np.random.Generator) -> None:
        super().__init__()
        self.spec = spec
        self.conv = DepthwiseConv2D(
            channels,
            spec.kernel,
            stride=spec.stride,
            padding=spec.padding,
            use_bias=False,
            rng=rng,
        )
        self.bn = BatchNorm(channels)

    def forward(self, x: Tensor) -> Tensor:
        return _apply_activation(self.bn(self.conv(x)), self.spec.activation)

    def fold(self) -> Tuple[np.ndarray, np.ndarray]:
        scale = self.bn.gamma.data / np.sqrt(self.bn.running_var + self.bn.eps)
        weight = self.conv.weight.data * scale
        bias = self.bn.beta.data - self.bn.running_mean * scale
        return weight.astype(np.float32), bias.astype(np.float32)


class DenseAct(Module):
    def __init__(self, in_features: int, spec: DenseSpec, rng: np.random.Generator) -> None:
        super().__init__()
        self.spec = spec
        self.dense = Dense(in_features, spec.units, use_bias=True, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return _apply_activation(self.dense(x), self.spec.activation)


class ResidualBlock(Module):
    def __init__(self, body: List[Module], spec: ResidualSpec) -> None:
        super().__init__()
        self.body = body
        self.spec = spec
        stride = _residual_stride(spec)
        self.pool = (
            AvgPool2D(stride, stride, padding="same") if spec.shortcut == "avgpool" else None
        )

    def forward(self, x: Tensor) -> Tensor:
        out = x
        for layer in self.body:
            out = layer(out)
        shortcut = self.pool(x) if self.pool is not None else x
        return _apply_activation(out + shortcut, self.spec.activation)


def _apply_activation(x: Tensor, activation: Optional[str]) -> Tensor:
    if activation is None:
        return x
    if activation == "relu":
        return x.relu()
    if activation == "relu6":
        return x.relu6()
    raise ShapeError(f"unknown activation {activation!r}")


class SpecModel(Module):
    """A trainable model compiled from an :class:`ArchSpec`.

    With ``qat_bits`` set, fake-quant nodes emulate integer deployment on
    the input and after every block (quantization-aware training).
    """

    def __init__(
        self, arch: ArchSpec, rng: RngLike = 0, qat_bits: Optional[int] = None
    ) -> None:
        super().__init__()
        self.arch = arch
        self.qat_bits = qat_bits
        rng = new_rng(rng)
        self.blocks = _build_blocks(arch.layers, arch.input_shape, rng)
        self.input_fq = FakeQuant(bits=qat_bits) if qat_bits else None
        self.block_fq = (
            [FakeQuant(bits=qat_bits) for _ in self.blocks] if qat_bits else None
        )

    def forward(self, x: Tensor) -> Tensor:
        if self.input_fq is not None:
            x = self.input_fq(x)
        for i, block in enumerate(self.blocks):
            x = block(x)
            if self.block_fq is not None and _is_quantizable_block(block):
                x = self.block_fq[i](x)
        return x


def _is_quantizable_block(block: Module) -> bool:
    return not isinstance(block, (Dropout, Flatten))


def _build_blocks(
    layers: Sequence[LayerSpecType], shape: Shape, rng: np.random.Generator
) -> List[Module]:
    blocks: List[Module] = []
    for spec in layers:
        if isinstance(spec, ConvSpec):
            blocks.append(ConvBNAct(shape[-1], spec, spawn_rng(rng)))
        elif isinstance(spec, DWConvSpec):
            blocks.append(DWConvBNAct(shape[-1], spec, spawn_rng(rng)))
        elif isinstance(spec, DenseSpec):
            blocks.append(DenseAct(shape[-1] if len(shape) == 1 else int(np.prod(shape)), spec, spawn_rng(rng)))
        elif isinstance(spec, PoolSpec):
            stride = spec.stride if spec.stride is not None else spec.pool
            pool_cls = AvgPool2D if spec.kind == "avg" else MaxPool2D
            blocks.append(pool_cls(spec.pool, stride, padding=spec.padding))
        elif isinstance(spec, GlobalPoolSpec):
            blocks.append(GlobalAvgPool())
        elif isinstance(spec, FlattenSpec):
            blocks.append(Flatten())
        elif isinstance(spec, DropoutSpec):
            blocks.append(Dropout(spec.rate, rng=spawn_rng(rng)))
        elif isinstance(spec, ResidualSpec):
            body = _build_blocks(spec.body, shape, rng)
            blocks.append(ResidualBlock(body, spec))
        else:
            raise ShapeError(f"unknown layer spec {type(spec).__name__}")
        shape = _infer_shape(spec, shape)
    return blocks


def build_module(arch: ArchSpec, rng: RngLike = 0, qat_bits: Optional[int] = None) -> SpecModel:
    """Compile an architecture into a trainable module."""
    return SpecModel(arch, rng=rng, qat_bits=qat_bits)


# ----------------------------------------------------------------------
# Hardware workload
# ----------------------------------------------------------------------
def arch_workload(arch: ArchSpec) -> ModelWorkload:
    """Lower an architecture to per-layer hardware workloads."""
    model = ModelWorkload(name=arch.name)
    _append_workloads(arch.layers, arch.input_shape, model, prefix="")
    if arch.include_softmax:
        model.append(LayerWorkload.softmax("softmax", output_shape(arch)[-1]))
    return model


def _append_workloads(
    layers: Sequence[LayerSpecType], shape: Shape, model: ModelWorkload, prefix: str
) -> Shape:
    for i, spec in enumerate(layers):
        name = f"{prefix}{i}_{type(spec).__name__}"
        if isinstance(spec, ConvSpec):
            model.append(
                LayerWorkload.conv2d(
                    name, shape, spec.out_channels, spec.kernel, spec.stride, spec.padding
                )
            )
        elif isinstance(spec, DWConvSpec):
            model.append(
                LayerWorkload.depthwise_conv2d(name, shape, spec.kernel, spec.stride, spec.padding)
            )
        elif isinstance(spec, DenseSpec):
            in_features = shape[-1] if len(shape) == 1 else int(np.prod(shape))
            model.append(LayerWorkload.dense(name, in_features, spec.units))
        elif isinstance(spec, PoolSpec):
            model.append(
                LayerWorkload.pool(
                    name,
                    shape,
                    spec.pool,
                    spec.stride,
                    kind=f"{spec.kind}_pool",
                    padding=spec.padding,
                )
            )
        elif isinstance(spec, GlobalPoolSpec):
            model.append(LayerWorkload.global_avg_pool(name, shape))
        elif isinstance(spec, ResidualSpec):
            _append_workloads(spec.body, shape, model, prefix=f"{name}.")
            out_shape = _infer_shape(spec, shape)
            if spec.shortcut == "avgpool":
                stride = _residual_stride(spec)
                model.append(
                    LayerWorkload.pool(
                        f"{name}.shortcut", shape, stride, stride, kind="avg_pool", padding="same"
                    )
                )
            model.append(LayerWorkload.add(f"{name}.add", out_shape))
        # Flatten/Dropout contribute no device work.
        shape = _infer_shape(spec, shape)
    return shape


# ----------------------------------------------------------------------
# Graph export (the TFLite-converter analogue)
# ----------------------------------------------------------------------
#: Default activation range when no calibration data is available.
_DEFAULT_RANGE = (-6.0, 6.0)


class _GraphBuilder:
    """Walks spec + trained module in lockstep, emitting a float graph."""

    def __init__(self, arch: ArchSpec, module: Optional[SpecModel]) -> None:
        self.arch = arch
        self.module = module
        self.graph = Graph(name=arch.name)
        self.counter = 0

    def fresh(self, tag: str) -> str:
        self.counter += 1
        return f"t{self.counter}_{tag}"

    def build(self) -> Graph:
        in_name = "input"
        self.graph.add_tensor(
            TensorSpec(name=in_name, shape=self.arch.input_shape, dtype="float32", kind="input")
        )
        self.graph.inputs = [in_name]
        blocks = self.module.blocks if self.module is not None else None
        current = self._emit_layers(
            self.arch.layers, blocks, in_name, self.arch.input_shape
        )
        if self.arch.include_softmax:
            out_shape = self.graph.tensors[current].shape
            out = self.fresh("softmax")
            self.graph.add_tensor(
                TensorSpec(name=out, shape=out_shape, dtype="float32", kind="activation")
            )
            self.graph.add_op(
                OpNode(kind="softmax", name="softmax", inputs=[current], outputs=[out])
            )
            current = out
        self.graph.tensors[current].kind = "output"
        self.graph.outputs = [current]
        self.graph.validate()
        return self.graph

    # ------------------------------------------------------------------
    def _emit_layers(
        self,
        layers: Sequence[LayerSpecType],
        blocks: Optional[Sequence[Module]],
        current: str,
        shape: Shape,
    ) -> str:
        for i, spec in enumerate(layers):
            block = blocks[i] if blocks is not None else None
            current, shape = self._emit_layer(spec, block, current, shape)
        return current

    def _emit_layer(
        self, spec: LayerSpecType, block: Optional[Module], current: str, shape: Shape
    ) -> Tuple[str, Shape]:
        out_shape = _infer_shape(spec, shape)
        if isinstance(spec, (ConvSpec, DWConvSpec)):
            kind = "conv2d" if isinstance(spec, ConvSpec) else "depthwise_conv2d"
            if block is not None:
                weight, bias = block.fold()
            else:
                weight, bias = self._random_conv_weights(spec, shape)
            w_name = self.fresh("w")
            b_name = self.fresh("b")
            out_name = self.fresh(kind)
            self.graph.add_tensor(
                TensorSpec(name=w_name, shape=weight.shape, dtype="float32", kind="weight", data=weight)
            )
            self.graph.add_tensor(
                TensorSpec(name=b_name, shape=bias.shape, dtype="float32", kind="bias", data=bias)
            )
            self.graph.add_tensor(
                TensorSpec(name=out_name, shape=out_shape, dtype="float32", kind="activation")
            )
            self.graph.add_op(
                OpNode(
                    kind=kind,
                    name=out_name,
                    inputs=[current, w_name, b_name],
                    outputs=[out_name],
                    attrs={
                        "kernel_h": spec.kernel[0],
                        "kernel_w": spec.kernel[1],
                        "stride_h": spec.stride[0],
                        "stride_w": spec.stride[1],
                        "padding": spec.padding,
                        "activation": spec.activation,
                    },
                )
            )
            return out_name, out_shape

        if isinstance(spec, DenseSpec):
            if block is not None:
                weight = block.dense.weight.data.copy()
                bias = (
                    block.dense.bias.data.copy()
                    if block.dense.bias is not None
                    else np.zeros(spec.units, dtype=np.float32)
                )
            else:
                in_features = shape[-1] if len(shape) == 1 else int(np.prod(shape))
                rng = np.random.default_rng(self.counter)
                weight = rng.normal(0, 0.05, size=(in_features, spec.units)).astype(np.float32)
                bias = np.zeros(spec.units, dtype=np.float32)
            w_name = self.fresh("w")
            b_name = self.fresh("b")
            out_name = self.fresh("dense")
            self.graph.add_tensor(
                TensorSpec(name=w_name, shape=weight.shape, dtype="float32", kind="weight", data=weight)
            )
            self.graph.add_tensor(
                TensorSpec(name=b_name, shape=bias.shape, dtype="float32", kind="bias", data=bias)
            )
            self.graph.add_tensor(
                TensorSpec(name=out_name, shape=out_shape, dtype="float32", kind="activation")
            )
            self.graph.add_op(
                OpNode(
                    kind="dense",
                    name=out_name,
                    inputs=[current, w_name, b_name],
                    outputs=[out_name],
                    attrs={"activation": spec.activation},
                )
            )
            return out_name, out_shape

        if isinstance(spec, PoolSpec):
            out_name = self.fresh(f"{spec.kind}_pool")
            self.graph.add_tensor(
                TensorSpec(name=out_name, shape=out_shape, dtype="float32", kind="activation")
            )
            stride = spec.stride if spec.stride is not None else spec.pool
            self.graph.add_op(
                OpNode(
                    kind=f"{spec.kind}_pool",
                    name=out_name,
                    inputs=[current],
                    outputs=[out_name],
                    attrs={"pool": spec.pool, "stride": stride, "padding": spec.padding},
                )
            )
            return out_name, out_shape

        if isinstance(spec, GlobalPoolSpec):
            out_name = self.fresh("gap")
            self.graph.add_tensor(
                TensorSpec(name=out_name, shape=out_shape, dtype="float32", kind="activation")
            )
            self.graph.add_op(
                OpNode(kind="global_avg_pool", name=out_name, inputs=[current], outputs=[out_name])
            )
            return out_name, out_shape

        if isinstance(spec, FlattenSpec):
            out_name = self.fresh("reshape")
            self.graph.add_tensor(
                TensorSpec(name=out_name, shape=out_shape, dtype="float32", kind="activation")
            )
            self.graph.add_op(
                OpNode(kind="reshape", name=out_name, inputs=[current], outputs=[out_name])
            )
            return out_name, out_shape

        if isinstance(spec, DropoutSpec):
            return current, out_shape  # elided at export

        if isinstance(spec, ResidualSpec):
            body_blocks = block.body if block is not None else None
            body_out = self._emit_layers(spec.body, body_blocks, current, shape)
            if spec.shortcut == "avgpool":
                stride = _residual_stride(spec)
                short_name = self.fresh("shortcut_pool")
                self.graph.add_tensor(
                    TensorSpec(
                        name=short_name,
                        shape=_shortcut_shape(spec, shape),
                        dtype="float32",
                        kind="activation",
                    )
                )
                self.graph.add_op(
                    OpNode(
                        kind="avg_pool",
                        name=short_name,
                        inputs=[current],
                        outputs=[short_name],
                        attrs={"pool": stride, "stride": stride, "padding": "same"},
                    )
                )
                shortcut = short_name
            else:
                shortcut = current
            out_name = self.fresh("add")
            self.graph.add_tensor(
                TensorSpec(name=out_name, shape=out_shape, dtype="float32", kind="activation")
            )
            self.graph.add_op(
                OpNode(
                    kind="add",
                    name=out_name,
                    inputs=[body_out, shortcut],
                    outputs=[out_name],
                    attrs={"activation": spec.activation},
                )
            )
            return out_name, out_shape

        raise ShapeError(f"cannot export layer spec {type(spec).__name__}")

    def _random_conv_weights(
        self, spec: Union[ConvSpec, DWConvSpec], shape: Shape
    ) -> Tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(self.counter)
        kh, kw = spec.kernel
        if isinstance(spec, ConvSpec):
            w_shape = (kh, kw, shape[-1], spec.out_channels)
            bias = np.zeros(spec.out_channels, dtype=np.float32)
        else:
            w_shape = (kh, kw, shape[-1])
            bias = np.zeros(shape[-1], dtype=np.float32)
        fan_in = kh * kw * shape[-1]
        weight = rng.normal(0, np.sqrt(2.0 / fan_in), size=w_shape).astype(np.float32)
        return weight, bias


def export_float_graph(arch: ArchSpec, module: Optional[SpecModel] = None) -> Graph:
    """Export a float graph with BN folded (pre-quantization)."""
    if module is not None:
        module.eval()
    return _GraphBuilder(arch, module).build()


def calibrate_ranges(graph: Graph, data: np.ndarray) -> Dict[str, Tuple[float, float]]:
    """Observe min/max of every activation tensor on calibration data."""
    # One pass over the whole batch (not invoke's tiles): every activation
    # of every sample is in the returned value map.
    values = Interpreter(graph).run_tile(np.asarray(data, dtype=np.float32))
    return {
        name: (float(v.min()), float(v.max()))
        for name, v in values.items()
        if graph.tensors[name].kind in ("input", "activation", "output")
    }


def quantize_graph(
    float_graph: Graph,
    calibration: Optional[np.ndarray] = None,
    bits: int = 8,
    weight_bits: Optional[int] = None,
    weight_bits_map: Optional[Dict[str, int]] = None,
    activation_bits_map: Optional[Dict[str, int]] = None,
) -> Graph:
    """Quantize a float graph to integers (the TFLite converter step).

    Parameters
    ----------
    calibration:
        Batch of representative inputs used to set activation ranges; if
        None, a generic default range is used (tests only).
    bits / weight_bits:
        Activation and weight widths. ``bits=4`` models the paper's
        sub-byte deployment; weights default to the activation width.
    weight_bits_map / activation_bits_map:
        Optional per-tensor overrides for mixed-precision deployment
        (paper §6.3); see :func:`repro.quantization.mixed.assign_bits`.
    """
    weight_bits = weight_bits if weight_bits is not None else bits
    weight_bits_map = weight_bits_map or {}
    activation_bits_map = activation_bits_map or {}
    ranges = (
        calibrate_ranges(float_graph, calibration)
        if calibration is not None
        else {}
    )

    q = Graph(name=float_graph.name, inputs=list(float_graph.inputs), outputs=list(float_graph.outputs))
    for name, spec in float_graph.tensors.items():
        if spec.kind in ("weight",):
            w_bits = weight_bits_map.get(name, weight_bits)
            data = spec.data
            if data.ndim >= 2:
                axes = tuple(range(data.ndim - 1))
                absmax = np.abs(data).max(axis=axes)
            else:
                absmax = np.abs(data).max(keepdims=True)
            params = symmetric_params_from_absmax(absmax, bits=w_bits)
            q.add_tensor(
                TensorSpec(
                    name=name,
                    shape=spec.shape,
                    dtype="int4" if w_bits == 4 else "int8",
                    kind="weight",
                    data=quantize(data, params),
                    quant=params,
                )
            )
        elif spec.kind == "bias":
            # Bias is int32 scaled by in_scale * w_scale; filled in below
            # once the producing op's operand scales are known.
            q.add_tensor(
                TensorSpec(name=name, shape=spec.shape, dtype="int32", kind="bias", data=None)
            )
        else:
            a_bits = activation_bits_map.get(name, bits)
            low, high = ranges.get(name, _DEFAULT_RANGE)
            params = affine_params_from_range(low, high, bits=a_bits)
            q.add_tensor(
                TensorSpec(
                    name=name,
                    shape=spec.shape,
                    dtype="int4" if a_bits == 4 else "int8",
                    kind=spec.kind,
                    quant=params,
                )
            )
    for op in float_graph.ops:
        q.add_op(OpNode(kind=op.kind, name=op.name, inputs=list(op.inputs), outputs=list(op.outputs), attrs=dict(op.attrs)))

    # Second pass: quantize biases with the correct effective scales. A
    # batch_norm offset follows the conv-bias convention: int32 scaled by
    # in_scale * scale_scale (its input[1] is the rank-1 scale "weight").
    for op in q.ops:
        if op.kind in ("conv2d", "depthwise_conv2d", "dense", "batch_norm") and len(op.inputs) > 2:
            in_params = q.tensors[op.inputs[0]].quant
            w_params = q.tensors[op.inputs[1]].quant
            float_bias = float_graph.tensors[op.inputs[2]].data
            effective = in_params.scale[0] * w_params.scale
            bias_q = np.round(float_bias / effective).astype(np.int64)
            bias_q = np.clip(bias_q, -(2**31), 2**31 - 1).astype(np.int32)
            q.tensors[op.inputs[2]].data = bias_q
    q.validate()
    return q


def export_graph(
    arch: ArchSpec,
    module: Optional[SpecModel] = None,
    calibration: Optional[np.ndarray] = None,
    bits: int = 8,
    weight_bits: Optional[int] = None,
    bit_policy=None,
) -> Graph:
    """Full deployment export: fold BN, quantize weights and activations.

    ``bit_policy`` (a :class:`repro.quantization.mixed.BitPolicy`) enables
    mixed-precision deployment and overrides ``bits``/``weight_bits``.
    """
    float_graph = export_float_graph(arch, module)
    if bit_policy is not None:
        from repro.quantization.mixed import assign_bits

        weight_map, act_map = assign_bits(float_graph, bit_policy)
        return quantize_graph(
            float_graph,
            calibration=calibration,
            bits=bit_policy.default_activation_bits,
            weight_bits=bit_policy.default_weight_bits,
            weight_bits_map=weight_map,
            activation_bits_map=act_map,
        )
    return quantize_graph(float_graph, calibration=calibration, bits=bits, weight_bits=weight_bits)

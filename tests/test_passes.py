"""Graph compiler (repro.runtime.passes): equivalence and rewrite tests.

Every pass must be semantics-preserving: the compiled graph's outputs match
the uncompiled graph's at the repo-wide differential tolerance (exactly, for
the float fusion passes and the identical-params quantize elisions; within a
quantization-scale bound for quantize->dequantize removal). The pipeline
tests run randomized seeded graphs under both conv backends and replay the
golden fixture, and the batch tests pin vectorized-dispatch parity.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import GraphError
from repro.quantization.params import QuantParams, affine_params_from_range
from repro.runtime.graph import Graph, OpNode, TensorSpec
from repro.runtime import interpreter
from repro.runtime.interpreter import Interpreter, sample_elements
from repro.runtime.passes import (
    LEVELS,
    CompiledModel,
    canonical_level,
    compile_graph,
    elide_quant_pairs,
    eliminate_dead,
    fold_constants,
    fuse_activation,
    fuse_batch_norm,
)
from repro.runtime.planner import plan_arena
from repro.runtime.serializer import deserialize, serialize
from repro.tensor import backend_scope

TOL = dict(rtol=1e-4, atol=1e-5)


# ----------------------------------------------------------------------
# Graph builders
# ----------------------------------------------------------------------
def _unfused_graph(
    seed: int = 0,
    blocks: int = 2,
    input_shape=(8, 8, 3),
    width: int = 4,
    activation: str = "relu",
    with_bias: bool = True,
) -> Graph:
    """conv -> batch_norm -> relu[6] blocks + gap + dense, all unfused."""
    rng = np.random.default_rng(seed)
    h, w_dim, _ = input_shape
    g = Graph(name=f"unfused-{seed}", inputs=["x"], outputs=["logits"])
    g.add_tensor(TensorSpec("x", tuple(input_shape), "float32", "input"))
    current, channels = "x", input_shape[-1]
    for i in range(blocks):
        weight = rng.normal(0, 0.3, (3, 3, channels, width)).astype(np.float32)
        g.add_tensor(TensorSpec(f"b{i}_w", weight.shape, "float32", "weight", data=weight))
        inputs = [current, f"b{i}_w"]
        if with_bias:
            bias = rng.normal(0, 0.1, (width,)).astype(np.float32)
            g.add_tensor(TensorSpec(f"b{i}_b", bias.shape, "float32", "bias", data=bias))
            inputs.append(f"b{i}_b")
        g.add_tensor(TensorSpec(f"b{i}_conv", (h, w_dim, width), "float32", "activation"))
        g.add_op(
            OpNode(
                kind="conv2d",
                name=f"b{i}_conv",
                inputs=inputs,
                outputs=[f"b{i}_conv"],
                attrs={"stride": 1, "padding": "same", "activation": None},
            )
        )
        scale = rng.uniform(0.5, 1.5, (width,)).astype(np.float32)
        offset = rng.normal(0, 0.2, (width,)).astype(np.float32)
        g.add_tensor(TensorSpec(f"b{i}_scale", scale.shape, "float32", "weight", data=scale))
        g.add_tensor(TensorSpec(f"b{i}_offset", offset.shape, "float32", "bias", data=offset))
        g.add_tensor(TensorSpec(f"b{i}_bn", (h, w_dim, width), "float32", "activation"))
        g.add_op(
            OpNode(
                kind="batch_norm",
                name=f"b{i}_bn",
                inputs=[f"b{i}_conv", f"b{i}_scale", f"b{i}_offset"],
                outputs=[f"b{i}_bn"],
            )
        )
        g.add_tensor(TensorSpec(f"b{i}_act", (h, w_dim, width), "float32", "activation"))
        g.add_op(
            OpNode(kind=activation, name=f"b{i}_act", inputs=[f"b{i}_bn"], outputs=[f"b{i}_act"])
        )
        current, channels = f"b{i}_act", width
    g.add_tensor(TensorSpec("gap", (channels,), "float32", "activation"))
    g.add_op(OpNode(kind="global_avg_pool", name="gap", inputs=[current], outputs=["gap"]))
    head_w = rng.normal(0, 0.3, (channels, 5)).astype(np.float32)
    head_b = np.zeros(5, dtype=np.float32)
    g.add_tensor(TensorSpec("fc_w", head_w.shape, "float32", "weight", data=head_w))
    g.add_tensor(TensorSpec("fc_b", head_b.shape, "float32", "bias", data=head_b))
    g.add_tensor(TensorSpec("logits", (5,), "float32", "output"))
    g.add_op(OpNode(kind="dense", name="logits", inputs=["gap", "fc_w", "fc_b"], outputs=["logits"]))
    return g


def _random_graph(seed: int) -> Graph:
    """A randomized unfused graph: varying depth, activation, dead branch."""
    rng = np.random.default_rng(1000 + seed)
    g = _unfused_graph(
        seed=seed,
        blocks=int(rng.integers(1, 3)),
        width=int(rng.integers(2, 6)),
        activation=["relu", "relu6"][int(rng.integers(0, 2))],
        with_bias=bool(rng.integers(0, 2)),
    )
    if rng.integers(0, 2):
        # A dead branch off the input: produced, never consumed.
        g.add_tensor(TensorSpec("dead_out", g.tensors["x"].shape, "float32", "activation"))
        g.add_op(OpNode(kind="relu", name="dead_out", inputs=["x"], outputs=["dead_out"]))
    return g


def _invoke(graph: Graph, x: np.ndarray) -> np.ndarray:
    return Interpreter(graph).invoke(x)


def _x(graph: Graph, n: int = 3, seed: int = 99) -> np.ndarray:
    shape = tuple(graph.tensors[graph.inputs[0]].shape)
    return np.random.default_rng(seed).normal(0, 1, (n,) + shape).astype(np.float32)


# ----------------------------------------------------------------------
# Per-pass differential tests
# ----------------------------------------------------------------------
class TestFuseBatchNorm:
    def test_parity_and_structure(self):
        g = _unfused_graph(seed=1)
        x = _x(g)
        ref = _invoke(g, x)
        out, rewrites = fuse_batch_norm(g)
        assert len(rewrites) == 2
        assert all(op.kind != "batch_norm" for op in out.ops)
        np.testing.assert_allclose(_invoke(out, x), ref, **TOL)
        # The input graph is untouched (passes work on copies).
        assert any(op.kind == "batch_norm" for op in g.ops)

    def test_creates_bias_when_producer_has_none(self):
        g = _unfused_graph(seed=2, blocks=1, with_bias=False)
        x = _x(g)
        ref = _invoke(g, x)
        out, rewrites = fuse_batch_norm(g)
        assert rewrites
        conv = next(op for op in out.ops if op.kind == "conv2d")
        assert len(conv.inputs) == 3
        assert out.tensors[conv.inputs[2]].kind == "bias"
        np.testing.assert_allclose(_invoke(out, x), ref, **TOL)

    def test_skips_multi_consumer_producer(self):
        g = _unfused_graph(seed=3, blocks=1)
        # Second consumer of the conv output: fusing would change its value.
        g.add_tensor(TensorSpec("tap", g.tensors["b0_conv"].shape, "float32", "activation"))
        g.add_op(OpNode(kind="relu", name="tap", inputs=["b0_conv"], outputs=["tap"]))
        out, rewrites = fuse_batch_norm(g)
        assert not rewrites
        assert any(op.kind == "batch_norm" for op in out.ops)

    def test_skips_producer_with_fused_activation(self):
        g = _unfused_graph(seed=4, blocks=1)
        next(op for op in g.ops if op.kind == "conv2d").attrs["activation"] = "relu"
        out, rewrites = fuse_batch_norm(g)
        assert not rewrites

    def test_skips_bn_on_graph_input(self):
        g = Graph(name="bn-on-input", inputs=["x"], outputs=["y"])
        g.add_tensor(TensorSpec("x", (4, 4, 2), "float32", "input"))
        g.add_tensor(TensorSpec("s", (2,), "float32", "weight", data=np.ones(2, np.float32)))
        g.add_tensor(TensorSpec("o", (2,), "float32", "bias", data=np.zeros(2, np.float32)))
        g.add_tensor(TensorSpec("y", (4, 4, 2), "float32", "output"))
        g.add_op(OpNode(kind="batch_norm", name="y", inputs=["x", "s", "o"], outputs=["y"]))
        out, rewrites = fuse_batch_norm(g)
        assert not rewrites


class TestFuseActivation:
    def test_parity_after_bn_fold(self):
        g = _unfused_graph(seed=5)
        x = _x(g)
        ref = _invoke(g, x)
        folded, _ = fuse_batch_norm(g)
        out, rewrites = fuse_activation(folded)
        assert len(rewrites) == 2
        assert all(op.kind not in ("relu", "relu6") for op in out.ops)
        fused = [op for op in out.ops if op.attrs.get("activation")]
        assert len(fused) == 2
        np.testing.assert_allclose(_invoke(out, x), ref, **TOL)

    def test_fuses_into_standalone_bn(self):
        g = _unfused_graph(seed=6, blocks=1)
        out, rewrites = fuse_activation(g)
        # Without BN folding first, the relu fuses into the batch_norm.
        assert len(rewrites) == 1
        bn = next(op for op in out.ops if op.kind == "batch_norm")
        assert bn.attrs["activation"] == "relu"
        x = _x(g)
        np.testing.assert_allclose(_invoke(out, x), _invoke(g, x), **TOL)

    def test_quantized_fusion_requires_identical_params(self):
        qp_a = affine_params_from_range(-4.0, 4.0, bits=8)
        qp_b = affine_params_from_range(0.0, 4.0, bits=8)

        def build(out_params: QuantParams) -> Graph:
            g = Graph(name="qact", inputs=["x"], outputs=["y"])
            g.add_tensor(TensorSpec("x", (6,), "int8", "input", quant=qp_a))
            g.add_tensor(TensorSpec("m", (6,), "int8", "activation", quant=qp_a))
            g.add_tensor(
                TensorSpec("s", (6,), "float32", "weight", data=np.ones(6, np.float32))
            )
            g.add_tensor(
                TensorSpec("o", (6,), "float32", "bias", data=np.zeros(6, np.float32))
            )
            g.add_op(OpNode(kind="batch_norm", name="m", inputs=["x", "s", "o"], outputs=["m"]))
            g.add_tensor(TensorSpec("y", (6,), "int8", "output", quant=out_params))
            g.add_op(OpNode(kind="relu", name="y", inputs=["m"], outputs=["y"]))
            return g

        fused, rewrites = fuse_activation(build(qp_a))
        assert len(rewrites) == 1  # identical params: exact int rewrite
        skipped, rewrites = fuse_activation(build(qp_b))
        assert not rewrites  # different grids: fusing would change rounding


class TestFoldConstants:
    def test_folds_weight_only_subgraph(self):
        g = Graph(name="cf", inputs=["x"], outputs=["y"])
        g.add_tensor(TensorSpec("x", (6,), "float32", "input"))
        c = np.linspace(-1, 1, 6).astype(np.float32)
        g.add_tensor(TensorSpec("c", (6,), "float32", "weight", data=c))
        g.add_tensor(TensorSpec("c_relu", (6,), "float32", "activation"))
        g.add_op(OpNode(kind="relu", name="c_relu", inputs=["c"], outputs=["c_relu"]))
        g.add_tensor(TensorSpec("y", (6,), "float32", "output"))
        g.add_op(OpNode(kind="add", name="y", inputs=["x", "c_relu"], outputs=["y"]))
        x = _x(g)
        ref = _invoke(g, x)
        out, rewrites = fold_constants(g)
        assert len(rewrites) == 1
        assert len(out.ops) == 1
        spec = out.tensors["c_relu"]
        assert spec.kind == "weight"
        np.testing.assert_allclose(spec.data, np.maximum(c, 0.0), **TOL)
        np.testing.assert_allclose(_invoke(out, x), ref, **TOL)

    def test_never_folds_graph_outputs(self):
        g = Graph(name="cf-out", inputs=["x"], outputs=["x", "y"])
        g.add_tensor(TensorSpec("x", (4,), "float32", "input"))
        g.add_tensor(TensorSpec("c", (4,), "float32", "weight", data=np.ones(4, np.float32)))
        g.add_tensor(TensorSpec("y", (4,), "float32", "output"))
        g.add_op(OpNode(kind="relu", name="y", inputs=["c"], outputs=["y"]))
        out, rewrites = fold_constants(g)
        assert not rewrites  # y is the model interface


class TestElideQuantPairs:
    def _qdq_graph(self, in_params, out_params):
        g = Graph(name="qdq", inputs=["x"], outputs=["y"])
        g.add_tensor(TensorSpec("x", (8,), "int8", "input", quant=in_params))
        g.add_tensor(TensorSpec("f", (8,), "float32", "activation"))
        g.add_op(OpNode(kind="dequantize", name="f", inputs=["x"], outputs=["f"]))
        g.add_tensor(TensorSpec("r", (8,), "int8", "activation", quant=out_params))
        g.add_op(OpNode(kind="quantize", name="r", inputs=["f"], outputs=["r"]))
        g.add_tensor(TensorSpec("y", (8,), "float32", "output"))
        g.add_op(OpNode(kind="dequantize", name="y", inputs=["r"], outputs=["y"]))
        return g

    def test_dq_q_identical_params_exact(self):
        qp = affine_params_from_range(-2.0, 2.0, bits=8)
        g = self._qdq_graph(qp, qp)
        xq = np.random.default_rng(0).integers(-128, 128, (3, 8)).astype(np.int8)
        ref = Interpreter(g).invoke(xq)
        out, rewrites = elide_quant_pairs(g)
        assert len(rewrites) == 1
        assert np.array_equal(Interpreter(compile_graph(g).graph).invoke(xq), ref)

    def test_dq_q_mismatched_params_kept(self):
        a = affine_params_from_range(-2.0, 2.0, bits=8)
        b = affine_params_from_range(-1.0, 3.0, bits=8)
        out, rewrites = elide_quant_pairs(self._qdq_graph(a, b))
        assert not rewrites

    def test_q_dq_error_bounded_by_scale(self):
        qp = affine_params_from_range(-4.0, 4.0, bits=8)
        g = Graph(name="qdq-f", inputs=["x"], outputs=["y"])
        g.add_tensor(TensorSpec("x", (16,), "float32", "input"))
        g.add_tensor(TensorSpec("q", (16,), "int8", "activation", quant=qp))
        g.add_op(OpNode(kind="quantize", name="q", inputs=["x"], outputs=["q"]))
        g.add_tensor(TensorSpec("f", (16,), "float32", "activation"))
        g.add_op(OpNode(kind="dequantize", name="f", inputs=["q"], outputs=["f"]))
        g.add_tensor(TensorSpec("y", (16,), "float32", "output"))
        g.add_op(OpNode(kind="relu", name="y", inputs=["f"], outputs=["y"]))
        x = np.random.default_rng(1).uniform(-3, 3, (3, 16)).astype(np.float32)
        ref = Interpreter(g).invoke(x)
        compiled = compile_graph(g)
        got = Interpreter(compiled.graph).invoke(x)
        # The elision removes one rounding: error <= half a quantization step.
        assert np.abs(got - ref).max() <= float(qp.scale[0]) / 2 + 1e-7

    def test_graph_output_pair_preserved(self):
        qp = affine_params_from_range(-2.0, 2.0, bits=8)
        g = self._qdq_graph(qp, qp)
        g.outputs = ["r", "y"]  # the requantized tensor is now interface
        out, rewrites = elide_quant_pairs(g)
        assert not rewrites


class TestEliminateDead:
    def test_removes_dead_chain_and_tensors(self):
        g = _unfused_graph(seed=7, blocks=1)
        g.add_tensor(TensorSpec("d1", g.tensors["x"].shape, "float32", "activation"))
        g.add_op(OpNode(kind="relu", name="d1", inputs=["x"], outputs=["d1"]))
        g.add_tensor(TensorSpec("d2", g.tensors["x"].shape, "float32", "activation"))
        g.add_op(OpNode(kind="relu6", name="d2", inputs=["d1"], outputs=["d2"]))
        x = _x(g)
        ref = _invoke(g, x)
        out, rewrites = eliminate_dead(g)
        kinds = {r.kind for r in rewrites}
        assert kinds == {"remove_op", "remove_tensor"}
        assert "d1" not in out.tensors and "d2" not in out.tensors
        assert len(out.ops) == len(g.ops) - 2
        np.testing.assert_allclose(_invoke(out, x), ref, **TOL)

    def test_flash_shrinks_after_full_pipeline(self):
        g = _unfused_graph(seed=8)
        compiled = compile_graph(g, level="O2")
        assert len(serialize(compiled.graph)) < len(serialize(g))


# ----------------------------------------------------------------------
# Pipeline-level tests
# ----------------------------------------------------------------------
class TestCompilePipeline:
    def test_levels(self):
        g = _unfused_graph(seed=9)
        o0 = compile_graph(g, level="O0")
        assert not o0.report.passes and len(o0.graph.ops) == len(g.ops)
        o1 = compile_graph(g, level="O1")
        assert [p.name for p in o1.report.passes] == ["eliminate_dead"]
        o2 = compile_graph(g, level="O2")
        assert [p.name for p in o2.report.passes] == list(LEVELS["O2"])
        assert len(o2.graph.ops) < len(g.ops)

    def test_level_spellings(self):
        assert canonical_level(2) == "O2"
        assert canonical_level("o1") == "O1"
        assert canonical_level("0") == "O0"
        assert canonical_level(None) == "O2"
        with pytest.raises(GraphError, match="unknown compile level"):
            canonical_level("O9")

    def test_unknown_pass_rejected(self):
        with pytest.raises(GraphError, match="unknown pass"):
            compile_graph(_unfused_graph(seed=10), passes=["nope"])

    def test_explicit_pass_list(self):
        g = _unfused_graph(seed=11)
        compiled = compile_graph(g, passes=["eliminate_dead"])
        assert compiled.report.level == "custom"
        assert [p.name for p in compiled.report.passes] == ["eliminate_dead"]

    def test_summary_lists_passes_and_rewrites(self):
        compiled = compile_graph(_unfused_graph(seed=12))
        text = compiled.report.summary()
        for name in LEVELS["O2"]:
            assert name in text
        assert "[fold_bn]" in text and "[fuse_activation]" in text
        assert str(compiled.report.ops_removed) in text

    @pytest.mark.parametrize("backend", ["einsum", "gemm"])
    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_differential(self, seed, backend):
        g = _random_graph(seed)
        x = _x(g, n=2, seed=seed)
        with backend_scope(backend):
            ref = _invoke(g, x)
            compiled = compile_graph(g, level="O2")
            got = _invoke(compiled.graph, x)
        np.testing.assert_allclose(got, ref, err_msg=f"seed={seed}", **TOL)
        # Round-trip: the compiled graph serializes and reloads unchanged.
        reloaded = deserialize(serialize(compiled.graph))
        np.testing.assert_allclose(_invoke(reloaded, x), got, **TOL)

    def test_input_graph_never_mutated(self):
        g = _unfused_graph(seed=13)
        before = serialize(g)
        compile_graph(g, level="O2")
        assert serialize(g) == before

    def test_obs_counters(self):
        from repro import obs

        obs.reset()
        obs.enable()
        try:
            compile_graph(_unfused_graph(seed=14), level="O2")
            metrics = obs.export()["metrics"]
            counters = metrics.get("counters", metrics)
            flat = str(counters)
            assert "compile.pass.fuse_batch_norm.rewrites" in flat
            assert "compile.ops_removed" in flat
            spans = [s["name"] for s in obs.export()["spans"]]
            assert "compile/pass/fuse_batch_norm" in spans
        finally:
            obs.disable()
            obs.reset()

    def test_compiled_model_interpreter(self):
        g = _unfused_graph(seed=15, blocks=1)
        compiled = compile_graph(g)
        assert isinstance(compiled, CompiledModel)
        x = _x(g, n=1)
        np.testing.assert_allclose(compiled.interpreter().invoke(x), _invoke(g, x), **TOL)


class TestGoldenReplay:
    """The golden fixture is already fused: compiling must be a no-op."""

    def test_golden_fixture_fixpoint(self):
        import pathlib

        fixture = pathlib.Path(__file__).parent / "fixtures" / "golden_tiny.mbuf"
        original = fixture.read_bytes()
        graph = deserialize(original)
        compiled = compile_graph(graph, level="O2")
        assert not compiled.report.rewrites
        assert serialize(compiled.graph) == original

    def test_golden_outputs_identical(self):
        import pathlib

        fixtures = pathlib.Path(__file__).parent / "fixtures"
        graph = deserialize((fixtures / "golden_tiny.mbuf").read_bytes())
        io = np.load(fixtures / "golden_tiny_io.npz")
        compiled = compile_graph(graph, level="O2")
        got = Interpreter(compiled.graph).invoke(io["x"])
        np.testing.assert_allclose(got, io["logits"], **TOL)


# ----------------------------------------------------------------------
# Batched execution
# ----------------------------------------------------------------------
#: (batch, tile) cases: tile None keeps the default budget; the others set
#: a budget that forces that tile, so batch 16 crosses tile boundaries
#: (tile 3 leaves a remainder of 1).
_BATCH_TILES = [
    pytest.param(1, None, id="1"),
    pytest.param(3, None, id="3"),
    pytest.param(16, None, id="16"),
    pytest.param(16, 1, id="16-tile1"),
    pytest.param(16, 2, id="16-tile2"),
    pytest.param(16, 3, id="16-tile3"),
]


def _tiled(graph: Graph, tile, monkeypatch, **kwargs) -> Interpreter:
    """An interpreter for ``graph`` whose budget forces ``tile`` (None: default)."""
    if tile is not None:
        monkeypatch.setattr(interpreter, "TILE_ELEMENTS", tile * sample_elements(graph))
    interp = Interpreter(graph, **kwargs)
    assert tile is None or interp.tile == tile
    return interp


class TestBatchExecution:
    @pytest.mark.parametrize("batch, tile", _BATCH_TILES)
    def test_batch_vs_loop_parity_float(self, batch, tile, monkeypatch):
        g = compile_graph(_unfused_graph(seed=16)).graph
        interp = _tiled(g, tile, monkeypatch)
        x = _x(g, n=batch, seed=batch)
        batched = interp.invoke(x)
        looped = np.concatenate([interp.invoke(x[i : i + 1]) for i in range(batch)])
        np.testing.assert_allclose(batched, looped, **TOL)

    @pytest.mark.parametrize("batch, tile", _BATCH_TILES)
    def test_batch_vs_loop_parity_quantized(self, batch, tile, monkeypatch):
        from repro.models.spec import ArchSpec, ConvSpec, DenseSpec, GlobalPoolSpec, export_graph

        arch = ArchSpec(
            name="batch-q",
            input_shape=(8, 8, 1),
            layers=(ConvSpec(4, kernel=3, stride=2), GlobalPoolSpec(), DenseSpec(3)),
        )
        rng = np.random.default_rng(2)
        calib = rng.normal(0, 1, (8, 8, 8, 1)).astype(np.float32)
        interp = _tiled(export_graph(arch, calibration=calib, bits=8), tile, monkeypatch)
        x = rng.normal(0, 1, (batch, 8, 8, 1)).astype(np.float32)
        batched = interp.invoke(x)
        looped = np.concatenate([interp.invoke(x[i : i + 1]) for i in range(batch)])
        # Quantized kernels are deterministic per sample: exact equality.
        assert np.array_equal(batched, looped)

    def test_tiles_equal_invoking_each_slice_alone(self, monkeypatch):
        g = compile_graph(_unfused_graph(seed=20)).graph
        interp = _tiled(g, 3, monkeypatch)
        x = _x(g, n=11, seed=20)
        alone = np.concatenate([interp.invoke(x[i : i + 3].copy()) for i in range(0, 11, 3)])
        np.testing.assert_array_equal(interp.invoke(x), alone)

    def test_conv2d_column_matrix_sets_the_tile(self):
        g = _unfused_graph(seed=21, blocks=1)
        conv = next(op for op in g.ops if op.kind == "conv2d")
        kh, kw, c = g.tensors[conv.inputs[1]].shape[:3]
        oh, ow = g.tensors[conv.outputs[0]].shape[:2]
        columns = oh * ow * kh * kw * c
        assert (kh, kw) == (3, 3)
        largest_tensor = max(
            int(np.prod(spec.shape)) for spec in g.tensors.values()
            if spec.kind not in ("weight", "bias")
        )
        assert columns > largest_tensor
        assert sample_elements(g) == columns
        assert Interpreter(g).tile == max(1, interpreter.TILE_ELEMENTS // columns)

    def test_sample_over_budget_gets_tile_one(self, monkeypatch):
        g = compile_graph(_unfused_graph(seed=22)).graph
        monkeypatch.setattr(interpreter, "TILE_ELEMENTS", sample_elements(g) - 1)
        interp = Interpreter(g)
        assert interp.tile == 1
        x = _x(g, n=3, seed=22)
        looped = np.concatenate([interp.invoke(x[i : i + 1]) for i in range(3)])
        np.testing.assert_array_equal(interp.invoke(x), looped)

    def test_max_batch_raises_before_any_tile(self, monkeypatch):
        g = compile_graph(_unfused_graph(seed=23)).graph
        interp = _tiled(g, 1, monkeypatch, max_batch=4)
        runs = []
        monkeypatch.setattr(interp, "run_tile", lambda *args: runs.append(args))
        with pytest.raises(GraphError, match="exceeds the planned batch"):
            interp.invoke(_x(g, n=5, seed=23))
        assert runs == []

    def test_one_invoke_is_accounted_once_across_tiles(self, monkeypatch):
        from repro import obs

        g = compile_graph(_unfused_graph(seed=24)).graph
        interp = _tiled(g, 2, monkeypatch)
        obs.enable()
        interp.invoke(_x(g, n=5, seed=24))
        counters = obs.REGISTRY.as_dict()["counters"]
        assert counters["interpreter.invocations"] == 1
        kinds = [op.kind for op in g.ops]
        for kind in set(kinds):
            assert counters[f"interpreter.op_calls.{kind}"] == kinds.count(kind)
            assert obs.REGISTRY.histograms[f"interpreter.op_seconds.{kind}"].count == kinds.count(kind)
        assert set(interp.last_op_timings) == {op.name for op in g.ops}
        (span,) = [r for r in obs.completed_spans() if r.name == "interpreter/invoke"]
        assert span.metadata["tiles"] == 3
        assert sum(interp.last_op_timings.values()) <= span.duration_s

    def test_batched_plan_scales_and_caches(self):
        g = compile_graph(_unfused_graph(seed=17)).graph
        interp = Interpreter(g)
        p1, p16 = interp.plan(1), interp.plan(batch_size=16)
        assert p16.arena_bytes > p1.arena_bytes
        assert p16.arena_bytes <= 16 * p1.arena_bytes  # alignment only helps
        assert interp.plan(16) is p16  # cached per batch size
        # Legacy single-sample sizing is byte-identical to plan_arena(g).
        assert p1.arena_bytes == plan_arena(g).arena_bytes

    def test_plan_rejects_bad_batch(self):
        with pytest.raises(GraphError, match="batch_size"):
            plan_arena(_unfused_graph(seed=18), batch_size=0)


# ----------------------------------------------------------------------
# Integration with quantization export and NAS budgets
# ----------------------------------------------------------------------
class TestQuantizedBatchNorm:
    def test_quantize_graph_handles_batch_norm(self):
        g = _unfused_graph(seed=19, blocks=1)
        rng = np.random.default_rng(3)
        calib = rng.normal(0, 1, (8,) + tuple(g.tensors["x"].shape)).astype(np.float32)
        from repro.models.spec import quantize_graph

        q = quantize_graph(g, calibration=calib, bits=8)
        bn = next(op for op in q.ops if op.kind == "batch_norm")
        offset = q.tensors[bn.inputs[2]]
        assert offset.dtype == "int32" and offset.data is not None
        x = calib[:3]
        float_out = Interpreter(g).invoke(x)
        quant_out = Interpreter(q).invoke(x)
        # Course agreement: int8 end-to-end error on a 1-block net.
        assert np.abs(quant_out - float_out).max() < 0.5


class TestResourceProfileCompileLevel:
    def test_level_in_memo_key(self):
        from repro.models.spec import ArchSpec, ConvSpec, DenseSpec, GlobalPoolSpec
        from repro.nas.budgets import clear_profile_cache, resource_profile

        arch = ArchSpec(
            name="profile-level",
            input_shape=(8, 8, 1),
            layers=(ConvSpec(4, kernel=3, stride=2), GlobalPoolSpec(), DenseSpec(3)),
        )
        clear_profile_cache()
        try:
            base = resource_profile(arch, bits=8)
            o2 = resource_profile(arch, bits=8, compile_level="O2")
            again = resource_profile(arch, bits=8, compile_level=2)
            # Distinct cache entries, but int 2 and "O2" share one.
            assert o2 is again
            assert o2 is not base
            assert o2.params > 0 and o2.activation_bytes > 0 and o2.ops > 0
            # Exported graphs arrive pre-fused, so O2 must not *grow* cost.
            assert o2.activation_bytes <= base.activation_bytes
        finally:
            clear_profile_cache()

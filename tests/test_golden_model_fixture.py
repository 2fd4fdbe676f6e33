"""Golden-fixture roundtrip for the serializer + interpreter.

A frozen quantized model (built deterministically: seeded weights, seeded
calibration, einsum backend) lives in ``tests/fixtures/`` as the exact
``MBUF`` byte stream plus a reference input/output pair. These tests pin
three independent contracts:

* the **builder** — rebuilding the model from specs reproduces the stored
  bytes exactly (weight init, BN folding, and quantization are stable);
* the **serializer** — deserialize → serialize is byte-identical;
* the **interpreter** — inference on the deserialized graph reproduces
  the stored logits bit for bit.

Regenerate (only after an *intentional* format or numerics change) with::

    PYTHONPATH=src python tests/test_golden_model_fixture.py
"""

from __future__ import annotations

import pathlib

import numpy as np
import pytest

from repro.models.spec import (
    ArchSpec,
    ConvSpec,
    DenseSpec,
    DWConvSpec,
    GlobalPoolSpec,
    build_module,
    export_graph,
)
from repro.runtime.interpreter import Interpreter
from repro.runtime.serializer import MAGIC, deserialize, model_size_bytes, serialize
from repro.tensor import backend_scope

pytestmark = pytest.mark.tier1

FIXTURE_DIR = pathlib.Path(__file__).parent / "fixtures"
MODEL_PATH = FIXTURE_DIR / "golden_tiny.mbuf"
IO_PATH = FIXTURE_DIR / "golden_tiny_io.npz"


def _golden_arch() -> ArchSpec:
    return ArchSpec(
        name="golden-tiny",
        input_shape=(12, 12, 1),
        layers=(
            ConvSpec(8, kernel=3, stride=2),
            DWConvSpec(kernel=3, stride=1),
            ConvSpec(16, kernel=1),
            GlobalPoolSpec(),
            DenseSpec(4),
        ),
    )


def _build_golden_bytes() -> bytes:
    """Deterministic build: seeded weights and calibration, einsum backend."""
    arch = _golden_arch()
    rng = np.random.default_rng(0)
    calibration = rng.normal(size=(16, 12, 12, 1)).astype(np.float32)
    with backend_scope("einsum"):
        module = build_module(arch, rng=0)
        module.eval()
        graph = export_graph(arch, module=module, calibration=calibration, bits=8)
        return serialize(graph)


def _golden_input() -> np.ndarray:
    return np.random.default_rng(99).normal(size=(3, 12, 12, 1)).astype(np.float32)


class TestGoldenFixture:
    def test_fixture_files_exist(self):
        assert MODEL_PATH.is_file(), "run this module as a script to regenerate"
        assert IO_PATH.is_file()

    def test_builder_reproduces_stored_bytes(self):
        assert _build_golden_bytes() == MODEL_PATH.read_bytes()

    def test_serializer_roundtrip_is_byte_identical(self):
        blob = MODEL_PATH.read_bytes()
        assert blob[: len(MAGIC)] == MAGIC
        graph = deserialize(blob)
        assert serialize(graph) == blob
        assert model_size_bytes(graph) == len(blob)

    def test_interpreter_reproduces_stored_logits(self):
        graph = deserialize(MODEL_PATH.read_bytes())
        io_pair = np.load(IO_PATH)
        with backend_scope("einsum"):
            logits = Interpreter(graph).invoke(io_pair["x"])
        np.testing.assert_array_equal(logits, io_pair["logits"])

    def test_stored_input_matches_generator(self):
        io_pair = np.load(IO_PATH)
        np.testing.assert_array_equal(io_pair["x"], _golden_input())


def _regenerate() -> None:
    FIXTURE_DIR.mkdir(exist_ok=True)
    blob = _build_golden_bytes()
    MODEL_PATH.write_bytes(blob)
    x = _golden_input()
    with backend_scope("einsum"):
        logits = Interpreter(deserialize(blob)).invoke(x)
    np.savez(IO_PATH, x=x, logits=logits)
    print(f"wrote {MODEL_PATH} ({len(blob)} bytes) and {IO_PATH}")


if __name__ == "__main__":
    _regenerate()

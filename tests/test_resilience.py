"""Checkpoint/resume + fault injection: crash on purpose, resume, compare.

The contract under test (docs/resilience.md): a run that crashes at any
instrumented site and is resumed from its checkpoint produces **bitwise
identical** results — same extracted architecture, same loss trace, same
weights — as a run that never crashed.
"""

import os

import numpy as np
import pytest

from repro import obs
from repro.errors import CheckpointError
from repro.models.spec import ArchSpec, ConvSpec, DenseSpec, GlobalPoolSpec
from repro.nas.blackbox import DSCNNSearchSpace, RandomSearch
from repro.nas.budgets import ResourceBudget
from repro.nas.search import SearchConfig, search
from repro.nas.supernet import DSCNNSupernet
from repro.nn import Adam, SGD
from repro.nn.layers import BatchNorm
from repro.nn.module import Module, Parameter
from repro.resilience import faults
from repro.resilience.checkpoint import (
    Checkpoint,
    CheckpointConfig,
    load_checkpoint,
    optimizer_state_arrays,
    optimizer_state_from_arrays,
    save_checkpoint,
)
from repro.resilience.faults import ChaosPlan, ChaosSpec, InjectedFault, fault_point, inject
from repro.tasks.common import TrainConfig, train_classifier


# ----------------------------------------------------------------------
# Fault plumbing
class TestFaultInjection:
    def test_disabled_site_is_noop(self):
        for _ in range(10):
            fault_point("dnas_step")  # no plan installed: must not raise

    def test_fires_on_configured_hit(self):
        with inject(ChaosPlan(ChaosSpec("train_step", at=3))) as plan:
            fault_point("train_step")
            fault_point("train_step")
            with pytest.raises(InjectedFault) as excinfo:
                fault_point("train_step")
        assert excinfo.value.site == "train_step"
        assert excinfo.value.hit == 3
        assert plan.fired == [("train_step", 3, "raise")]

    def test_times_window_keeps_firing(self):
        with inject(ChaosPlan(ChaosSpec("candidate_eval", at=2, times=2))) as plan:
            fault_point("candidate_eval")
            for _ in range(2):
                with pytest.raises(InjectedFault):
                    fault_point("candidate_eval")
            fault_point("candidate_eval")  # past the window
        assert plan.hits["candidate_eval"] == 4

    def test_custom_exception_type(self):
        with inject(ChaosPlan(ChaosSpec("experiment_row", exception=RuntimeError))):
            with pytest.raises(RuntimeError):
                fault_point("experiment_row")

    def test_sites_counted_independently(self):
        with inject(ChaosPlan(ChaosSpec("dnas_epoch", at=2))) as plan:
            fault_point("dnas_step")
            fault_point("dnas_epoch")
            fault_point("dnas_step")
        assert plan.hits == {"dnas_step": 2, "dnas_epoch": 1}

    def test_inject_clears_plan_on_exit(self):
        with inject(ChaosPlan(ChaosSpec("train_epoch"))):
            assert faults.active_plan() is not None
        assert faults.active_plan() is None
        fault_point("train_epoch")

    def test_install_replaces_and_clear_removes(self):
        first = faults.install(ChaosPlan())
        second = faults.install(ChaosPlan())
        assert faults.active_plan() is second and first is not second
        faults.clear()
        assert faults.active_plan() is None


# ----------------------------------------------------------------------
# Checkpoint files
class TestCheckpointFiles:
    def _sample(self):
        return Checkpoint(
            kind="dnas",
            payload={"epoch": 3, "nested": {"rng": [1, 2]}},
            arrays={"model.w": np.arange(6, dtype=np.float32).reshape(2, 3)},
        )

    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "run.npz")
        save_checkpoint(path, self._sample())
        loaded = load_checkpoint(path, expect_kind="dnas")
        assert loaded.kind == "dnas"
        assert loaded.payload == {"epoch": 3, "nested": {"rng": [1, 2]}}
        np.testing.assert_array_equal(
            loaded.arrays["model.w"], np.arange(6, dtype=np.float32).reshape(2, 3)
        )

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            load_checkpoint(str(tmp_path / "nope.npz"))

    def test_truncated_file(self, tmp_path):
        path = str(tmp_path / "run.npz")
        save_checkpoint(path, self._sample())
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = str(tmp_path / "other.npz")
        np.savez(path, foo=np.zeros(3))
        with pytest.raises(CheckpointError, match="no metadata"):
            load_checkpoint(path)

    def test_wrong_kind_rejected(self, tmp_path):
        path = str(tmp_path / "run.npz")
        save_checkpoint(path, self._sample())
        with pytest.raises(CheckpointError, match="expected 'train'"):
            load_checkpoint(path, expect_kind="train")

    def test_reserved_array_name_rejected(self, tmp_path):
        bad = Checkpoint(kind="x", payload={}, arrays={"__meta__": np.zeros(1)})
        with pytest.raises(CheckpointError, match="reserved"):
            save_checkpoint(str(tmp_path / "run.npz"), bad)

    def test_crash_during_write_preserves_previous(self, tmp_path):
        path = str(tmp_path / "run.npz")
        save_checkpoint(path, Checkpoint(kind="dnas", payload={"epoch": 1}))
        with inject(ChaosPlan(ChaosSpec("checkpoint_write"))):
            with pytest.raises(InjectedFault):
                save_checkpoint(path, Checkpoint(kind="dnas", payload={"epoch": 2}))
        # The half-written temp file is gone; the old snapshot survives.
        assert os.listdir(tmp_path) == ["run.npz"]
        assert load_checkpoint(path).payload == {"epoch": 1}

    def test_counters_when_obs_enabled(self, tmp_path):
        obs.enable()
        path = str(tmp_path / "run.npz")
        save_checkpoint(path, self._sample())
        load_checkpoint(path)
        counters = obs.REGISTRY.as_dict()["counters"]
        assert counters["resilience.checkpoints_written"] == 1
        assert counters["resilience.checkpoints_loaded"] == 1

    def test_due_cadence(self):
        config = CheckpointConfig(path="x.npz", every_epochs=3)
        assert [config.due(e, 8) for e in range(8)] == [
            False, False, True, False, False, True, False, True,
        ]  # every third epoch, plus the final one


# ----------------------------------------------------------------------
# State serialization building blocks
class TestStateRoundtrips:
    def _params(self, rng):
        return [
            Parameter(rng.standard_normal((3, 4)).astype(np.float32), name="a"),
            Parameter(rng.standard_normal((4,)).astype(np.float32), name="b"),
        ]

    @pytest.mark.parametrize("make_opt", [
        lambda p: Adam(p, lr=1e-2),
        lambda p: SGD(p, lr=1e-2, momentum=0.9),
    ])
    def test_optimizer_state_bitwise_roundtrip(self, rng, make_opt):
        params = self._params(rng)
        opt = make_opt(params)
        for _ in range(3):
            for p in params:
                p.grad = rng.standard_normal(p.data.shape).astype(np.float32)
            opt.step()
        arrays = optimizer_state_arrays(opt.state_dict(), "opt.")

        fresh_params = self._params(np.random.default_rng(1234))
        for p, src in zip(fresh_params, params):
            p.data = src.data.copy()
        restored = make_opt(fresh_params)
        restored.load_state_dict(
            optimizer_state_from_arrays(arrays, "opt.", opt.state_dict()["step_count"])
        )
        # One more identical step must land both optimizers on identical data.
        grads = [rng.standard_normal(p.data.shape).astype(np.float32) for p in params]
        for p, fp, g in zip(params, fresh_params, grads):
            p.grad, fp.grad = g, g.copy()
        opt.step()
        restored.step()
        for p, fp in zip(params, fresh_params):
            np.testing.assert_array_equal(p.data, fp.data)

    def test_buffers_ride_in_state_dict(self, rng):
        bn = BatchNorm(4)
        bn.train()
        from repro.tensor import Tensor

        bn(Tensor(rng.standard_normal((8, 4)).astype(np.float32)))
        state = bn.state_dict()
        assert "running_mean" in state and "running_var" in state

        fresh = BatchNorm(4)
        fresh.load_state_dict(state)
        np.testing.assert_array_equal(fresh.running_mean, bn.running_mean)
        np.testing.assert_array_equal(fresh.running_var, bn.running_var)

    def test_load_state_dict_rejects_missing_buffer(self):
        bn = BatchNorm(4)
        state = bn.state_dict()
        state.pop("running_mean")
        with pytest.raises(Exception):
            bn.load_state_dict(state)


# ----------------------------------------------------------------------
# End-to-end: crash anywhere, resume, compare bit-for-bit
def _search_inputs():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((32, 13, 5, 1)).astype(np.float32)
    y = rng.integers(0, 12, size=32)
    return x, y


def _make_supernet():
    return DSCNNSupernet(
        input_shape=(13, 5, 1),
        num_classes=12,
        stem_options=(8, 16),
        num_blocks=1,
        block_options=(8, 16),
        stem_kernel=(4, 2),
        stem_stride=(2, 1),
        rng=0,
    )


_SEARCH_CONFIG = SearchConfig(epochs=3, warmup_epochs=1, batch_size=8)
_BUDGET = ResourceBudget(params=1e9, activation_bytes=1e9)


class TestDnasResume:
    @pytest.mark.parametrize(
        "spec",
        [
            ChaosSpec("dnas_epoch", at=3),        # crash entering epoch 2
            ChaosSpec("dnas_step", at=10),        # crash mid-epoch 2
            ChaosSpec("checkpoint_write", at=2),  # crash publishing epoch 1's snapshot
        ],
        ids=lambda s: f"{s.site}@{s.at}",
    )
    def test_resumed_run_is_bitwise_identical(self, tmp_path, spec):
        x, y = _search_inputs()
        golden = search(_make_supernet(), x, y, _BUDGET, config=_SEARCH_CONFIG, rng=1)

        checkpoint = CheckpointConfig(path=str(tmp_path / "dnas.npz"))
        with inject(ChaosPlan(spec)):
            with pytest.raises(InjectedFault):
                search(
                    _make_supernet(), x, y, _BUDGET,
                    config=_SEARCH_CONFIG, rng=1, checkpoint=checkpoint,
                )
        assert os.path.exists(checkpoint.path), "crash before any snapshot"

        resumed = search(
            _make_supernet(), x, y, _BUDGET,
            config=_SEARCH_CONFIG, rng=1, checkpoint=checkpoint,
        )
        # ArchSpec is a frozen dataclass: equality is field-by-field.
        assert resumed.arch == golden.arch
        assert resumed.history == golden.history  # bit-for-bit loss trace
        assert resumed.expected_params == golden.expected_params
        assert resumed.expected_ops == golden.expected_ops
        assert resumed.expected_memory_bytes == golden.expected_memory_bytes

    def test_resume_refuses_different_schedule(self, tmp_path):
        x, y = _search_inputs()
        checkpoint = CheckpointConfig(path=str(tmp_path / "dnas.npz"))
        search(_make_supernet(), x, y, _BUDGET, config=_SEARCH_CONFIG, rng=1,
               checkpoint=checkpoint)
        other = SearchConfig(epochs=5, warmup_epochs=1, batch_size=8)
        with pytest.raises(CheckpointError, match="different schedule"):
            search(_make_supernet(), x, y, _BUDGET, config=other, rng=1,
                   checkpoint=checkpoint)

    @pytest.mark.tier1
    def test_resume_smoke(self, tmp_path):
        """Fast gate: one-epoch interruption resumes to the golden arch."""
        x, y = _search_inputs()
        config = SearchConfig(epochs=2, warmup_epochs=1, batch_size=8)
        golden = search(_make_supernet(), x, y, _BUDGET, config=config, rng=1)
        checkpoint = CheckpointConfig(path=str(tmp_path / "smoke.npz"))
        with inject(ChaosPlan(ChaosSpec("dnas_epoch", at=2))):
            with pytest.raises(InjectedFault):
                search(_make_supernet(), x, y, _BUDGET, config=config, rng=1,
                       checkpoint=checkpoint)
        resumed = search(_make_supernet(), x, y, _BUDGET, config=config, rng=1,
                         checkpoint=checkpoint)
        assert resumed.arch == golden.arch
        assert resumed.history["loss"] == golden.history["loss"]


class TestTrainResume:
    def _setup(self):
        arch = ArchSpec(
            name="t",
            input_shape=(8, 8, 1),
            layers=(ConvSpec(4, kernel=3, stride=2), GlobalPoolSpec(), DenseSpec(3)),
        )
        rng = np.random.default_rng(0)
        x = rng.standard_normal((24, 8, 8, 1)).astype(np.float32)
        y = rng.integers(0, 3, size=24)
        return arch, x, y, TrainConfig(epochs=3, batch_size=8, qat_bits=8)

    @pytest.mark.parametrize("site,at", [("train_epoch", 3), ("train_step", 8)])
    def test_resumed_weights_bitwise_identical(self, tmp_path, site, at):
        arch, x, y, config = self._setup()
        golden = train_classifier(arch, x, y, config, rng=5)
        checkpoint = CheckpointConfig(path=str(tmp_path / "train.npz"))
        with inject(ChaosPlan(ChaosSpec(site, at=at))):
            with pytest.raises(InjectedFault):
                train_classifier(arch, x, y, config, rng=5, checkpoint=checkpoint)
        resumed = train_classifier(arch, x, y, config, rng=5, checkpoint=checkpoint)
        golden_state, resumed_state = golden.state_dict(), resumed.state_dict()
        assert set(golden_state) == set(resumed_state)
        for key in golden_state:  # parameters, BN stats, and QAT ranges alike
            np.testing.assert_array_equal(golden_state[key], resumed_state[key])


# ----------------------------------------------------------------------
# Graceful degradation in the black-box sweep
class TestBlackBoxDegradation:
    def _search(self, **kwargs):
        return RandomSearch(
            DSCNNSearchSpace(), ResourceBudget(params=1e9, activation_bytes=1e9), **kwargs
        )

    def test_transient_failure_absorbed_by_retry(self):
        attempts = {"n": 0}

        def evaluate(arch):
            attempts["n"] += 1
            if attempts["n"] == 1:
                raise RuntimeError("transient")
            return 1.0

        result = self._search(max_evaluations=3).run(evaluate, rng=0)
        assert result.evaluations == 3
        assert result.failures == []

    def test_persistent_failure_recorded_and_sweep_continues(self):
        def evaluate(arch):
            raise ValueError("oracle is down")

        result = self._search(max_evaluations=4, max_eval_retries=1).run(evaluate, rng=0)
        assert result.evaluations == 0
        assert result.best_arch is None
        assert result.failures  # every candidate recorded, none silently lost
        failure = result.failures[0]
        assert failure.attempts == 2  # initial try + one retry
        assert "ValueError: oracle is down" in failure.error

    def test_failed_genome_not_reproposed(self):
        seen = []

        def evaluate(arch):
            seen.append(arch.name)
            raise RuntimeError("always fails")

        search_obj = self._search(max_evaluations=4, max_eval_retries=0)
        result = search_obj.run(evaluate, rng=0)
        failed = [f.genome for f in result.failures]
        assert len(failed) == len(set(failed))  # each genome fails at most once

    def test_injected_candidate_eval_fault(self):
        with inject(ChaosPlan(ChaosSpec("candidate_eval", at=1))):
            result = self._search(max_evaluations=3).run(lambda arch: 1.0, rng=0)
        # The injected crash hit the first attempt and the retry absorbed it.
        assert result.evaluations == 3
        assert result.failures == []

    def test_keyboard_interrupt_propagates(self):
        def evaluate(arch):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            self._search(max_evaluations=2).run(evaluate, rng=0)


# ----------------------------------------------------------------------
# Graceful degradation in experiment sweeps
class TestExperimentAttempt:
    def _result(self):
        from repro.experiments.base import ExperimentResult

        return ExperimentResult(experiment_id="x", title="x", columns=["a"])

    def test_success_passes_value_through(self):
        from repro.experiments.base import attempt

        result = self._result()
        assert attempt(result, "row", lambda: 42) == 42
        assert result.failures == []

    def test_retry_then_success(self):
        from repro.experiments.base import attempt

        result = self._result()
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("first try fails")
            return "ok"

        assert attempt(result, "row", flaky) == "ok"
        assert result.failures == []

    def test_exhaustion_records_failure_and_note(self):
        from repro.experiments.base import attempt

        result = self._result()

        def broken():
            raise ValueError("bad row")

        assert attempt(result, "fig7:model-x", broken, retries=1) is None
        assert len(result.failures) == 1
        assert result.failures[0].label == "fig7:model-x"
        assert result.failures[0].attempts == 2
        assert any("fig7:model-x" in note for note in result.notes)

    def test_injected_experiment_row_fault_exhausts(self):
        from repro.experiments.base import attempt

        result = self._result()
        with inject(ChaosPlan(ChaosSpec("experiment_row", at=1, times=5))):
            assert attempt(result, "row", lambda: 1, retries=1) is None
        assert len(result.failures) == 1

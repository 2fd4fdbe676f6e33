"""Scenario spec layer: schema validation, cross-references, budget
feasibility, compile-to-plan parity with the hand-wired experiments, fleet
simulation determinism, and the `repro spec` CLI."""

import json

import numpy as np
import pytest

from repro.errors import ConfigError, GraphError, ReproError
from repro.serve.traffic import TrafficConfig
from repro.spec import (
    builtin_spec_paths,
    compile_scenario,
    load_scenario,
    load_schema,
    resolve_spec_path,
    run_fleet_plan,
    run_plan,
    scenario_errors,
    schema_errors,
)

pytestmark = [pytest.mark.tier1, pytest.mark.spec]


def _minimal(**sections) -> dict:
    return {"spec_version": 1, "name": "test-scenario", **sections}


def _write_spec(tmp_path, data: dict, name: str = "spec.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestSchemaValidation:
    def test_minimal_document_valid(self):
        assert scenario_errors(_minimal()) == []

    def test_missing_required_keys(self):
        errors = schema_errors({"spec_version": 1}, load_schema())
        assert errors == ["name: required key is missing"]

    def test_wrong_type_is_path_qualified(self):
        data = _minimal(
            devices=[
                {"name": "a", "clock_mhz": 100, "sram_kb": 64, "eflash_kb": 256},
                {"name": "b", "clock_mhz": 100, "sram_kb": 64, "eflash_kb": 256},
                {"name": "c", "clock_mhz": 100, "sram_kb": "big", "eflash_kb": 256},
            ]
        )
        errors = scenario_errors(data)
        assert len(errors) == 1
        assert errors[0].startswith("devices[2].sram_kb: expected number")

    def test_out_of_range_fields(self):
        data = _minimal(
            traffic=[
                {
                    "name": "t",
                    "requests": 0,  # below minimum 1
                    "mean_rate_hz": 5.0,
                    "diurnal_amplitude": 1.5,  # must be < 1
                }
            ]
        )
        errors = scenario_errors(data)
        assert any(e.startswith("traffic[0].requests:") for e in errors)
        assert any(e.startswith("traffic[0].diurnal_amplitude:") for e in errors)

    def test_unknown_keys_rejected(self):
        errors = scenario_errors(_minimal(experimnets=[]))
        assert len(errors) == 1
        assert "unknown key" in errors[0]

    def test_all_errors_collected_not_fail_fast(self):
        data = _minimal(
            devices=[{"name": "a", "clock_mhz": -1, "sram_kb": 64, "eflash_kb": 0}],
            tasks=[{"name": "t", "kind": "ocr"}],
        )
        errors = scenario_errors(data)
        assert len(errors) == 3  # clock, eflash, and task kind — all at once


class TestCrossReferences:
    def test_dangling_device_reference(self):
        data = _minimal(
            targets=[{"name": "t0", "device": "STM32F9", "model": "micronet-kws-s"}]
        )
        errors = scenario_errors(data)
        assert len(errors) == 1
        assert errors[0].startswith("targets[0].device: unknown device 'STM32F9'")
        assert "STM32F446RE" in errors[0]  # candidates listed

    def test_dangling_model_and_traffic_and_target(self):
        data = _minimal(
            targets=[{"name": "t0", "device": "S", "model": "resnet50"}],
            fleet=[
                {
                    "name": "f",
                    "groups": [
                        {"name": "g", "target": "nope", "count": 2, "traffic": "quiet"}
                    ],
                }
            ],
        )
        errors = scenario_errors(data)
        assert any(e.startswith("targets[0].model: unknown model") for e in errors)
        assert any(e.startswith("fleet[0].groups[0].target:") for e in errors)
        assert any(e.startswith("fleet[0].groups[0].traffic:") for e in errors)

    def test_duplicate_names_rejected(self):
        data = _minimal(
            traffic=[
                {"name": "t", "requests": 1, "mean_rate_hz": 1.0},
                {"name": "t", "requests": 2, "mean_rate_hz": 2.0},
            ]
        )
        errors = scenario_errors(data)
        assert errors == [
            "traffic[1].name: duplicate name 't' (first declared at traffic[0])"
        ]

    def test_custom_device_cannot_shadow_builtin(self):
        data = _minimal(
            devices=[
                {"name": "STM32F446RE", "clock_mhz": 1, "sram_kb": 1, "eflash_kb": 1}
            ]
        )
        errors = scenario_errors(data)
        assert "shadows a builtin device" in errors[0]

    def test_chaos_behavior_at_crash_site_rejected(self):
        data = _minimal(
            chaos=[{"name": "c", "faults": [
                {"site": "serve_invoke", "kind": "hang", "duration_ms": 5},
                {"site": "train_step", "kind": "hang", "duration_ms": 5},
            ]}]
        )
        errors = scenario_errors(data, check_budgets=False)
        assert len(errors) == 1
        assert errors[0].startswith("chaos[0].faults[1].kind: 'train_step' is a raise-only")

    def test_family_expansion_in_experiments(self):
        data = _minimal(
            model_families=[{"name": "fam", "members": ["dscnn-s", "dscnn-m"]}],
            experiments=[{"name": "e", "kind": "pareto", "models": ["fam"]}],
        )
        assert scenario_errors(data, check_budgets=False) == []


class TestBudgetFeasibility:
    def test_over_sram_pairing_rejected(self):
        # MBNETV2-L's peak SRAM is ~3x the small board's 128 KiB.
        data = _minimal(
            targets=[
                {"name": "t0", "device": "STM32F446RE", "model": "mbnetv2-kws-l"}
            ]
        )
        errors = scenario_errors(data)
        assert len(errors) == 1
        assert errors[0].startswith("targets[0]:")
        assert "SRAM" in errors[0]

    def test_infeasible_latency_budget_rejected(self):
        data = _minimal(
            targets=[
                {
                    "name": "t0",
                    "device": "STM32F446RE",
                    "model": "micronet-kws-s",
                    "latency_ms": 1.0,  # modeled latency is ~275 ms
                }
            ]
        )
        errors = scenario_errors(data)
        assert len(errors) == 1
        assert errors[0].startswith("targets[0].latency_ms:")
        assert "ops" in errors[0]

    def test_feasible_pairing_accepted(self):
        data = _minimal(
            targets=[
                {
                    "name": "t0",
                    "device": "STM32F446RE",
                    "model": "micronet-kws-s",
                    "latency_ms": 400,
                }
            ]
        )
        assert scenario_errors(data) == []

    def test_load_scenario_raises_config_error_with_paths(self, tmp_path):
        path = _write_spec(
            tmp_path,
            _minimal(
                targets=[
                    {"name": "t", "device": "STM32F446RE", "model": "mbnetv2-kws-l"}
                ]
            ),
        )
        with pytest.raises(ConfigError, match=r"targets\[0\]"):
            load_scenario(path)


class TestConfigErrorHierarchy:
    def test_traffic_validation_raises_config_error(self):
        with pytest.raises(ConfigError):
            TrafficConfig(requests=0, mean_rate_hz=5.0)

    def test_config_error_is_repro_error_not_graph_error(self):
        with pytest.raises(ConfigError) as excinfo:
            TrafficConfig(requests=10, mean_rate_hz=-1.0)
        assert isinstance(excinfo.value, ReproError)
        assert not isinstance(excinfo.value, GraphError)


class TestShippedSpecs:
    def test_every_shipped_spec_validates(self, repo_yaml_specs):
        assert repo_yaml_specs, "no .yaml specs shipped?"
        for path in repo_yaml_specs:
            spec = load_scenario(path)  # raises ConfigError on any violation
            compile_scenario(spec)

    def test_builtin_names_resolve(self):
        for name in ("table1_devices", "fig7_kws_pareto", "fleet_mixed"):
            assert resolve_spec_path(name) is not None
        assert resolve_spec_path("no_such_spec") is None


@pytest.fixture
def repo_yaml_specs():
    """Every .yaml/.yml file in the repo — all must be valid scenario specs."""
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    return sorted(
        str(p)
        for pattern in ("*.yaml", "*.yml")
        for p in root.rglob(pattern)
        if ".git" not in p.parts
    )


class TestCompileToPlanParity:
    def test_table1_spec_matches_experiment(self):
        from repro.experiments import table1_devices

        spec = load_scenario(resolve_spec_path("table1_devices"))
        plan = compile_scenario(spec)
        assert len(plan.experiments) == 1
        result = run_plan(plan.experiments[0])
        reference = table1_devices.run()
        assert result.columns == reference.columns
        assert result.rows == reference.rows

    def test_fig7_spec_footprints_match_direct_computation(self):
        from repro.hw.devices import MEDIUM, SMALL
        from repro.hw.latency import LatencyModel
        from repro.models.spec import arch_workload, export_graph
        from repro.runtime import memory_report
        from repro.runtime.deploy import deployment_report
        from repro.spec import modelzoo

        spec = load_scenario(resolve_spec_path("fig7_kws_pareto"))
        plan = compile_scenario(spec)
        result = run_plan(plan.experiments[0])
        assert result.failures == []
        assert [row["model"] for row in result.rows] == [
            "MicroNet-KWS-S", "MicroNet-KWS-M", "MicroNet-KWS-L",
            "DSCNN-S", "DSCNN-M", "DSCNN-L",
            "MBNETV2-S", "MBNETV2-M", "MBNETV2-L",
        ]  # fig7's comparison set, in fig7's order
        latency_model = LatencyModel(MEDIUM)
        by_model = {row["model"]: row for row in result.rows}
        for slug in ("micronet-kws-s", "mbnetv2-kws-l"):
            arch = modelzoo.build_arch(slug)
            graph = export_graph(arch, bits=8)
            memory = memory_report(graph)
            row = by_model[arch.name]
            assert row["accuracy_pct"] is None  # footprint-only spec
            assert row["flash_kb"] == memory.model_flash_bytes / 1024
            assert row["sram_kb"] == memory.total_sram / 1024
            assert row["latency_m_s"] == latency_model.model_latency(
                arch_workload(arch)
            )
            assert row["fits_small"] == deployment_report(graph, SMALL).deployable
            assert row["fits_medium"] == deployment_report(graph, MEDIUM).deployable
        # The paper's headline infeasibility: MBNETV2-L fits neither board.
        assert by_model["MBNETV2-L"]["fits_small"] is False
        assert by_model["MBNETV2-L"]["fits_medium"] is False
        assert by_model["MicroNet-KWS-S"]["fits_small"] is True


def _tiny_fleet_spec() -> dict:
    return _minimal(
        targets=[
            {
                "name": "edge",
                "device": "STM32F446RE",
                "model": "fc-autoencoder-baseline",
                "bits": 8,
            }
        ],
        traffic=[
            {
                "name": "quiet",
                "requests": 8,
                "mean_rate_hz": 4.0,
                "deadline_ms": 500,
                "payload_pool": 4,
                "seed": 3,
            }
        ],
        fleet=[
            {
                "name": "tiny",
                "seed": 9,
                "groups": [
                    {"name": "g0", "target": "edge", "count": 5, "traffic": "quiet"}
                ],
            }
        ],
    )


class TestFleetSimulation:
    def test_fleet_run_is_deterministic(self, tmp_path):
        path = _write_spec(tmp_path, _tiny_fleet_spec())
        plan = compile_scenario(load_scenario(path))
        first = run_fleet_plan(plan.fleets[0])
        second = run_fleet_plan(plan.fleets[0])
        assert first.failures == [] and second.failures == []
        assert first.rows == second.rows

    def test_fleet_row_shape_and_accounting(self, tmp_path):
        path = _write_spec(tmp_path, _tiny_fleet_spec())
        plan = compile_scenario(load_scenario(path))
        assert plan.fleets[0].total_nodes == 5
        result = run_fleet_plan(plan.fleets[0])
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row["nodes"] == 5
        assert row["node_requests"] == 8
        assert row["p50_ms"] > 0
        assert row["drain_s"] > 0
        assert 0.0 <= row["shed_pct"] <= 100.0

    def test_schedule_heap_matches_naive_reference(self):
        """The heapq least-loaded scheduler must assign identically to the
        original O(n*w) min-scan (ties by worker id)."""
        from repro.nas.fabric.schedule import simulate_schedule

        rng = np.random.default_rng(17)
        timeline = [
            [(i, float(d)) for i, d in enumerate(rng.uniform(0.1, 2.0, 23))],
            [(i + 23, float(d)) for i, d in enumerate(rng.uniform(0.1, 2.0, 9))],
        ]
        for workers in (1, 3, 7):
            got = simulate_schedule(timeline, workers, generation_overhead_s=0.5)
            # Naive reference, as the scheduler was originally written.
            clock, completion = 0.0, {}
            for generation in timeline:
                clock += 0.5
                loads = [clock] * workers
                for index, duration in generation:
                    slot = min(range(workers), key=lambda w: (loads[w], w))
                    loads[slot] += duration
                    completion[index] = loads[slot]
                clock = max(loads)
            assert got.makespan_s == clock
            assert got.completion_s == completion


class TestSpecCLI:
    def test_validate_builtin_ok(self, capsys):
        from repro.__main__ import main

        assert main(["spec", "validate", "table1_devices"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "table1" in out

    def test_validate_rejects_bad_spec(self, tmp_path, capsys):
        from repro.__main__ import main

        path = _write_spec(
            tmp_path,
            _minimal(
                targets=[{"name": "t", "device": "nope", "model": "micronet-kws-s"}]
            ),
        )
        assert main(["spec", "validate", path]) == 1
        err = capsys.readouterr().err
        assert "REJECTED" in err
        assert "targets[0].device" in err

    def test_missing_spec_is_usage_error(self, capsys):
        from repro.__main__ import main

        assert main(["spec", "validate", "does_not_exist"]) == 2
        assert "no such spec" in capsys.readouterr().err

    def test_spec_run_prints_table(self, capsys):
        from repro.__main__ import main

        assert main(["spec", "run", "table1_devices", "--no-save"]) == 0
        out = capsys.readouterr().out
        assert "STM32F446RE" in out
        assert "STM32F767ZI" in out

    def test_spec_run_saves_under_the_scenario_name(self, capsys, tmp_path, monkeypatch):
        # `repro run table1` archives table1.txt; the spec run of the same
        # table must land beside it, not on top of it.
        from repro.__main__ import main

        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert main(["spec", "run", "table1_devices"]) == 0
        assert "table1-devices.table1.txt" in capsys.readouterr().out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["table1-devices.table1.txt"]

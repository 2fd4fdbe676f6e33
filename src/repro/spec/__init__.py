"""Spec-driven scenarios: declare experiments and fleets in YAML, validate
them at load time, compile them into executable plans.

The spec is the contract: a scenario file names devices, models, tasks,
deployment targets, traffic profiles, experiments, and fleet simulations;
:func:`load_scenario` rejects dangling references, out-of-range fields,
and infeasible budget pairings with path-qualified errors before anything
runs; :func:`compile_scenario` lowers the survivors into plans executed by
the same code paths as the hand-wired ``repro.experiments`` modules.
"""

from repro.spec.compiler import (
    ExperimentPlan,
    FleetGroupPlan,
    FleetPlan,
    ScenarioPlan,
    compile_scenario,
    run_plan,
    run_scenario,
)
from repro.spec.fleet import run_fleet_plan
from repro.spec.loader import (
    BUILTIN_SPEC_DIR,
    ChaosInjectionSpec,
    ChaosScheduleSpec,
    DeviceSpec,
    ExperimentSpec,
    FleetGroupSpec,
    FleetSpec,
    ModelFamilySpec,
    ScenarioSpec,
    TargetSpec,
    TaskSpec,
    TrafficSpec,
    builtin_spec_paths,
    load_scenario,
    parse_spec_file,
    resolve_spec_path,
    scenario_errors,
)
from repro.spec.schema import load_schema, schema_errors

__all__ = [
    "BUILTIN_SPEC_DIR",
    "ChaosInjectionSpec",
    "ChaosScheduleSpec",
    "DeviceSpec",
    "ExperimentPlan",
    "ExperimentSpec",
    "FleetGroupPlan",
    "FleetGroupSpec",
    "FleetPlan",
    "FleetSpec",
    "ModelFamilySpec",
    "ScenarioPlan",
    "ScenarioSpec",
    "TargetSpec",
    "TaskSpec",
    "TrafficSpec",
    "builtin_spec_paths",
    "compile_scenario",
    "load_scenario",
    "load_schema",
    "parse_spec_file",
    "resolve_spec_path",
    "run_fleet_plan",
    "run_plan",
    "run_scenario",
    "scenario_errors",
    "schema_errors",
]

"""Scenario spec loading: parse, validate, resolve.

A scenario spec is one YAML (or JSON) document declaring devices, model
families, tasks, deployment targets, traffic profiles, experiments, and
fleet simulations. :func:`load_scenario` takes it through three gates:

1. **Structural** — the shipped JSON-Schema (``schemas/scenario.schema.json``)
   interpreted by :mod:`repro.spec.schema`: types, ranges, enums, unknown
   keys.
2. **Referential** — every cross-reference must resolve: a target naming a
   device, an experiment naming a model family, a fleet group naming a
   traffic profile. Dangling names are rejected with the candidates listed.
3. **Feasibility** — every target is pushed through the real deploy-time
   guardrails (:func:`repro.validate.checks.validate_deployment`) and the
   paper's latency budget arithmetic (:mod:`repro.nas.budgets`), so a spec
   that promises an over-SRAM or over-latency pairing fails at load time,
   not three hours into a sweep.

All three gates report **path-qualified** errors (``targets[1].device:
unknown device 'STM32F9'``) and every error at once, raised as one
:class:`~repro.errors.ConfigError`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigError, DeploymentError, ReproError
from repro.hw.devices import DEVICES, KiB, MCUDevice, get_device
from repro.serve.traffic import TrafficConfig
from repro.spec import modelzoo
from repro.spec.schema import load_schema, schema_errors

#: Directory of specs shipped inside the package (also package data).
BUILTIN_SPEC_DIR = os.path.join(os.path.dirname(__file__), "builtin")


# ----------------------------------------------------------------------
# Typed views over the validated document.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DeviceSpec:
    """A custom (non-builtin) MCU declared by the spec."""

    name: str
    clock_mhz: float
    sram_kb: float
    eflash_kb: float
    core: str = "cortex-m4"
    active_power_w: float = 0.1
    sleep_power_w: float = 0.0022
    dual_issue: bool = False
    price_usd: float = 0.0

    def to_device(self) -> MCUDevice:
        return MCUDevice(
            name=self.name,
            core=self.core,
            clock_hz=self.clock_mhz * 1e6,
            sram_bytes=int(self.sram_kb * KiB),
            eflash_bytes=int(self.eflash_kb * KiB),
            active_power_w=self.active_power_w,
            sleep_power_w=self.sleep_power_w,
            dual_issue=self.dual_issue,
            price_usd=self.price_usd,
        )


@dataclass(frozen=True)
class ModelFamilySpec:
    name: str
    members: Tuple[str, ...]


@dataclass(frozen=True)
class TaskSpec:
    name: str
    kind: str  #: ``kws`` | ``vww`` | ``ad``
    train: bool = False


@dataclass(frozen=True)
class TargetSpec:
    """One deployment pairing, feasibility-checked at load time."""

    name: str
    device: str
    model: str
    task: Optional[str] = None
    bits: int = 8
    latency_ms: Optional[float] = None


@dataclass(frozen=True)
class TrafficSpec:
    """A named traffic profile in spec units (deadline in ms)."""

    name: str
    requests: int
    mean_rate_hz: float
    diurnal_amplitude: float = 0.5
    diurnal_period_s: float = 10.0
    burst_prob: float = 0.005
    burst_size: int = 16
    burst_spread_s: float = 0.002
    deadline_ms: float = 100.0
    payload_pool: int = 64
    seed: int = 0

    def to_config(self) -> TrafficConfig:
        return TrafficConfig(
            requests=self.requests,
            mean_rate_hz=self.mean_rate_hz,
            diurnal_amplitude=self.diurnal_amplitude,
            diurnal_period_s=self.diurnal_period_s,
            burst_prob=self.burst_prob,
            burst_size=self.burst_size,
            burst_spread_s=self.burst_spread_s,
            deadline_s=self.deadline_ms / 1000.0,
            payload_pool=self.payload_pool,
            seed=self.seed,
        )


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    kind: str  #: ``device_table`` | ``pareto``
    devices: Tuple[str, ...] = ()
    models: Tuple[str, ...] = ()
    bits: int = 8
    latency_device: Optional[str] = None
    task: Optional[str] = None


@dataclass(frozen=True)
class FleetGroupSpec:
    name: str
    target: str
    count: int
    traffic: str
    chaos: Optional[str] = None  #: named chaos schedule for degraded-mode sim


@dataclass(frozen=True)
class FleetSpec:
    name: str
    groups: Tuple[FleetGroupSpec, ...]
    seed: int = 0


@dataclass(frozen=True)
class ChaosInjectionSpec:
    """One declared misbehavior (spec units: durations in ms)."""

    site: str
    kind: str  #: ``raise`` | ``hang`` | ``slow`` | ``corrupt``
    at: int = 1
    times: int = 1
    rate: Optional[float] = None
    duration_ms: float = 0.0
    factor: float = 1.0
    mutator: Optional[str] = None

    def to_spec(self):
        from repro.resilience.faults import ChaosSpec

        return ChaosSpec(
            site=self.site,
            kind=self.kind,
            at=self.at,
            times=self.times,
            rate=self.rate,
            duration_s=self.duration_ms / 1000.0,
            factor=self.factor,
            mutator=self.mutator,
        )


@dataclass(frozen=True)
class ChaosScheduleSpec:
    """A named, seeded fault schedule fleet groups can opt into."""

    name: str
    faults: Tuple[ChaosInjectionSpec, ...]
    seed: int = 0

    def to_plan(self):
        from repro.resilience.faults import ChaosPlan

        return ChaosPlan(*(fault.to_spec() for fault in self.faults), seed=self.seed)


@dataclass(frozen=True)
class ScenarioSpec:
    """A fully validated scenario document."""

    name: str
    description: str = ""
    devices: Tuple[DeviceSpec, ...] = ()
    model_families: Tuple[ModelFamilySpec, ...] = ()
    tasks: Tuple[TaskSpec, ...] = ()
    targets: Tuple[TargetSpec, ...] = ()
    traffic: Tuple[TrafficSpec, ...] = ()
    experiments: Tuple[ExperimentSpec, ...] = ()
    fleets: Tuple[FleetSpec, ...] = ()
    chaos: Tuple[ChaosScheduleSpec, ...] = ()
    source: Optional[str] = None
    _device_cache: Dict[str, MCUDevice] = field(
        default_factory=dict, compare=False, repr=False
    )

    # -- resolution helpers -------------------------------------------
    def known_device_names(self) -> List[str]:
        return sorted(DEVICES) + [d.name for d in self.devices]

    def device(self, name: str) -> MCUDevice:
        """Resolve a device reference: spec-local, builtin name, or S/M/L."""
        if name in self._device_cache:
            return self._device_cache[name]
        for spec in self.devices:
            if spec.name == name:
                device = spec.to_device()
                self._device_cache[name] = device
                return device
        try:
            return get_device(name)
        except DeploymentError:
            raise ConfigError(
                f"unknown device {name!r} (known: "
                f"{', '.join(self.known_device_names())} or S/M/L)"
            ) from None

    def has_device(self, name: str) -> bool:
        try:
            self.device(name)
        except ConfigError:
            return False
        return True

    def family(self, name: str) -> Optional[ModelFamilySpec]:
        for fam in self.model_families:
            if fam.name == name:
                return fam
        return None

    def resolve_models(self, names: Sequence[str]) -> List[str]:
        """Expand family references into the flat ordered member list."""
        resolved: List[str] = []
        for name in names:
            fam = self.family(name)
            if fam is not None:
                resolved.extend(fam.members)
            else:
                resolved.append(name)
        return resolved

    def task(self, name: str) -> Optional[TaskSpec]:
        for task in self.tasks:
            if task.name == name:
                return task
        return None

    def target(self, name: str) -> Optional[TargetSpec]:
        for target in self.targets:
            if target.name == name:
                return target
        return None

    def traffic_profile(self, name: str) -> Optional[TrafficSpec]:
        for profile in self.traffic:
            if profile.name == name:
                return profile
        return None

    def chaos_schedule(self, name: str) -> Optional[ChaosScheduleSpec]:
        for schedule in self.chaos:
            if schedule.name == name:
                return schedule
        return None


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
def parse_spec_file(path: str) -> dict:
    """Read a YAML/JSON spec document into plain data structures."""
    with open(path, "r") as handle:
        text = handle.read()
    if path.endswith(".json"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON: {exc}") from None
    else:
        try:
            import yaml
        except ImportError:  # pragma: no cover - PyYAML present in dev envs
            raise ConfigError(
                f"{path}: loading YAML specs requires PyYAML "
                "(pip install 'repro[spec]'), or supply the spec as .json"
            ) from None
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: not valid YAML: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(
            f"{path}: spec document must be a mapping, got "
            f"{type(data).__name__}"
        )
    return data


def _build_scenario(data: dict, source: Optional[str]) -> ScenarioSpec:
    """Typed views over a structurally valid document (no validation here)."""

    def rows(key: str, cls) -> tuple:
        return tuple(cls(**entry) for entry in data.get(key) or ())

    fleets = tuple(
        FleetSpec(
            name=entry["name"],
            seed=entry.get("seed", 0),
            groups=tuple(FleetGroupSpec(**g) for g in entry["groups"]),
        )
        for entry in data.get("fleet") or ()
    )
    experiments = tuple(
        ExperimentSpec(
            name=entry["name"],
            kind=entry["kind"],
            devices=tuple(entry.get("devices") or ()),
            models=tuple(entry.get("models") or ()),
            bits=entry.get("bits", 8),
            latency_device=entry.get("latency_device"),
            task=entry.get("task"),
        )
        for entry in data.get("experiments") or ()
    )
    families = tuple(
        ModelFamilySpec(name=entry["name"], members=tuple(entry["members"]))
        for entry in data.get("model_families") or ()
    )
    chaos = tuple(
        ChaosScheduleSpec(
            name=entry["name"],
            seed=entry.get("seed", 0),
            faults=tuple(ChaosInjectionSpec(**f) for f in entry["faults"]),
        )
        for entry in data.get("chaos") or ()
    )
    return ScenarioSpec(
        name=data["name"],
        description=data.get("description", ""),
        devices=rows("devices", DeviceSpec),
        model_families=families,
        tasks=rows("tasks", TaskSpec),
        targets=rows("targets", TargetSpec),
        traffic=rows("traffic", TrafficSpec),
        experiments=experiments,
        fleets=fleets,
        chaos=chaos,
        source=source,
    )


# ----------------------------------------------------------------------
# Referential integrity
# ----------------------------------------------------------------------
def _duplicate_errors(spec: ScenarioSpec) -> List[str]:
    errors: List[str] = []
    sections = [
        ("devices", [d.name for d in spec.devices]),
        ("model_families", [f.name for f in spec.model_families]),
        ("tasks", [t.name for t in spec.tasks]),
        ("targets", [t.name for t in spec.targets]),
        ("traffic", [t.name for t in spec.traffic]),
        ("experiments", [e.name for e in spec.experiments]),
        ("fleet", [f.name for f in spec.fleets]),
        ("chaos", [c.name for c in spec.chaos]),
    ]
    for section, names in sections:
        seen: Dict[str, int] = {}
        for index, name in enumerate(names):
            if name in seen:
                errors.append(
                    f"{section}[{index}].name: duplicate name {name!r} "
                    f"(first declared at {section}[{seen[name]}])"
                )
            else:
                seen[name] = index
    for index, device in enumerate(spec.devices):
        if device.name in DEVICES:
            errors.append(
                f"devices[{index}].name: {device.name!r} shadows a builtin "
                f"device; pick a distinct name"
            )
    return errors


def _model_ref_error(spec: ScenarioSpec, path: str, name: str,
                     allow_family: bool) -> Optional[str]:
    if modelzoo.is_model(name):
        return None
    if allow_family and spec.family(name) is not None:
        return None
    known = modelzoo.model_names()
    if allow_family:
        known = [f.name for f in spec.model_families] + known
    return f"{path}: unknown model{'/family' if allow_family else ''} " \
           f"{name!r} (known: {', '.join(known)})"


def cross_reference_errors(spec: ScenarioSpec) -> List[str]:
    """Every dangling name in the document, path-qualified."""
    errors = _duplicate_errors(spec)

    def check_device(path: str, name: str) -> None:
        if not spec.has_device(name):
            errors.append(
                f"{path}: unknown device {name!r} (known: "
                f"{', '.join(spec.known_device_names())} or S/M/L)"
            )

    for index, family in enumerate(spec.model_families):
        for j, member in enumerate(family.members):
            error = _model_ref_error(
                spec, f"model_families[{index}].members[{j}]", member,
                allow_family=False,
            )
            if error:
                errors.append(error)

    for index, target in enumerate(spec.targets):
        check_device(f"targets[{index}].device", target.device)
        error = _model_ref_error(
            spec, f"targets[{index}].model", target.model, allow_family=False
        )
        if error:
            errors.append(error)
        if target.task is not None and spec.task(target.task) is None:
            errors.append(
                f"targets[{index}].task: unknown task {target.task!r} "
                f"(known: {', '.join(t.name for t in spec.tasks) or 'none'})"
            )

    for index, experiment in enumerate(spec.experiments):
        for j, name in enumerate(experiment.devices):
            check_device(f"experiments[{index}].devices[{j}]", name)
        if experiment.latency_device is not None:
            check_device(
                f"experiments[{index}].latency_device", experiment.latency_device
            )
        for j, name in enumerate(experiment.models):
            error = _model_ref_error(
                spec, f"experiments[{index}].models[{j}]", name, allow_family=True
            )
            if error:
                errors.append(error)
        if experiment.kind == "pareto" and not experiment.models:
            errors.append(
                f"experiments[{index}].models: a pareto experiment needs at "
                f"least one model or family"
            )
        if experiment.task is not None and spec.task(experiment.task) is None:
            errors.append(
                f"experiments[{index}].task: unknown task {experiment.task!r} "
                f"(known: {', '.join(t.name for t in spec.tasks) or 'none'})"
            )

    for index, fleet in enumerate(spec.fleets):
        for j, group in enumerate(fleet.groups):
            prefix = f"fleet[{index}].groups[{j}]"
            if spec.target(group.target) is None:
                errors.append(
                    f"{prefix}.target: unknown target {group.target!r} "
                    f"(known: {', '.join(t.name for t in spec.targets) or 'none'})"
                )
            if spec.traffic_profile(group.traffic) is None:
                errors.append(
                    f"{prefix}.traffic: unknown traffic profile "
                    f"{group.traffic!r} (known: "
                    f"{', '.join(t.name for t in spec.traffic) or 'none'})"
                )
            if group.chaos is not None and spec.chaos_schedule(group.chaos) is None:
                errors.append(
                    f"{prefix}.chaos: unknown chaos schedule {group.chaos!r} "
                    f"(known: {', '.join(c.name for c in spec.chaos) or 'none'})"
                )

    from repro.resilience.faults import BEHAVIOR_SITES, SITES as FAULT_SITES

    for index, schedule in enumerate(spec.chaos):
        for j, fault in enumerate(schedule.faults):
            if fault.site not in FAULT_SITES:
                errors.append(
                    f"chaos[{index}].faults[{j}].site: unknown fault site "
                    f"{fault.site!r} (known: {', '.join(FAULT_SITES)})"
                )
            elif fault.kind != "raise" and fault.site not in BEHAVIOR_SITES:
                errors.append(
                    f"chaos[{index}].faults[{j}].kind: {fault.site!r} is a "
                    f"raise-only crash site; {fault.kind!r} needs one of "
                    f"{', '.join(BEHAVIOR_SITES)}"
                )
    return errors


# ----------------------------------------------------------------------
# Budget feasibility
# ----------------------------------------------------------------------
def budget_errors(spec: ScenarioSpec) -> List[str]:
    """Infeasible target pairings, via the real deploy-time guardrails.

    Each target's model is exported at its quantization width and pushed
    through :func:`validate_deployment` (SRAM peak + flash) against its
    device; a ``latency_ms`` bound is converted to the paper's op budget
    (:func:`repro.nas.budgets.budgets_for_device`) and compared against the
    memoized :func:`resource_profile`. Requires references to resolve —
    run :func:`cross_reference_errors` first.
    """
    from repro.models.spec import export_graph
    from repro.nas.budgets import budgets_for_device, resource_profile
    from repro.validate.checks import validate_deployment

    errors: List[str] = []
    for index, target in enumerate(spec.targets):
        device = spec.device(target.device)
        arch = modelzoo.build_arch(target.model)
        try:
            graph = export_graph(arch, bits=target.bits)
            validate_deployment(graph, device)
        except DeploymentError as exc:
            errors.append(f"targets[{index}]: {exc}")
            continue
        except ReproError as exc:
            errors.append(
                f"targets[{index}]: model {target.model!r} failed to export "
                f"at {target.bits} bits: {exc}"
            )
            continue
        if target.latency_ms is not None:
            budget = budgets_for_device(
                device, latency_target_s=target.latency_ms / 1000.0,
                weight_bits=target.bits,
            )
            profile = resource_profile(arch, bits=target.bits)
            if budget.ops is not None and profile.ops > budget.ops:
                errors.append(
                    f"targets[{index}].latency_ms: model {target.model!r} "
                    f"needs {profile.ops} ops but {device.name} affords only "
                    f"{budget.ops:.0f} ops within {target.latency_ms} ms"
                )
    return errors


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def scenario_errors(data: dict, check_budgets: bool = True) -> List[str]:
    """Validate parsed spec data; returns all errors, path-qualified."""
    errors = schema_errors(data, load_schema())
    if errors:
        return errors  # typed views need structure to hold first
    spec = _build_scenario(data, source=None)
    errors = cross_reference_errors(spec)
    if errors or not check_budgets:
        return errors
    return budget_errors(spec)


def load_scenario(path: str, check_budgets: bool = True) -> ScenarioSpec:
    """Parse + fully validate a spec file; raises :class:`ConfigError`
    carrying every path-qualified violation at once."""
    data = parse_spec_file(path)
    errors = scenario_errors(data, check_budgets=check_budgets)
    if errors:
        raise ConfigError(
            f"spec {os.path.basename(path)!r} is invalid "
            f"({len(errors)} error(s)):\n" + "\n".join(errors)
        )
    return _build_scenario(data, source=path)


def builtin_spec_paths() -> List[str]:
    """The spec files shipped inside the package, sorted by name."""
    if not os.path.isdir(BUILTIN_SPEC_DIR):  # pragma: no cover
        return []
    return sorted(
        os.path.join(BUILTIN_SPEC_DIR, name)
        for name in os.listdir(BUILTIN_SPEC_DIR)
        if name.endswith((".yaml", ".yml", ".json"))
    )


def resolve_spec_path(ref: str) -> Optional[str]:
    """A CLI spec reference: a file path, or a shipped spec's bare name."""
    if os.path.exists(ref):
        return ref
    for candidate in (ref, f"{ref}.yaml", f"{ref}.yml", f"{ref}.json"):
        path = os.path.join(BUILTIN_SPEC_DIR, candidate)
        if os.path.exists(path):
            return path
    return None

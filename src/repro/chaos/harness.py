"""Replay real workloads under seeded fault schedules; check the invariants.

Three entry points:

* :func:`run_chaos_serve` — replays the serving load trace through a
  defended :class:`~repro.serve.server.ModelServer` under each shipped
  :data:`SERVE_SCHEDULES` entry (hang storm, slow tail, corrupt burst,
  crash blackout) and collects invariant **violations** instead of
  asserting, so one broken schedule doesn't mask the rest.
* :func:`run_chaos_fabric` — runs a fabric mini-sweep on a
  :class:`~repro.nas.fabric.MultiprocessExecutor` while the
  ``executor_task`` chaos site hangs selected dispatches: the requeue run
  must be bitwise identical to the fault-free sweep, the poison run must
  quarantine the unkillable candidate, and the journal must never record
  a candidate index twice.
* :func:`run_chaos_bench` — the ``chaos_resilience`` section of
  ``BENCH_hotpaths.json``: the same hang schedule replayed with the
  defenses off vs on, headlined by the undefended/defended p99 ratio.

Invariants checked (the tentpole's survival contract):

1. request conservation holds at every drain (``verify_conservation``);
2. surviving (ok) responses are bitwise equal to the fault-free run's
   response for the same request id;
3. a hung invoke or worker never blocks ``drain()`` / ``run_sweep`` past
   a computable deadline bound;
4. the same chaos seed replays to identical ``ServerStats`` and response
   sequences;
5. the fabric journal holds zero double-evaluations.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import GraphError, ReproError
from repro.resilience import faults
from repro.runtime.passes import compile_graph
from repro.serve.bench import (
    BENCH_PRESETS,
    ReplayResult,
    calibrate_service_model,
    replay_trace,
    serving_model,
)
from repro.serve.clock import FakeClock
from repro.serve.server import ModelServer, TenantConfig
from repro.serve.traffic import TrafficConfig, make_payload_pool, synthetic_trace

#: Per-mode trace lengths for the chaos replays (serve side). The knob
#: ``REPRO_CHAOS_ITERS`` separately controls how many same-seed replays the
#: determinism check performs (default 1 extra replay per schedule).
CHAOS_PRESETS = {"smoke": 200, "ci": 800, "paper": 4000}

#: Fraction of the request deadline an invoke may spend before the
#: defended tenant cuts it off and hedges.
_TIMEOUT_FRACTION = 0.2


def _chaos_iters() -> int:
    return max(1, int(os.environ.get("REPRO_CHAOS_ITERS", "1")))


# ----------------------------------------------------------------------
# Serve-side harness
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ServeChaosSchedule:
    """A named, seeded fault schedule for the serving replay."""

    name: str
    seed: int
    specs: Tuple[faults.ChaosSpec, ...]
    description: str = ""

    def plan(self) -> faults.ChaosPlan:
        """A fresh (zero-hit) plan; plans are stateful and single-use."""
        return faults.ChaosPlan(*self.specs, seed=self.seed)


#: The shipped schedule corpus. Durations/factors are expressed relative to
#: the workload's request deadline at build time (see ``_scale_schedule``),
#: so the same corpus stresses any service-time calibration.
SERVE_SCHEDULES: Tuple[ServeChaosSchedule, ...] = (
    ServeChaosSchedule(
        name="hang_storm",
        seed=101,
        specs=(
            faults.ChaosSpec("serve_invoke", "hang", rate=0.08, duration_s=10.0),
        ),
        description="8% of invokes hang far past the invoke timeout",
    ),
    ServeChaosSchedule(
        name="slow_tail",
        seed=202,
        specs=(
            faults.ChaosSpec("serve_invoke", "slow", rate=0.15, factor=3.0),
            faults.ChaosSpec("serve_invoke", "slow", rate=0.05, factor=1000.0),
        ),
        description="service-time stretch: mild 3x tail plus rare wedges",
    ),
    ServeChaosSchedule(
        name="corrupt_burst",
        seed=303,
        specs=(
            faults.ChaosSpec(
                "serve_invoke", "corrupt", at=5, times=10, mutator="nan"
            ),
        ),
        description="a 10-invoke NaN-corruption burst starting at invoke 5",
    ),
    ServeChaosSchedule(
        name="crash_blackout",
        seed=404,
        specs=(
            faults.ChaosSpec("serve_invoke", "raise", at=1, times=12),
            faults.ChaosSpec("serve_invoke", "raise", rate=0.05, at=13, times=10**9),
        ),
        description="12 straight crashes slam the breaker open; the "
        "half-open probe after the cooldown recovers",
    ),
)


@dataclass
class ServeWorkload:
    """Everything a chaos replay needs, built once and replayed many times."""

    graph: object
    service_s: float  #: calibrated single-sample invoke time
    traffic: TrafficConfig
    trace: list
    payloads: np.ndarray
    deadline_s: float

    def service_time_fn(self, digest: str, batch: int) -> float:
        return self.service_s * batch

    def defended_tenant(self) -> TenantConfig:
        return TenantConfig(
            max_batch=1,  # single-sample dispatch => bitwise-stable outputs
            max_wait_s=0.0,
            queue_depth=256,
            default_deadline_s=self.deadline_s,
            max_retries=1,
            retry_backoff_s=0.0,
            invoke_timeout_s=_TIMEOUT_FRACTION * self.deadline_s,
            breaker_threshold=6,
            breaker_cooldown_s=4 * self.deadline_s,
            quarantine_failed=True,
        )

    def undefended_tenant(self) -> TenantConfig:
        return TenantConfig(
            max_batch=1,
            max_wait_s=0.0,
            queue_depth=256,
            default_deadline_s=self.deadline_s,
            max_retries=1,
            retry_backoff_s=0.0,
        )


def build_serve_workload(
    mode: str = "smoke", seed: int = 0, requests: Optional[int] = None
) -> ServeWorkload:
    """Compile the bench serving model and synthesize one seeded trace.

    The arrival rate sits at 40% of single-sample capacity and the
    deadline at 25 invoke times (virtual clock — no wall-clock floor
    needed), so the fault-free baseline serves (almost) everything and
    every shed under chaos is attributable to the injected faults.
    """
    input_shape, width, blocks, repeats, _ = BENCH_PRESETS[mode]
    graph = compile_graph(serving_model(input_shape, width, blocks), level="O2").graph
    service = calibrate_service_model(graph, 1, input_shape, repeats=repeats)
    service_s = service.seconds_for(1)
    deadline_s = 25 * service_s
    traffic = TrafficConfig(
        requests=requests if requests is not None else CHAOS_PRESETS[mode],
        mean_rate_hz=0.4 / service_s,
        deadline_s=deadline_s,
        payload_pool=16,
        seed=seed,
    )
    trace = synthetic_trace(traffic)
    payloads = make_payload_pool(input_shape, traffic.payload_pool, seed=seed)
    return ServeWorkload(
        graph=graph,
        service_s=service_s,
        traffic=traffic,
        trace=trace,
        payloads=payloads,
        deadline_s=deadline_s,
    )


def _replay(
    workload: ServeWorkload,
    tenant: TenantConfig,
    plan: Optional[faults.ChaosPlan] = None,
) -> Tuple[Optional[ReplayResult], Optional[str]]:
    """One fresh-server replay; (result, None) or (None, error detail)."""
    server = ModelServer(clock=FakeClock(), service_time_fn=workload.service_time_fn)
    digest = server.register(workload.graph, tenant)
    guard = faults.inject(plan) if plan is not None else nullcontext()
    try:
        with guard:
            return replay_trace(server, digest, workload.trace, workload.payloads), None
    except GraphError as exc:  # conservation violation — record, don't die
        return None, f"{type(exc).__name__}: {exc}"
    except ReproError as exc:  # an undefended fault escaped the server
        return None, f"{type(exc).__name__}: {exc}"


def _response_signature(replay: ReplayResult) -> Tuple:
    """Everything the same-seed determinism contract covers, hashable."""
    return tuple(
        (
            r.request_id,
            r.status,
            r.arrival_s,
            r.finish_s,
            r.batch_size,
            r.shed.code if r.shed is not None else None,
        )
        for r in replay.responses
    )


def _fired_counts(plan: faults.ChaosPlan) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for _site, _occurrence, kind in plan.fired:
        counts[kind] = counts.get(kind, 0) + 1
    return counts


def run_chaos_serve(
    mode: str = "smoke", seed: int = 0, requests: Optional[int] = None
) -> Dict:
    """Replay the load trace under every shipped schedule; report violations."""
    workload = build_serve_workload(mode, seed=seed, requests=requests)
    tenant = workload.defended_tenant()
    violations: List[Dict] = []

    def violate(schedule: str, check: str, detail: str) -> None:
        violations.append({"schedule": schedule, "check": check, "detail": detail})

    baseline, error = _replay(workload, tenant)
    if baseline is None:
        violate("baseline", "fault_free_replay", error or "no result")
        return {
            "mode": mode,
            "seed": seed,
            "requests": len(workload.trace),
            "schedules": [],
            "violations": violations,
            "ok": False,
        }
    baseline_ok = {r.request_id: r for r in baseline.ok_responses}

    schedule_rows: List[Dict] = []
    for schedule in SERVE_SCHEDULES:
        plan = schedule.plan()
        replay, error = _replay(workload, tenant, plan)
        row: Dict = {
            "name": schedule.name,
            "description": schedule.description,
            "fired": _fired_counts(plan),
            "fired_total": len(plan.fired),
        }
        if replay is None:
            violate(schedule.name, "conservation", error or "replay failed")
            schedule_rows.append(row)
            continue

        # 2. Survivors bitwise equal to the fault-free run (same request id).
        mismatched = 0
        for response in replay.ok_responses:
            reference = baseline_ok.get(response.request_id)
            if reference is None or not np.array_equal(
                response.output, reference.output
            ):
                mismatched += 1
        if mismatched:
            violate(
                schedule.name,
                "survivor_parity",
                f"{mismatched} surviving response(s) differ from the "
                f"fault-free replay",
            )

        # 3. Bounded stall: every fired action can cost at most one hedged
        # invoke-timeout round; anything beyond that bound means a hang
        # leaked past the defenses and wedged the drain.
        per_fault = tenant.invoke_timeout_s * (tenant.max_retries + 1)
        bound = baseline.makespan_s + len(plan.fired) * per_fault + workload.deadline_s
        if not replay.makespan_s <= bound:
            violate(
                schedule.name,
                "bounded_stall",
                f"makespan {replay.makespan_s:.4f}s exceeds the defense "
                f"bound {bound:.4f}s (baseline {baseline.makespan_s:.4f}s, "
                f"{len(plan.fired)} fault(s))",
            )

        # 4. Same seed => identical stats and response sequence.
        for _ in range(_chaos_iters()):
            again, error = _replay(workload, tenant, schedule.plan())
            if again is None:
                violate(schedule.name, "replay_determinism", error or "replay failed")
                break
            if again.stats != replay.stats or _response_signature(
                again
            ) != _response_signature(replay):
                violate(
                    schedule.name,
                    "replay_determinism",
                    "same chaos seed produced different stats or responses",
                )
                break

        row.update(
            stats=replay.stats,
            latency=replay.as_dict(),
            survivors=len(replay.ok_responses),
            recovery_s=max(0.0, replay.makespan_s - baseline.makespan_s),
        )
        schedule_rows.append(row)

    return {
        "mode": mode,
        "seed": seed,
        "requests": len(workload.trace),
        "baseline": baseline.as_dict(),
        "schedules": schedule_rows,
        "violations": violations,
        "ok": not violations,
    }


# ----------------------------------------------------------------------
# Fabric-side harness
# ----------------------------------------------------------------------
def chaos_param_oracle(arch, rng) -> float:
    """Cheap deterministic oracle (module-level, hence pool-picklable)."""
    from repro.nas.budgets import resource_profile

    return float(resource_profile(arch).params) / 1e5 + float(rng.random())


def _make_search_pieces(max_evaluations: int = 8):
    from repro.nas.blackbox import DSCNNSearchSpace, EvolutionarySearch
    from repro.nas.budgets import ResourceBudget

    space = DSCNNSearchSpace(
        input_shape=(16, 8, 1), num_classes=4, width_options=(8, 16, 24),
        num_blocks=3, stem_kernel=(4, 4), stem_stride=(2, 2),
    )
    budget = ResourceBudget(params=60_000, activation_bytes=40_000, ops=4_000_000)
    searcher = EvolutionarySearch(
        space, budget, max_evaluations=max_evaluations, population_size=4,
        generation_size=4,
    )
    return searcher


def _sweep_signature(sweep) -> Tuple:
    """The fabric bitwise-identity contract as one comparable tuple."""
    result = sweep.result
    return (
        result.evaluations,
        result.proposed,
        result.best_fitness,
        tuple(result.history),
        tuple((f.genome, f.error, f.attempts) for f in result.failures),
        tuple((p.name, p.score, p.costs) for p in sweep.front),
    )


def _journal_duplicates(path: str) -> List[int]:
    from repro.nas.fabric import ResultJournal

    records = ResultJournal(path).load()
    seen: Dict[int, int] = {}
    for record in records:
        seen[int(record["index"])] = seen.get(int(record["index"]), 0) + 1
    return sorted(index for index, count in seen.items() if count > 1)


def run_chaos_fabric(
    workdir: str,
    workers: int = 2,
    task_timeout_s: float = 2.0,
    rng: int = 5,
) -> Dict:
    """Dead/hung-worker drill: requeue recovery, then poison quarantine.

    Three sweeps share one seed: a fault-free serial baseline, a
    multiprocess run where candidate 1's *first* dispatch hangs past the
    task deadline (the requeue must recover it, bitwise), and a run where
    candidate 1 hangs on *every* dispatch (the requeue budget must exhaust
    into a structured poison failure instead of wedging the sweep).
    """
    from repro.nas.budgets import clear_profile_cache
    from repro.nas.fabric import MultiprocessExecutor, run_sweep
    from repro.resilience.checkpoint import CheckpointConfig

    violations: List[Dict] = []

    def violate(check: str, detail: str) -> None:
        violations.append({"schedule": "fabric", "check": check, "detail": detail})

    hang_s = 4 * task_timeout_s
    baseline = run_sweep(_make_search_pieces(), chaos_param_oracle, rng=rng)

    # --- requeue recovery: first dispatch of candidate 1 hangs, retry wins.
    clear_profile_cache()
    requeue_plan = faults.ChaosPlan(
        faults.ChaosSpec(
            "executor_task", "hang", keys=(1,), at=1, times=1, duration_s=hang_s
        ),
        seed=11,
    )
    requeue_path = os.path.join(workdir, "chaos_requeue.npz")
    with MultiprocessExecutor(
        workers, task_timeout_s=task_timeout_s, max_requeues=2
    ) as executor:
        with faults.inject(requeue_plan):
            recovered = run_sweep(
                _make_search_pieces(),
                chaos_param_oracle,
                rng=rng,
                executor=executor,
                checkpoint=CheckpointConfig(path=requeue_path, resume=False),
            )
        requeues, requeue_poisoned = executor.requeues, executor.poisoned
    if _sweep_signature(recovered) != _sweep_signature(baseline):
        violate(
            "requeue_parity",
            "requeued sweep is not bitwise identical to the fault-free run",
        )
    if requeues < 1:
        violate("requeue_fired", "the hang never triggered a requeue")
    if requeue_poisoned:
        violate("requeue_poison", f"{requeue_poisoned} candidate(s) poisoned")
    requeue_duplicates = _journal_duplicates(requeue_path + ".journal")
    if requeue_duplicates:
        violate(
            "journal_unique",
            f"journal recorded candidates {requeue_duplicates} more than once",
        )

    # --- poison quarantine: candidate 1 hangs on every dispatch.
    clear_profile_cache()
    poison_plan = faults.ChaosPlan(
        faults.ChaosSpec(
            "executor_task", "hang", keys=(1,), at=1, times=10**9,
            duration_s=hang_s,
        ),
        seed=11,
    )
    poison_path = os.path.join(workdir, "chaos_poison.npz")
    with MultiprocessExecutor(
        workers, task_timeout_s=task_timeout_s, max_requeues=1
    ) as executor:
        with faults.inject(poison_plan):
            poisoned_sweep = run_sweep(
                _make_search_pieces(),
                chaos_param_oracle,
                rng=rng,
                executor=executor,
                checkpoint=CheckpointConfig(path=poison_path, resume=False),
            )
        poisoned = executor.poisoned
    if poisoned != 1:
        violate("poison_quarantine", f"expected 1 poisoned candidate, got {poisoned}")
    poison_failures = [
        f for f in poisoned_sweep.result.failures
        if "poison candidate quarantined" in (f.error or "")
    ]
    if len(poison_failures) != 1:
        violate(
            "poison_failure_record",
            f"expected exactly one structured poison failure, got "
            f"{len(poison_failures)}",
        )
    poison_duplicates = _journal_duplicates(poison_path + ".journal")
    if poison_duplicates:
        violate(
            "journal_unique",
            f"journal recorded candidates {poison_duplicates} more than once",
        )

    return {
        "workers": workers,
        "task_timeout_s": task_timeout_s,
        "evaluations": baseline.result.evaluations,
        "requeues": requeues,
        "poisoned": poisoned,
        "poison_attempts": poison_failures[0].attempts if poison_failures else 0,
        "violations": violations,
        "ok": not violations,
    }


# ----------------------------------------------------------------------
# Bench section
# ----------------------------------------------------------------------
def run_chaos_bench(mode: str = "ci", seed: int = 0) -> Dict:
    """The ``chaos_resilience`` section: defenses off vs on, same faults.

    One seeded hang schedule (10% of invokes stall for 80% of the request
    deadline) replays three times: fault-free, undefended (no invoke
    timeout — every hang stalls the server for its full duration), and
    defended (timeout + hedged retry + breaker). The headline ``speedup``
    is the undefended/defended p99 ratio; ``recovery_s`` is how much the
    defended makespan trails the fault-free one.
    """
    workload = build_serve_workload(mode, seed=seed)
    hang_spec = faults.ChaosSpec(
        "serve_invoke", "hang", rate=0.10, duration_s=0.8 * workload.deadline_s
    )

    baseline, error = _replay(workload, workload.defended_tenant())
    if baseline is None:
        raise GraphError(f"chaos bench baseline replay failed: {error}")
    undefended, error = _replay(
        workload,
        workload.undefended_tenant(),
        faults.ChaosPlan(hang_spec, seed=seed + 1),
    )
    if undefended is None:
        raise GraphError(f"chaos bench undefended replay failed: {error}")
    defended, error = _replay(
        workload,
        workload.defended_tenant(),
        faults.ChaosPlan(hang_spec, seed=seed + 1),
    )
    if defended is None:
        raise GraphError(f"chaos bench defended replay failed: {error}")

    replayed, _ = _replay(
        workload, workload.defended_tenant(), faults.ChaosPlan(hang_spec, seed=seed + 1)
    )
    deterministic = (
        replayed is not None
        and replayed.stats == defended.stats
        and _response_signature(replayed) == _response_signature(defended)
    )

    baseline_ok = {r.request_id: r for r in baseline.ok_responses}
    survivors_bitwise_ok = all(
        r.request_id in baseline_ok
        and np.array_equal(r.output, baseline_ok[r.request_id].output)
        for r in defended.ok_responses
    )

    undefended_p99 = undefended.latency_quantiles()["p99_ms"]
    defended_p99 = max(defended.latency_quantiles()["p99_ms"], 1e-9)
    return {
        "section": "chaos_resilience",
        "requests": len(workload.trace),
        "fault_rate": 0.10,
        "hang_duration_s": 0.8 * workload.deadline_s,
        "invoke_timeout_s": _TIMEOUT_FRACTION * workload.deadline_s,
        "baseline_p99_ms": baseline.latency_quantiles()["p99_ms"],
        "undefended_p99_ms": undefended_p99,
        "defended_p99_ms": defended.latency_quantiles()["p99_ms"],
        "undefended_shed_rate": undefended.as_dict()["shed_rate"],
        "defended_shed_rate": defended.as_dict()["shed_rate"],
        "defended_timeouts": defended.stats["timeouts"],
        "defended_retries": defended.stats["retries"],
        "breaker_opens": defended.stats["breaker_opens"],
        "recovery_s": max(0.0, defended.makespan_s - baseline.makespan_s),
        "conservation_ok": True,  # _replay raises into error otherwise
        "survivors_bitwise_ok": bool(survivors_bitwise_ok),
        "replay_deterministic": bool(deterministic),
        # baseline/optimized framing for the shared bench table: what the
        # timeout+hedge defense buys on tail latency under the same faults.
        "speedup": undefended_p99 / defended_p99,
    }


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def format_chaos_report(serve: Dict, fabric: Optional[Dict] = None) -> str:
    """Human-readable summary of a chaos harness run."""
    lines = [
        f"chaos harness (mode={serve['mode']}, {serve['requests']} requests)",
        f"{'schedule':<16} {'fired':>6} {'ok':>6} {'shed%':>7} "
        f"{'p99_ms':>9} {'recovery_s':>11}",
    ]
    for row in serve["schedules"]:
        if "stats" not in row:
            lines.append(f"{row['name']:<16} {row['fired_total']:>6} REPLAY FAILED")
            continue
        latency = row["latency"]
        lines.append(
            f"{row['name']:<16} {row['fired_total']:>6} {row['survivors']:>6} "
            f"{100 * latency['shed_rate']:>6.1f}% {latency['p99_ms']:>9.2f} "
            f"{row['recovery_s']:>11.4f}"
        )
    if fabric is not None:
        lines.append(
            f"fabric: {fabric['evaluations']} evals on {fabric['workers']} "
            f"workers, {fabric['requeues']} requeue(s), "
            f"{fabric['poisoned']} poisoned (after "
            f"{fabric['poison_attempts']} dispatches)"
        )
    violations = list(serve["violations"]) + list(
        fabric["violations"] if fabric else []
    )
    if violations:
        lines.append(f"{len(violations)} INVARIANT VIOLATION(S):")
        for violation in violations:
            lines.append(
                f"  [{violation['schedule']}] {violation['check']}: "
                f"{violation['detail']}"
            )
    else:
        lines.append("all invariants held: conservation, bitwise survivors, "
                     "bounded stalls, seeded replay, unique journal")
    return "\n".join(lines)

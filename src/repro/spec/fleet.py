"""Fleet simulation: thousands of heterogeneous MCUs under mixed traffic.

A fleet plan declares groups of identical simulated devices (``2000 ×
STM32F446RE running micronet-kws-s under the lobby traffic profile``).
Simulating every node's server loop individually would cost
``nodes × requests`` real kernel invokes; instead each group runs its
traffic trace through ONE representative node — the existing
:class:`~repro.serve.server.ModelServer` on a
:class:`~repro.serve.clock.FakeClock` with the device's modeled service
time — which yields the per-node latency/shed profile exactly (nodes in a
group are statistically identical by construction). The fleet-wide drain
question — "how long until every node's work is done, and what's the
headroom?" — then goes through the NAS fabric's deterministic scheduler
(:func:`~repro.nas.fabric.schedule.simulate_schedule`), treating each
request as a task and each node as a worker, with per-request service
jitter drawn from the group's seeded RNG.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import List

import numpy as np

from repro.experiments.base import ExperimentResult, attempt
from repro.hw.latency import LatencyModel
from repro.models.spec import arch_workload, export_graph
from repro.nas.fabric.schedule import simulate_schedule
from repro.resilience import faults
from repro.serve.bench import replay_trace
from repro.serve.clock import FakeClock
from repro.serve.server import ModelServer, TenantConfig
from repro.serve.traffic import make_payload_pool, synthetic_trace
from repro.spec import modelzoo
from repro.spec.compiler import FleetGroupPlan, FleetPlan

#: Lognormal sigma for per-request service jitter across fleet nodes.
_JITTER_SIGMA = 0.08

FLEET_COLUMNS = [
    "group",
    "device",
    "model",
    "nodes",
    "node_requests",
    "service_ms",
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "shed_pct",
    "window_s",
    "drain_s",
    "headroom_x",
]


def _group_row(group: FleetGroupPlan, group_index: int, fleet_seed: int) -> dict:
    device = group.device
    arch = modelzoo.build_arch(group.model)
    graph = export_graph(arch, bits=group.bits)
    service_s = LatencyModel(device).model_latency(arch_workload(arch))

    # Representative node: the full admission/batching/deadline machinery,
    # advanced on a fake clock with the device's modeled invoke time.
    server = ModelServer(
        clock=FakeClock(),
        device=device,
        service_time_fn=lambda digest, n, s=service_s: s * n,
    )
    traffic = group.traffic
    if group.chaos is not None:
        # Degraded-mode simulation: the declared chaos schedule fires during
        # the replay, with the serve-layer defenses engaged — hung invokes
        # are cut off at the request deadline and hedged, repeated failures
        # open the tenant's circuit breaker, corrupted dispatches retry with
        # pristine payloads. The row's shed/latency profile shows the cost.
        tenant = TenantConfig(
            max_batch=1,  # an MCU node serves one inference at a time
            max_wait_s=0.0,
            queue_depth=256,
            default_deadline_s=traffic.deadline_s,
            max_retries=1,
            invoke_timeout_s=traffic.deadline_s,
            breaker_threshold=8,
            breaker_cooldown_s=4 * traffic.deadline_s,
            quarantine_failed=True,
        )
        chaos_guard = faults.inject(group.chaos.to_plan())
    else:
        tenant = TenantConfig(
            max_batch=1,  # an MCU node serves one inference at a time
            max_wait_s=0.0,
            queue_depth=256,
            default_deadline_s=traffic.deadline_s,
        )
        chaos_guard = nullcontext()
    digest = server.register(graph, tenant)
    trace = synthetic_trace(traffic)
    input_shape = tuple(graph.tensors[graph.inputs[0]].shape)
    payloads = make_payload_pool(input_shape, traffic.payload_pool, seed=traffic.seed)
    with chaos_guard:
        replay = replay_trace(server, digest, trace, payloads)
    stats = replay.as_dict()

    # Fleet drain: every node's request list as one task bag scheduled on
    # ``count`` workers, with deterministic lognormal service jitter so the
    # nodes are not bit-identical clones.
    total_tasks = group.count * traffic.requests
    rng = np.random.default_rng(np.random.SeedSequence([fleet_seed, group_index]))
    durations = service_s * np.exp(
        _JITTER_SIGMA * rng.standard_normal(total_tasks)
    )
    schedule = simulate_schedule(
        [list(enumerate(durations.tolist()))], workers=group.count
    )
    window_s = float(max((a.time_s for a in trace), default=0.0))
    drain_s = schedule.makespan_s
    headroom = window_s / drain_s if drain_s > 0 else float("inf")

    return dict(
        group=group.name,
        device=device.name,
        model=group.model,
        nodes=group.count,
        node_requests=traffic.requests,
        service_ms=service_s * 1e3,
        p50_ms=stats["p50_ms"],
        p95_ms=stats["p95_ms"],
        p99_ms=stats["p99_ms"],
        shed_pct=100.0 * stats["shed_rate"],
        window_s=window_s,
        drain_s=drain_s,
        headroom_x=headroom,
    )


def run_fleet_plan(plan: FleetPlan) -> ExperimentResult:
    """Simulate every group of a compiled fleet plan; one row per group."""
    result = ExperimentResult(
        experiment_id=plan.name,
        title=f"Fleet simulation ({plan.name}): {plan.total_nodes} nodes",
        columns=FLEET_COLUMNS,
    )
    for index, group in enumerate(plan.groups):
        row = attempt(
            result,
            group.name,
            lambda group=group, index=index: _group_row(group, index, plan.seed),
        )
        if row is not None:
            result.add_row(**row)
    result.note(
        f"{plan.total_nodes} simulated MCUs across {len(plan.groups)} "
        f"group(s); per-group latency from a representative node on a fake "
        f"clock, drain from the fabric scheduler (seed={plan.seed})"
    )
    return result

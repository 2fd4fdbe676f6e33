"""Chaos plane + fault defenses: the survival-invariant harness.

Three layers under test:

* the **chaos plane** itself (:mod:`repro.resilience.faults`): seeded
  blake2b selection, ``raise | hang | slow | corrupt`` actions, keyed vs
  unkeyed hit counting, scoped installation;
* the **serve defenses** (:mod:`repro.serve.server`): per-invoke timeouts
  with hedged retry, the per-tenant circuit breaker, pool quarantine and
  health checks, and the ``REPRO_DEBUG_CHECKS`` drain audit;
* the **harness end-to-end** (:mod:`repro.chaos`): every shipped serve
  schedule and the fabric dead/hung-worker drill must report zero
  invariant violations — conservation at every drain, survivors bitwise
  equal to the fault-free run, bounded stalls, same-seed replay to
  identical stats, and a double-evaluation-free journal.

``REPRO_CHAOS_ITERS`` scales the same-seed replay count inside the
harness (default 1 extra replay; raise it for nightly soak runs).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.chaos import (
    SERVE_SCHEDULES,
    build_serve_workload,
    format_chaos_report,
    run_chaos_fabric,
    run_chaos_serve,
)
from repro.chaos.harness import chaos_param_oracle
from repro.errors import ConfigError, GraphError
from repro.resilience import faults
from repro.resilience.faults import (
    ChaosAction,
    ChaosPlan,
    ChaosSpec,
    InjectedFault,
    chaos_uniform,
)
from repro.runtime.passes import compile_graph
from repro.serve.bench import replay_trace, serving_model
from repro.serve import (
    SHED_CIRCUIT,
    SHED_EXECUTION,
    SHED_TIMEOUT,
    CircuitBreaker,
    FakeClock,
    ModelServer,
    TenantConfig,
)

pytestmark = [pytest.mark.tier1, pytest.mark.chaos]


def _tiny_graph():
    # An all-float graph: corrupt-chaos NaNs must flow through to the
    # output so the server's non-finite guard can catch them (a quantize
    # stage would cast them into finite garbage).
    return compile_graph(
        serving_model((8, 8, 1), width=4, blocks=1), level="O2"
    ).graph


def _server(tenant: TenantConfig, service_s: float = 0.001):
    clock = FakeClock()
    server = ModelServer(
        clock=clock, service_time_fn=lambda digest, n: service_s * n
    )
    digest = server.register(_tiny_graph(), tenant)
    return server, digest, clock


_PAYLOAD = np.zeros((8, 8, 1), dtype=np.float32)


# ----------------------------------------------------------------------
# The chaos plane
# ----------------------------------------------------------------------
class TestChaosPlane:
    def test_chaos_uniform_pinned(self):
        # Regression pin: these exact draws are what (seed, site, n) must
        # produce forever — changing the keying silently reshuffles every
        # recorded chaos schedule.
        assert chaos_uniform(42, "serve_invoke", 1) == 0.9245173110726695
        assert chaos_uniform(42, "serve_invoke", 2) == 0.741771332053917
        assert chaos_uniform(42, "serve_invoke", 7) == 0.7891122422896862
        assert chaos_uniform(7, "executor_task", 3) == 0.31934709303459324

    def test_rate_selection_is_order_independent(self):
        plans = [
            ChaosPlan(ChaosSpec("serve_invoke", "hang", rate=0.3, duration_s=1.0),
                      seed=9)
            for _ in range(2)
        ]
        fired = []
        for plan in plans:
            hits = [plan.action("serve_invoke") is not None for _ in range(50)]
            fired.append(tuple(hits))
        assert fired[0] == fired[1]
        assert any(fired[0]) and not all(fired[0])

    def test_at_times_window(self):
        plan = ChaosPlan(ChaosSpec("serve_invoke", "slow", at=3, times=2, factor=2.0))
        actions = [plan.action("serve_invoke") for _ in range(6)]
        assert [a is not None for a in actions] == [
            False, False, True, True, False, False
        ]
        assert actions[2].kind == "slow" and actions[2].factor == 2.0
        assert plan.fired == [("serve_invoke", 3, "slow"), ("serve_invoke", 4, "slow")]

    def test_keyed_site_counts_per_key_attempts(self):
        # keys selects work items; at/times gates each item's attempt
        # number, so "first dispatch misbehaves, the requeue recovers" is
        # expressible.
        plan = ChaosPlan(
            ChaosSpec("executor_task", "hang", keys=(1,), at=1, times=1,
                      duration_s=5.0)
        )
        assert plan.action("executor_task", key=0) is None
        first = plan.action("executor_task", key=1)
        assert first is not None and first.duration_s == 5.0
        assert plan.action("executor_task", key=1) is None  # attempt 2 recovers
        assert plan.action("executor_task", key=2) is None

    def test_raise_kind_raises_directly(self):
        plan = ChaosPlan(ChaosSpec("serve_invoke", "raise", at=1))
        with pytest.raises(InjectedFault):
            plan.action("serve_invoke")
        custom = ChaosPlan(
            ChaosSpec("serve_invoke", "raise", at=1, exception=RuntimeError)
        )
        with pytest.raises(RuntimeError, match="injected fault"):
            custom.action("serve_invoke")

    def test_corrupt_mutators_resolve_and_detectably_corrupt(self):
        spec = ChaosSpec("serve_invoke", "corrupt", mutator="nan")
        payload = np.ones((2, 2), dtype=np.float32)
        mutated = spec.resolved_mutator()(payload)
        assert np.all(np.isnan(mutated))
        assert np.all(payload == 1.0)  # mutates a copy, never the original

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(kind="explode"), "chaos kind"),
            (dict(at=0), "at/times"),
            (dict(rate=1.5), "rate"),
            (dict(kind="hang", duration_s=-1.0), "duration_s"),
            (dict(kind="slow", factor=0.0), "factor"),
            (dict(kind="corrupt", mutator="zalgo"), "unknown corrupt mutator"),
        ],
    )
    def test_spec_validation(self, kwargs, match):
        with pytest.raises(ConfigError, match=match):
            ChaosSpec("serve_invoke", **kwargs)

    def test_behavior_kinds_rejected_at_crash_sites(self):
        # A crash site only raises; a hang there would fire and do nothing.
        with pytest.raises(ConfigError, match="raise-only crash site"):
            ChaosSpec("train_step", "hang", duration_s=1.0)
        ChaosSpec("train_step")  # raise is what a crash site does

    def test_chaos_point_is_noop_without_plan(self):
        assert faults.active_plan() is None
        assert faults.chaos_point("serve_invoke") is None

    def test_clear_resets_both_planes(self):
        # One plan drives both the raise-only crash sites and the behavior
        # sites; clear() leaves every one of them a no-op.
        faults.install(ChaosPlan(ChaosSpec("dnas_step", at=1), ChaosSpec("serve_invoke")))
        faults.clear()
        assert faults.active_plan() is None
        faults.fault_point("dnas_step")
        assert faults.chaos_point("serve_invoke") is None

    def test_inject_scopes_are_independent(self):
        # A nested inject() block unwinding must restore the plan that
        # enclosed it, not tear it down.
        outer = ChaosPlan(ChaosSpec("serve_invoke", at=10**9))
        with faults.inject(outer):
            with faults.inject(ChaosPlan(ChaosSpec("dnas_step", at=10**9))):
                pass
            assert faults.active_plan() is outer
        assert faults.active_plan() is None


# ----------------------------------------------------------------------
# Serve defenses: timeout + hedge, breaker, quarantine, drain audit
# ----------------------------------------------------------------------
class TestInvokeTimeoutAndHedge:
    def test_hang_is_cut_off_and_hedged(self):
        server, digest, clock = _server(
            TenantConfig(max_batch=1, max_wait_s=0.0, max_retries=1,
                         invoke_timeout_s=0.05)
        )
        plan = ChaosPlan(
            ChaosSpec("serve_invoke", "hang", at=1, times=1, duration_s=60.0)
        )
        with faults.inject(plan):
            server.submit(digest, _PAYLOAD)
            server.run_until_idle()
        (response,) = server.drain()
        assert response.ok  # the hedge recovered the request
        assert server.stats.timeouts == 1
        assert server.stats.retries == 1
        # The hang cost exactly the timeout, never its 60s duration.
        assert clock.now() < 1.0

    def test_hang_exhaustion_sheds_timeout_with_structured_detail(self):
        server, digest, _clock = _server(
            TenantConfig(max_batch=1, max_wait_s=0.0, max_retries=1,
                         invoke_timeout_s=0.05)
        )
        plan = ChaosPlan(
            ChaosSpec("serve_invoke", "hang", at=1, times=2, duration_s=60.0)
        )
        with faults.inject(plan):
            server.submit(digest, _PAYLOAD)
            server.run_until_idle()
        (response,) = server.drain()
        assert response.status == "shed"
        assert response.shed.code == SHED_TIMEOUT
        assert "0.05s deadline" in response.shed.detail
        assert "2 attempts" in response.shed.detail
        assert server.stats.timeouts == 2
        server.stats.verify_conservation(queued=0, responses=1)

    def test_short_hang_without_timeout_just_stalls(self):
        server, digest, clock = _server(
            TenantConfig(max_batch=1, max_wait_s=0.0)  # no invoke timeout
        )
        plan = ChaosPlan(
            ChaosSpec("serve_invoke", "hang", at=1, times=1, duration_s=3.0)
        )
        with faults.inject(plan):
            server.submit(digest, _PAYLOAD)
            server.run_until_idle()
        (response,) = server.drain()
        assert response.ok
        assert server.stats.timeouts == 0
        assert clock.now() >= 3.0  # the stall was paid in full

    def test_slow_chaos_times_out_when_stretched_past_deadline(self):
        server, digest, _clock = _server(
            TenantConfig(max_batch=1, max_wait_s=0.0, max_retries=1,
                         invoke_timeout_s=0.01),
            service_s=0.001,
        )
        plan = ChaosPlan(
            ChaosSpec("serve_invoke", "slow", at=1, times=1, factor=100.0)
        )
        with faults.inject(plan):
            server.submit(digest, _PAYLOAD)
            server.run_until_idle()
        (response,) = server.drain()
        assert response.ok  # hedge recovered
        assert server.stats.timeouts == 1

    def test_corrupt_chaos_detected_and_retried_with_pristine_payload(self):
        tenant = TenantConfig(max_batch=1, max_wait_s=0.0, max_retries=1)
        server, digest, _clock = _server(tenant)
        rng = np.random.default_rng(3)
        payload = rng.normal(size=(8, 8, 1)).astype(np.float32)

        reference_server, reference_digest, _ = _server(tenant)
        reference_server.submit(reference_digest, payload)
        reference_server.run_until_idle()
        (reference,) = reference_server.drain()

        plan = ChaosPlan(
            ChaosSpec("serve_invoke", "corrupt", at=1, times=1, mutator="nan")
        )
        with faults.inject(plan):
            server.submit(digest, payload)
            server.run_until_idle()
        (response,) = server.drain()
        assert response.ok
        assert server.stats.retries == 1  # the NaN output tripped the guard
        # The retry re-stacked the pristine payload: bitwise-equal output.
        assert np.array_equal(response.output, reference.output)

    def test_obs_counts_dispatches_once_and_retries_separately(self):
        obs.enable()
        server, digest, _clock = _server(
            TenantConfig(max_batch=1, max_wait_s=0.0, max_retries=2,
                         invoke_timeout_s=0.05)
        )
        plan = ChaosPlan(
            ChaosSpec("serve_invoke", "hang", at=1, times=2, duration_s=60.0)
        )
        with faults.inject(plan):
            server.submit(digest, _PAYLOAD)
            server.run_until_idle()
        (response,) = server.drain()
        assert response.ok
        counters = obs.REGISTRY.as_dict()["counters"]
        # One logical dispatch, however many attempts it hedged.
        assert counters["serve.dispatches"] == 1
        assert counters["serve.retries"] == 2
        assert counters["serve.timeouts"] == 2
        assert counters["chaos.fired.serve_invoke.hang"] == 2


class TestCircuitBreaker:
    def test_state_machine(self):
        breaker = CircuitBreaker(threshold=2, cooldown_s=1.0)
        assert breaker.state == "closed"
        assert breaker.record_failure(0.0) is False
        assert breaker.record_failure(0.1) is True  # threshold -> open
        assert breaker.state == "open"
        assert breaker.allow(0.5) is False  # cooling down
        assert breaker.allow(1.2) is True  # half-open probe
        assert breaker.state == "half_open"
        assert breaker.record_failure(1.3) is True  # probe failed -> re-open
        assert breaker.state == "open"
        assert breaker.allow(2.4) is True
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.opens == 2

    def test_breaker_sheds_at_admission_and_recovers(self):
        server, digest, clock = _server(
            TenantConfig(max_batch=1, max_wait_s=0.0, max_retries=0,
                         breaker_threshold=2, breaker_cooldown_s=5.0)
        )
        plan = ChaosPlan(ChaosSpec("serve_invoke", "raise", at=1, times=2))
        with faults.inject(plan):
            for _ in range(2):
                server.submit(digest, _PAYLOAD)
                server.run_until_idle()
            assert server.stats.breaker_opens == 1
            # Open: admissions shed with circuit_open before touching the queue.
            server.submit(digest, _PAYLOAD)
            responses = server.drain()
            rejected = [r for r in responses if r.shed and r.shed.code == SHED_CIRCUIT]
            assert len(rejected) == 1
            assert "circuit" in rejected[0].shed.detail
            # After the cooldown the half-open probe goes through and closes.
            clock.advance(6.0)
            server.submit(digest, _PAYLOAD)
            server.run_until_idle()
        (probe,) = server.drain()
        assert probe.ok
        assert server.breaker(digest).state == "closed"
        server.stats.verify_conservation(queued=0)
        failures = [r for r in responses if r.shed and r.shed.code == SHED_EXECUTION]
        assert len(failures) == 2


class TestPoolHealth:
    def test_quarantine_replenishes_lazily(self):
        server, digest, _clock = _server(
            TenantConfig(max_batch=1, max_wait_s=0.0, pool_size=1)
        )
        pool = server.pool(digest)
        interp = pool.acquire()
        pool.quarantine(interp)
        assert pool.quarantined == 1
        # The slot is free again and the next acquire builds a fresh
        # interpreter for the same compiled graph.
        replacement = pool.acquire()
        assert replacement is not interp
        pool.release(replacement)

    def test_health_check_drops_broken_interpreters(self, monkeypatch):
        server, digest, _clock = _server(
            TenantConfig(max_batch=2, max_wait_s=0.0, pool_size=2)
        )
        pool = server.pool(digest)
        first = pool._idle[0]
        monkeypatch.setattr(
            first, "invoke", lambda batch: np.full((len(batch), 3), np.nan)
        )
        dropped = pool.health_check()
        assert dropped == 1
        assert pool.quarantined == 1
        assert all(i is not first for i in pool._idle)
        # The surviving + replenished pool still serves.
        server.submit(digest, _PAYLOAD)
        server.run_until_idle()
        (response,) = server.drain()
        assert response.ok

    def test_failing_dispatch_quarantines_when_opted_in(self):
        server, digest, _clock = _server(
            TenantConfig(max_batch=1, max_wait_s=0.0, max_retries=0,
                         quarantine_failed=True)
        )
        plan = ChaosPlan(
            ChaosSpec("serve_invoke", "corrupt", at=1, times=1, mutator="inf")
        )
        with faults.inject(plan):
            server.submit(digest, _PAYLOAD)
            server.run_until_idle()
        (response,) = server.drain()
        assert response.shed.code == SHED_EXECUTION
        assert server.pool(digest).quarantined == 1


class TestDrainDebugChecks:
    def test_drain_audits_conservation_when_enabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_DEBUG_CHECKS", "1")
        server, digest, _clock = _server(TenantConfig(max_batch=1, max_wait_s=0.0))
        for _ in range(3):
            server.submit(digest, _PAYLOAD)
            server.run_until_idle()
            assert len(server.drain()) == 1  # audit passes at every drain
        # Corrupt the ledger: the *next* drain must fail loudly.
        server.stats.completed += 1
        with pytest.raises(GraphError, match="conservation violated"):
            server.drain()

    def test_audit_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_DEBUG_CHECKS", raising=False)
        server, digest, _clock = _server(TenantConfig(max_batch=1, max_wait_s=0.0))
        server.submit(digest, _PAYLOAD)
        server.run_until_idle()
        server.stats.completed += 1  # would trip the audit if it ran
        server.drain()


# ----------------------------------------------------------------------
# The harness end-to-end
# ----------------------------------------------------------------------
class TestServeHarness:
    def test_all_schedules_hold_every_invariant(self):
        report = run_chaos_serve("smoke", requests=160)
        assert report["violations"] == []
        assert report["ok"] is True
        rows = {row["name"]: row for row in report["schedules"]}
        assert set(rows) == {s.name for s in SERVE_SCHEDULES}
        # Each schedule actually fired and exercised its defense.
        assert rows["hang_storm"]["stats"]["timeouts"] > 0
        assert rows["slow_tail"]["fired_total"] > 0
        assert rows["corrupt_burst"]["stats"]["retries"] > 0
        assert rows["crash_blackout"]["stats"]["breaker_opens"] >= 1
        assert rows["crash_blackout"]["stats"]["shed"].get(SHED_CIRCUIT, 0) > 0
        # The blackout recovers: the half-open probe closes the breaker and
        # the tail of the trace is served.
        assert rows["crash_blackout"]["survivors"] > 0
        report_text = format_chaos_report(report)
        assert "all invariants held" in report_text

    def test_violations_are_reported_not_raised(self):
        # A deliberately undefended workload under the same schedules must
        # *report* broken invariants (here: unbounded stalls from 10s
        # hangs) instead of crashing the harness. Build a report by hand
        # with a nonsense baseline to prove the shape stays printable.
        report = run_chaos_serve("smoke", requests=40)
        report["violations"].append(
            {"schedule": "synthetic", "check": "bounded_stall", "detail": "x"}
        )
        text = format_chaos_report(report)
        assert "INVARIANT VIOLATION" in text and "bounded_stall" in text


class TestSingleLedger:
    """``ServerStats`` and the executor attributes are the ledger; the
    ``serve.*`` / ``fabric.*`` obs counters come from the same increments."""

    LEDGER_FIELDS = ("submitted", "admitted", "completed", "dispatches",
                     "retries", "timeouts", "breaker_opens")

    def test_serve_counters_equal_the_ledger(self):
        workload = build_serve_workload("smoke", requests=160)
        obs.enable()
        events = ("retries", "timeouts", "breaker_opens", "shed_total")
        seen = set()
        for schedule in SERVE_SCHEDULES:
            if schedule.name not in ("hang_storm", "crash_blackout"):
                continue
            obs.reset()
            server = ModelServer(clock=FakeClock(),
                                 service_time_fn=workload.service_time_fn)
            digest = server.register(workload.graph, workload.defended_tenant())
            with faults.inject(schedule.plan()):
                replay_trace(server, digest, workload.trace, workload.payloads)
            stats = server.stats
            counters = obs.REGISTRY.as_dict()["counters"]
            for name in self.LEDGER_FIELDS:
                assert counters.get(f"serve.{name}", 0) == getattr(stats, name), name
            assert counters.get("serve.shed", 0) == stats.shed_total
            sheds = {key[len("serve.shed."):]: value for key, value in counters.items()
                     if key.startswith("serve.shed.")}
            assert sheds == stats.shed
            seen |= {name for name in events if getattr(stats, name)}
        # Together the two schedules shed, retry, time out and open a breaker.
        assert seen == set(events)

    @pytest.mark.fabric
    def test_fabric_counters_equal_the_executor(self):
        from repro.nas.blackbox import DSCNNSearchSpace, EvalRequest
        from repro.nas.fabric import MultiprocessExecutor

        space = DSCNNSearchSpace(
            input_shape=(16, 8, 1), num_classes=4, width_options=(8, 16),
            num_blocks=2, stem_kernel=(4, 4), stem_stride=(2, 2),
        )
        rng = np.random.default_rng(0)
        requests = [EvalRequest(index=i, genome=space.random_genome(rng),
                                sweep_seed=0, wants_rng=True) for i in range(3)]
        # Candidate 1 hangs on every dispatch: one requeue, then poison.
        plan = ChaosPlan(ChaosSpec("executor_task", "hang", keys=(1,), at=1,
                                   times=10**9, duration_s=3.0))
        obs.enable()
        with MultiprocessExecutor(2, task_timeout_s=0.5, max_requeues=1) as executor:
            with faults.inject(plan):
                outcomes = executor.run(requests, space, chaos_param_oracle)
        counters = obs.REGISTRY.as_dict()["counters"]
        assert outcomes[1].fitness is None and outcomes[1].attempts == 2
        assert counters["fabric.requeues"] == executor.requeues == 1
        assert counters["fabric.poisoned"] == executor.poisoned == 1


@pytest.mark.fabric
class TestFabricChaos:
    def test_requeue_recovers_and_poison_quarantines(self, tmp_path):
        report = run_chaos_fabric(str(tmp_path), workers=2, task_timeout_s=0.75)
        assert report["violations"] == []
        assert report["ok"] is True
        assert report["requeues"] >= 1
        assert report["poisoned"] == 1
        assert report["poison_attempts"] == 2  # max_requeues=1 -> 2 dispatches


class TestExecutorLifecycle:
    def test_close_is_idempotent(self):
        from repro.nas.fabric import MultiprocessExecutor

        executor = MultiprocessExecutor(2)
        executor._ensure_pool()
        executor.close()
        executor.close()  # second close must be a no-op, not a crash
        executor.terminate()  # and terminate after close is safe too
        assert executor._pool is None

    def test_exception_in_with_block_terminates_pool(self):
        from repro.nas.fabric import MultiprocessExecutor

        executor = MultiprocessExecutor(2)
        with pytest.raises(RuntimeError, match="boom"):
            with executor:
                executor._ensure_pool()
                raise RuntimeError("boom")
        # The fork pool was torn down on the way out — no leaked workers.
        assert executor._pool is None
        executor.close()  # still idempotent afterwards

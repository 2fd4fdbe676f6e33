"""The serving layer: clocks, registry, pools, and the micro-batching server.

Everything runs under a :class:`~repro.serve.clock.FakeClock`, so every
scheduling decision — coalescing, deadline ordering, shedding, retry
backoff — is a deterministic function of the submitted trace. The two
property suites the issue calls out live here:

* **batch-coalescing parity** — micro-batched responses are bitwise
  identical to serial batch-1 execution, for float and quantized compiled
  graphs, across coalesce sizes {1, 3, max_batch}; on MicroNet-KWS-S
  int8 stays bitwise and float stays within 1e-6 of each output's scale;
* **overload conservation** — a saturated server sheds with structured
  reasons and never silently drops a request
  (``admitted + shed == submitted``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.errors import DeploymentError, GraphError
from repro.hw.devices import DEVICES
from repro.models.micronets import micronet_ad_s, micronet_kws_s, micronet_vww_s
from repro.models.spec import (
    ArchSpec,
    ConvSpec,
    DenseSpec,
    DWConvSpec,
    GlobalPoolSpec,
    export_float_graph,
    export_graph,
    quantize_graph,
)
from repro.runtime.interpreter import Interpreter
from repro.runtime.passes import compile_graph
from repro.runtime.serializer import serialize
from repro.serve import (
    SHED_DEADLINE,
    SHED_EXECUTION,
    SHED_QUEUE_FULL,
    FakeClock,
    InterpreterPool,
    ModelRegistry,
    ModelServer,
    MonotonicClock,
    ServerStats,
    TenantConfig,
    model_digest,
)

pytestmark = pytest.mark.tier1


def _random_arch(seed: int) -> ArchSpec:
    """A small random conv/dw/dense architecture, deterministic in seed."""
    rng = np.random.default_rng(seed)
    width = int(rng.choice([4, 8]))
    layers = [ConvSpec(width, kernel=3, stride=2)]
    if rng.random() < 0.5:
        layers.append(DWConvSpec(kernel=3, stride=1))
    layers += [ConvSpec(width, kernel=1), GlobalPoolSpec(), DenseSpec(4)]
    return ArchSpec(name=f"serve-rand-{seed}", input_shape=(10, 10, 1), layers=tuple(layers))


def _compiled(seed: int, bits: int):
    graph = export_graph(_random_arch(seed), bits=bits)
    return compile_graph(graph, level="O2").graph


# ----------------------------------------------------------------------
class TestClocks:
    def test_fake_clock_is_manual(self):
        clock = FakeClock(start=5.0)
        assert clock.now() == 5.0
        clock.advance(1.5)
        clock.sleep(0.5)
        assert clock.now() == 7.0
        assert clock.sleeps == [0.5]
        clock.advance_to(10.0)
        clock.advance_to(3.0)  # no going backwards
        assert clock.now() == 10.0

    def test_fake_clock_rejects_negative(self):
        clock = FakeClock()
        with pytest.raises(ValueError, match="negative duration"):
            clock.sleep(-1.0)
        with pytest.raises(ValueError, match="cannot advance time backwards"):
            clock.advance(-0.1)
        # A rejected advance must not move the clock at all.
        assert clock.now() == 0.0 and clock.sleeps == []

    def test_monotonic_clock_moves_forward(self):
        clock = MonotonicClock()
        first = clock.now()
        clock.sleep(0.0)  # must not raise, must not block
        assert clock.now() >= first


# ----------------------------------------------------------------------
class TestRegistry:
    def test_register_is_idempotent_per_digest(self):
        registry = ModelRegistry()
        buf = serialize(_compiled(0, bits=32))
        first = registry.register(buf)
        second = registry.register(buf)
        assert first is second
        assert first.registrations == 2
        assert len(registry) == 1
        assert first.digest == model_digest(buf)

    def test_distinct_models_get_distinct_digests(self):
        registry = ModelRegistry()
        a = registry.register(serialize(_compiled(0, bits=32)))
        b = registry.register(serialize(_compiled(1, bits=32)))
        assert a.digest != b.digest
        assert registry.digests() == sorted([a.digest, b.digest])

    def test_malformed_bytes_rejected(self):
        registry = ModelRegistry()
        with pytest.raises(GraphError):
            registry.register(b"not a model at all")
        assert len(registry) == 0

    def test_unknown_digest_raises(self):
        with pytest.raises(GraphError, match="unknown model digest"):
            ModelRegistry().get("deadbeef")

    def test_registration_compiles_once(self):
        obs.enable()
        registry = ModelRegistry()
        buf = serialize(_compiled(0, bits=32))
        registry.register(buf)
        registry.register(buf)
        counters = obs.REGISTRY.as_dict()["counters"]
        assert counters["serve.registry.loads"] == 1
        assert counters["serve.registry.hits"] == 1


# ----------------------------------------------------------------------
class TestInterpreterPool:
    def test_arena_accounting_scales_with_batch(self):
        graph = _compiled(0, bits=32)
        small = InterpreterPool(graph, max_batch=1)
        large = InterpreterPool(graph, max_batch=16)
        assert large.arena_bytes > small.arena_bytes

    def test_checkout_and_exhaustion(self):
        pool = InterpreterPool(_compiled(0, bits=32), max_batch=2, size=2)
        a = pool.acquire()
        b = pool.acquire()
        assert pool.in_use == 2
        with pytest.raises(GraphError, match="exhausted"):
            pool.acquire()
        pool.release(a)
        pool.release(b)
        assert pool.idle == 2

    def test_foreign_release_rejected(self):
        pool = InterpreterPool(_compiled(0, bits=32), max_batch=1)
        other = Interpreter(_compiled(1, bits=32))
        with pytest.raises(GraphError, match="does not belong"):
            pool.release(other)


# ----------------------------------------------------------------------
class TestInterpreterPlannedBatch:
    """Satellite: clear GraphError instead of a deep dispatch failure."""

    def test_invoke_beyond_planned_batch_raises_clearly(self):
        graph = _compiled(0, bits=32)
        interp = Interpreter(graph, max_batch=4)
        x = np.zeros((5, 10, 10, 1), dtype=np.float32)
        with pytest.raises(GraphError, match="exceeds the planned batch size 4"):
            interp.invoke(x)

    def test_invoke_at_planned_batch_works(self):
        graph = _compiled(0, bits=32)
        interp = Interpreter(graph, max_batch=4)
        out = interp.invoke(np.zeros((4, 10, 10, 1), dtype=np.float32))
        assert out.shape[0] == 4

    def test_unbounded_interpreter_unchanged(self):
        interp = Interpreter(_compiled(0, bits=32))
        assert interp.max_batch is None
        out = interp.invoke(np.zeros((9, 10, 10, 1), dtype=np.float32))
        assert out.shape[0] == 9

    @pytest.mark.parametrize("bad", [0, -3, 2.5, True, "8"])
    def test_plan_rejects_non_positive_int(self, bad):
        interp = Interpreter(_compiled(0, bits=32))
        with pytest.raises(GraphError):
            interp.plan(batch_size=bad)

    @pytest.mark.parametrize("bad", [0, -1, 1.5])
    def test_constructor_rejects_bad_max_batch(self, bad):
        with pytest.raises(GraphError):
            Interpreter(_compiled(0, bits=32), max_batch=bad)


# ----------------------------------------------------------------------
class TestBatchCoalescingParity:
    """Micro-batched output == serial batch-1 output, bit for bit."""

    @pytest.mark.parametrize("bits", [32, 8], ids=["float", "int8"])
    @pytest.mark.parametrize("coalesce", [1, 3, 8])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_bitwise_parity_across_coalesce_sizes(self, bits, coalesce, seed):
        graph = _compiled(seed, bits=bits)
        server = ModelServer(clock=FakeClock())
        digest = server.register(
            graph, TenantConfig(max_batch=coalesce, max_wait_s=0.0, queue_depth=64)
        )
        rng = np.random.default_rng(100 + seed)
        xs = rng.normal(size=(10, 10, 10, 1)).astype(np.float32)
        for i in range(len(xs)):
            server.submit(digest, xs[i], tag=i)
        server.run_until_idle()
        responses = server.drain()
        assert len(responses) == len(xs)
        assert all(r.ok for r in responses)
        # All dispatches coalesce to the configured ceiling (plus remainder).
        sizes = sorted({r.batch_size for r in responses})
        assert max(sizes) == min(coalesce, len(xs))

        serial = Interpreter(graph)
        for response in responses:
            expected = serial.invoke(xs[response.tag : response.tag + 1])[0]
            assert response.output.shape == expected.shape
            assert np.array_equal(response.output, expected), (
                f"bits={bits} coalesce={coalesce} request {response.request_id} "
                "diverged from serial batch-1 execution"
            )

    @pytest.mark.parametrize(
        "model, bits, float_rtol",
        [(micronet_kws_s, 32, 1e-6), (micronet_kws_s, 8, None),
         (micronet_ad_s, 32, 1e-6), (micronet_ad_s, 8, None),
         (micronet_vww_s, 32, 1e-5), (micronet_vww_s, 8, None)],
        ids=["float", "int8", "ad-s-float", "ad-s-int8", "vww-s-float", "vww-s-int8"],
    )
    def test_micronet_kws_s_parity_across_batches(self, model, bits, float_rtol):
        """The serving models at batches 2/4 and past one tile: int8 bitwise, float close.

        MicroNet-KWS-S (ids ``float``/``int8``), -AD-S and -VWW-S, the one
        with a residual ``add``. A batched float GEMM may sum in another
        BLAS order than batch 1, so float logits can move in the last bits:
        about 1e-11 against KWS-S logits of 3e-5, and up to 2.9e-6 of the
        scale of VWW-S's untrained logits, which are about 1e-7 and so sit
        far below the activations that sum to them. The int8 integer
        kernels cannot move at all. Coalesce sizes tile + 3 and 2·tile + 1
        run as several tiles with a remainder; there each float tile equals
        invoking its slice alone, bit for bit.
        """
        arch = model()
        rng = np.random.default_rng(7)
        graph = export_float_graph(arch)
        if bits == 8:
            calibration = rng.standard_normal((8, *arch.input_shape)).astype(np.float32)
            graph = quantize_graph(graph, calibration=calibration, bits=8)
        graph = compile_graph(graph, level="O2").graph
        serial = Interpreter(graph)
        tile = serial.tile
        xs = rng.standard_normal((2 * tile + 1, *arch.input_shape)).astype(np.float32)
        expected = np.concatenate([serial.invoke(xs[i : i + 1]) for i in range(len(xs))])
        scale = np.abs(expected).max(axis=1, keepdims=True)
        # batch 1 is the serial reference itself
        for coalesce in (2, 4, tile + 3, 2 * tile + 1):
            count = max(coalesce, 4)
            server = ModelServer(clock=FakeClock())
            digest = server.register(graph, TenantConfig(max_batch=coalesce, max_wait_s=0.0))
            for i in range(count):
                server.submit(digest, xs[i], tag=i)
            server.run_until_idle()
            responses = sorted(server.drain(), key=lambda r: r.tag)
            assert {r.batch_size for r in responses} == {coalesce}
            outputs = np.stack([r.output for r in responses])
            if bits == 8:
                assert np.array_equal(outputs, expected[:count]), f"int8 batch {coalesce}"
                continue
            assert np.all(np.abs(outputs - expected[:count]) <= float_rtol * scale[:count]), (
                f"float batch {coalesce} moved more than {float_rtol} of the output scale"
            )
            if coalesce > tile:
                alone = np.concatenate(
                    [serial.invoke(xs[s : min(s + tile, count)]) for s in range(0, count, tile)]
                )
                assert np.array_equal(outputs, alone), f"float batch {coalesce} vs its tiles"

    def test_parity_against_uncompiled_reference(self):
        """The compiled+batched server path matches the raw graph too."""
        raw = export_graph(_random_arch(3), bits=32)
        server = ModelServer(clock=FakeClock())
        digest = server.register(raw, TenantConfig(max_batch=4, max_wait_s=0.0))
        rng = np.random.default_rng(42)
        xs = rng.normal(size=(8, 10, 10, 1)).astype(np.float32)
        for i in range(len(xs)):
            server.submit(digest, xs[i], tag=i)
        server.run_until_idle()
        reference = Interpreter(raw)
        for response in server.drain():
            expected = reference.invoke(xs[response.tag : response.tag + 1])[0]
            np.testing.assert_allclose(response.output, expected, rtol=1e-4, atol=1e-5)


# ----------------------------------------------------------------------
class TestDeadlineScheduling:
    def _server(self, max_batch=2, max_wait=1.0, **kwargs):
        clock = FakeClock()
        server = ModelServer(clock=clock, **kwargs)
        digest = server.register(
            _compiled(0, bits=32),
            TenantConfig(max_batch=max_batch, max_wait_s=max_wait, queue_depth=64),
        )
        return server, clock, digest

    def test_same_deadline_is_fifo(self):
        server, clock, digest = self._server(max_batch=3, max_wait=0.5)
        x = np.zeros((10, 10, 1), dtype=np.float32)
        ids = [server.submit(digest, x, deadline_s=1.0) for _ in range(9)]
        clock.advance(0.5)
        server.run_until_idle()
        finished = [r.request_id for r in server.drain()]
        assert finished == ids  # strict arrival order, never reordered

    def test_earlier_deadline_jumps_the_queue(self):
        server, clock, digest = self._server(max_batch=1, max_wait=0.2)
        x = np.zeros((10, 10, 1), dtype=np.float32)
        relaxed = server.submit(digest, x, deadline_s=5.0)
        urgent = server.submit(digest, x, deadline_s=0.3)
        server.run_until_idle()
        # Dispatched one at a time (max_batch=1): the later-arriving urgent
        # request must be served first.
        assert [r.request_id for r in server.drain()] == [urgent, relaxed]

    def test_edf_across_models(self):
        clock = FakeClock()
        server = ModelServer(clock=clock)
        a = server.register(_compiled(0, bits=32), TenantConfig(max_batch=1, max_wait_s=0.0))
        b = server.register(_compiled(1, bits=32), TenantConfig(max_batch=1, max_wait_s=0.0))
        assert a != b
        x = np.zeros((10, 10, 1), dtype=np.float32)
        slow = server.submit(a, x, deadline_s=9.0)
        fast = server.submit(b, x, deadline_s=1.0)
        server.run_until_idle()
        assert [r.request_id for r in server.drain()] == [fast, slow]

    def test_next_wake_is_coalescing_window(self):
        server, clock, digest = self._server(max_batch=4, max_wait=0.25)
        assert server.next_wake() is None
        server.submit(digest, np.zeros((10, 10, 1), dtype=np.float32))
        assert server.next_wake() == pytest.approx(0.25)
        clock.advance(0.25)
        assert server.next_wake() == pytest.approx(clock.now())

    def test_full_batch_dispatches_before_window(self):
        server, clock, digest = self._server(max_batch=2, max_wait=10.0)
        x = np.zeros((10, 10, 1), dtype=np.float32)
        server.submit(digest, x)
        assert server.poll() == 0  # one request, window still open
        server.submit(digest, x)
        assert server.poll() == 2  # batch full: dispatch without waiting


# ----------------------------------------------------------------------
class TestOverloadShedding:
    def test_queue_full_sheds_with_structured_reason(self):
        obs.enable()
        clock = FakeClock()
        server = ModelServer(clock=clock)
        digest = server.register(
            _compiled(0, bits=32),
            TenantConfig(max_batch=2, max_wait_s=1.0, queue_depth=4,
                         default_deadline_s=10.0),
        )
        x = np.zeros((10, 10, 1), dtype=np.float32)
        for _ in range(10):
            server.submit(digest, x)
        # 4 queued, 6 shed at admission — nothing silently dropped.
        assert server.stats.submitted == 10
        assert server.stats.admitted == 4
        assert server.stats.shed == {SHED_QUEUE_FULL: 6}
        server.stats.verify_conservation(queued=server.queued())

        shed = [r for r in server.drain() if r.status == "shed"]
        assert len(shed) == 6
        for response in shed:
            assert response.shed.code == SHED_QUEUE_FULL
            assert "depth" in response.shed.detail
            assert response.output is None

        counters = obs.REGISTRY.as_dict()["counters"]
        assert counters["serve.shed"] == 6
        assert counters["serve.shed.queue_full"] == 6
        assert counters["serve.submitted"] == 10

        clock.advance(1.0)
        server.run_until_idle()
        responses = server.drain()
        assert all(r.ok for r in responses)
        server.stats.verify_conservation(queued=0)
        assert server.stats.completed == 4

    def test_expired_deadlines_shed_at_dispatch(self):
        clock = FakeClock()
        server = ModelServer(clock=clock)
        digest = server.register(
            _compiled(0, bits=32), TenantConfig(max_batch=4, max_wait_s=2.0)
        )
        x = np.zeros((10, 10, 1), dtype=np.float32)
        doomed = server.submit(digest, x, deadline_s=0.5)
        alive = server.submit(digest, x, deadline_s=10.0)
        clock.advance(2.0)  # window closes after the short deadline passed
        server.run_until_idle()
        responses = {r.request_id: r for r in server.drain()}
        assert responses[doomed].status == "shed"
        assert responses[doomed].shed.code == SHED_DEADLINE
        assert "queued" in responses[doomed].shed.detail
        assert responses[alive].ok
        server.stats.verify_conservation(queued=0, responses=len(responses))

    def test_failing_invoke_retries_then_sheds(self, monkeypatch):
        clock = FakeClock()
        server = ModelServer(clock=clock)
        digest = server.register(
            _compiled(0, bits=32),
            TenantConfig(max_batch=2, max_wait_s=0.0, max_retries=2,
                         retry_backoff_s=0.01),
        )
        pool = server.pool(digest)
        calls = []

        def explode(batch):
            calls.append(len(batch))
            raise RuntimeError("kernel fault")

        monkeypatch.setattr(pool._idle[0], "invoke", explode)
        x = np.zeros((10, 10, 1), dtype=np.float32)
        server.submit(digest, x)
        server.submit(digest, x)
        server.run_until_idle()
        responses = server.drain()
        assert len(calls) == 3  # initial + 2 bounded retries
        assert clock.sleeps == [0.01, 0.02]  # exponential, via the clock
        assert all(r.shed.code == SHED_EXECUTION for r in responses)
        assert server.stats.retries == 2
        server.stats.verify_conservation(queued=0, responses=len(responses))

    def test_transient_failure_recovers(self, monkeypatch):
        clock = FakeClock()
        server = ModelServer(clock=clock)
        digest = server.register(
            _compiled(0, bits=32),
            TenantConfig(max_batch=1, max_wait_s=0.0, max_retries=1),
        )
        pool = server.pool(digest)
        real_invoke = pool._idle[0].invoke
        state = {"failed": False}

        def flaky(batch):
            if not state["failed"]:
                state["failed"] = True
                raise RuntimeError("transient")
            return real_invoke(batch)

        monkeypatch.setattr(pool._idle[0], "invoke", flaky)
        server.submit(digest, np.zeros((10, 10, 1), dtype=np.float32))
        server.run_until_idle()
        (response,) = server.drain()
        assert response.ok
        assert server.stats.retries == 1

    def test_retry_exhaustion_preserves_submission_order(self, monkeypatch):
        # Exhausting retries on a batch must shed its members in strict
        # submission order, with the attempt count in the detail and every
        # backoff taken on the injectable clock *before* the shed lands.
        clock = FakeClock()
        server = ModelServer(clock=clock)
        digest = server.register(
            _compiled(0, bits=32),
            TenantConfig(max_batch=3, max_wait_s=0.0, max_retries=1,
                         retry_backoff_s=0.25),
        )
        pool = server.pool(digest)
        monkeypatch.setattr(
            pool._idle[0], "invoke",
            lambda batch: (_ for _ in ()).throw(RuntimeError("kernel fault")),
        )
        x = np.zeros((10, 10, 1), dtype=np.float32)
        ids = [server.submit(digest, x) for _ in range(3)]
        server.run_until_idle()
        responses = server.drain()
        assert [r.request_id for r in responses] == ids
        for response in responses:
            assert response.shed.code == SHED_EXECUTION
            assert "after 2 attempts" in response.shed.detail
            # The shed is stamped after the full retry dance: one backoff
            # sleep happened strictly before any response finished.
            assert response.finish_s >= 0.25
        assert clock.sleeps == [0.25]
        assert server.stats.retries == 1
        server.stats.verify_conservation(queued=0, responses=len(responses))

    def test_deadline_on_window_close_tick_is_served(self):
        # A deadline landing on the exact tick the coalescing window
        # closes is *inclusive*: expiry is strict (deadline < now), so the
        # race between "window closed" and "deadline passed" at the same
        # virtual instant resolves in the request's favor.
        clock = FakeClock()
        server = ModelServer(clock=clock)
        digest = server.register(
            _compiled(0, bits=32), TenantConfig(max_batch=4, max_wait_s=2.0)
        )
        x = np.zeros((10, 10, 1), dtype=np.float32)
        on_tick = server.submit(digest, x, deadline_s=2.0)
        just_under = server.submit(digest, x, deadline_s=2.0 - 1e-9)
        clock.advance(2.0)  # window close and on_tick's deadline coincide
        server.run_until_idle()
        responses = {r.request_id: r for r in server.drain()}
        assert responses[on_tick].ok
        assert responses[just_under].shed.code == SHED_DEADLINE
        server.stats.verify_conservation(queued=0, responses=len(responses))

    def test_conservation_violation_detected(self):
        stats = ServerStats(submitted=5, admitted=4, completed=4)
        with pytest.raises(GraphError, match="conservation violated"):
            stats.verify_conservation()


# ----------------------------------------------------------------------
class TestAdmissionControl:
    def test_oversized_model_rejected_by_device_budget(self):
        small = DEVICES["STM32F446RE"]
        server = ModelServer(clock=FakeClock(), device=small)
        arch = ArchSpec(
            name="too-big",
            input_shape=(64, 64, 3),
            layers=(ConvSpec(256, kernel=3), GlobalPoolSpec(), DenseSpec(4)),
        )
        graph = export_graph(arch, bits=32)
        with pytest.raises(DeploymentError):
            server.register(graph, TenantConfig(max_batch=4))

    def test_multi_tenant_arena_budget_enforced(self):
        small = DEVICES["STM32F446RE"]
        server = ModelServer(clock=FakeClock(), device=small)
        tenant = TenantConfig(max_batch=64)
        admitted = 0
        with pytest.raises(DeploymentError, match="tenant arenas"):
            for seed in range(64):
                server.register(_compiled(seed, bits=32), tenant)
                admitted += 1
        # At least one fit before the aggregate SRAM claim overflowed.
        assert admitted >= 1

    def test_no_device_means_no_admission_gate(self):
        server = ModelServer(clock=FakeClock())
        for seed in range(3):
            server.register(_compiled(seed, bits=32), TenantConfig(max_batch=64))

    def test_submit_validates_payload_shape(self):
        server = ModelServer(clock=FakeClock())
        digest = server.register(_compiled(0, bits=32))
        with pytest.raises(GraphError, match="payload shape"):
            server.submit(digest, np.zeros((3, 3, 1), dtype=np.float32))
        with pytest.raises(GraphError, match="not registered"):
            server.submit("feedfacefeedface", np.zeros((10, 10, 1), dtype=np.float32))
        # Nothing was counted against conservation for caller errors.
        assert server.stats.submitted == 0

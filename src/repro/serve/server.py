"""Multi-tenant micro-batching model server over the compiled runtime.

Design
------
The server is a *discrete-event* machine driven entirely through its
injected :class:`~repro.serve.clock.Clock`: requests enter via
:meth:`ModelServer.submit`, sit in a per-model queue, and are drained by
:meth:`poll` (dispatch everything ready now) / :meth:`run_until_idle`
(advance the clock between dispatches). Nothing happens between calls, so
a :class:`~repro.serve.clock.FakeClock` makes every scheduling decision a
deterministic function of the submitted trace — the property suites in
``tests/test_serve.py`` depend on exactly that.

Batching and scheduling semantics:

* A model's queue is **dispatchable** when it holds ``max_batch`` requests
  or its oldest request has waited ``max_wait_s``.
* Across models, dispatch order is earliest-deadline-first (EDF) over the
  queue heads; within a batch, requests are ordered by
  ``(deadline, arrival sequence)`` — a stable order, so same-deadline
  requests are served strictly FIFO.
* One dispatch stacks up to ``max_batch`` payloads and pushes them through
  the pooled interpreter's vectorized batch mode in a single invoke.

Overload behaves like the bounded-degradation patterns in
``nas/blackbox.py``: a full queue sheds at admission, an expired deadline
sheds at dispatch, a raising interpreter is retried with exponential
backoff (through the injected clock) and then sheds — every shed response
carries a structured :class:`ShedReason` and the conservation invariant
``admitted + shed_at_admission == submitted`` (and globally
``completed + shed == submitted``) is checkable at any drain point via
:meth:`ServerStats.verify_conservation`.

Admission control reuses the deploy-time guardrails: registering a model
runs :func:`repro.validate.validate_deployment` against the server's
device, and the sum of per-tenant full-batch arena claims must fit the
device's SRAM.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.errors import ConfigError, DeploymentError, GraphError
from repro.hw.devices import MCUDevice
from repro.resilience import faults
from repro.resilience.retry import retry_after
from repro.runtime.graph import Graph
from repro.serve.clock import Clock, MonotonicClock
from repro.serve.pool import InterpreterPool
from repro.serve.registry import ModelRegistry, RegisteredModel

#: Structured shed reason codes (the full closed set).
SHED_QUEUE_FULL = "queue_full"
SHED_DEADLINE = "deadline_expired"
SHED_EXECUTION = "execution_error"
SHED_TIMEOUT = "timeout"
SHED_CIRCUIT = "circuit_open"


@dataclass(frozen=True)
class ShedReason:
    """Why a request was shed instead of served."""

    code: str  #: one of the SHED_* codes
    detail: str

    def as_dict(self) -> Dict[str, str]:
        return {"code": self.code, "detail": self.detail}


@dataclass(frozen=True)
class TenantConfig:
    """Per-model serving knobs.

    max_batch:
        Coalescing ceiling; also sizes the interpreter pool's arena plan.
    max_wait_s:
        Longest a request may wait for co-batched company before the
        scheduler dispatches a partial batch.
    queue_depth:
        Admission bound; a submit against a full queue sheds immediately.
    default_deadline_s:
        Relative deadline stamped on requests submitted without one.
    max_retries / retry_backoff_s:
        Bounded-backoff retry of a raising interpreter invoke (the
        ``nas/blackbox.py`` degradation pattern); backoff sleeps go
        through the server clock so tests see them deterministically.
    pool_size:
        Interpreters kept for this model (all share the one graph).
    invoke_timeout_s:
        Per-invoke deadline. An attempt that would exceed it (a hung
        interpreter, or a service time stretched past the bound) is cut
        off at the deadline on the server clock and *hedged*: retried
        within the ``max_retries`` budget, then shed with the structured
        ``timeout`` reason — a hang becomes a shed, never a stuck server.
        ``None`` (the default) disables the deadline.
    breaker_threshold / breaker_cooldown_s:
        Per-tenant circuit breaker: after ``breaker_threshold``
        consecutive failed dispatches (``execution_error`` or ``timeout``
        sheds) the circuit opens and submissions shed at admission with
        ``circuit_open`` until ``breaker_cooldown_s`` has elapsed; then a
        half-open probe dispatch decides between closing and re-opening.
        ``breaker_threshold=0`` (the default) disables the breaker.
    quarantine_failed:
        When true, an interpreter whose invoke raised (or produced
        non-finite output) is quarantined out of the pool instead of
        released — the pool replenishes a fresh interpreter on the next
        checkout. Off by default: most invoke failures are payload- not
        interpreter-shaped, and rebuilding costs an arena plan.
    """

    max_batch: int = 8
    max_wait_s: float = 0.005
    queue_depth: int = 256
    default_deadline_s: float = 0.25
    max_retries: int = 1
    retry_backoff_s: float = 0.0
    pool_size: int = 1
    invoke_timeout_s: Optional[float] = None
    breaker_threshold: int = 0
    breaker_cooldown_s: float = 0.05
    quarantine_failed: bool = False

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.queue_depth < 1:
            raise ConfigError(f"queue_depth must be >= 1, got {self.queue_depth}")
        if self.max_wait_s < 0 or self.default_deadline_s <= 0:
            raise ConfigError("max_wait_s must be >= 0 and default_deadline_s > 0")
        if self.max_retries < 0 or self.retry_backoff_s < 0:
            raise ConfigError("max_retries and retry_backoff_s must be >= 0")
        if self.invoke_timeout_s is not None and self.invoke_timeout_s <= 0:
            raise ConfigError(
                f"invoke_timeout_s must be > 0 or None, got {self.invoke_timeout_s}"
            )
        if self.breaker_threshold < 0 or self.breaker_cooldown_s <= 0:
            raise ConfigError(
                "breaker_threshold must be >= 0 and breaker_cooldown_s > 0"
            )


@dataclass
class Request:
    """One enqueued inference request (a single sample)."""

    id: int
    model: str
    payload: np.ndarray
    arrival_s: float
    deadline_s: float  #: absolute, on the server clock
    seq: int  #: global admission order, the FIFO tie-breaker
    tag: Optional[object] = None


@dataclass
class Response:
    """Terminal outcome of exactly one request — served or shed."""

    request_id: int
    model: str
    status: str  #: ``"ok"`` | ``"shed"``
    arrival_s: float
    finish_s: float
    output: Optional[np.ndarray] = None
    shed: Optional[ShedReason] = None
    batch_size: int = 0  #: how many requests rode the dispatch (0 if shed)
    queue_s: float = 0.0  #: time spent queued before dispatch
    tag: Optional[object] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def total_s(self) -> float:
        return self.finish_s - self.arrival_s


@dataclass
class ServerStats:
    """Request-conservation ledger (always on, independent of obs).

    :meth:`count` is the one place any of these counts moves; it also bumps
    the obs counter ``serve.<field>`` (``serve.shed`` plus
    ``serve.shed.<code>`` for sheds), so the two can never drift.
    """

    submitted: int = 0
    admitted: int = 0
    completed: int = 0
    dispatches: int = 0
    retries: int = 0
    timeouts: int = 0  #: invoke attempts cut off at the per-invoke deadline
    breaker_opens: int = 0  #: closed/half-open -> open circuit transitions
    shed: Dict[str, int] = field(default_factory=dict)

    def count(self, event: str, code: Optional[str] = None) -> None:
        """Count one ``event`` (a field name); a shed carries its ``code``."""
        if code is None:
            setattr(self, event, getattr(self, event) + 1)
        else:
            self.shed[code] = self.shed.get(code, 0) + 1
            obs.incr(f"serve.{event}.{code}")
        obs.incr(f"serve.{event}")

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())

    @property
    def shed_at_admission(self) -> int:
        return self.shed.get(SHED_QUEUE_FULL, 0) + self.shed.get(SHED_CIRCUIT, 0)

    def verify_conservation(self, queued: int = 0, responses: int = 0) -> None:
        """Raise :class:`GraphError` on any conservation violation.

        With ``queued`` in-flight requests still waiting, every submitted
        request must be exactly one of: admitted or shed-at-admission; and
        completed + shed + queued must add back up to submitted. When a
        response count is given it must match the terminal outcomes.
        """
        problems = []
        if self.admitted + self.shed_at_admission != self.submitted:
            problems.append(
                f"admitted {self.admitted} + shed-at-admission "
                f"{self.shed_at_admission} != submitted {self.submitted}"
            )
        if self.completed + self.shed_total + queued != self.submitted:
            problems.append(
                f"completed {self.completed} + shed {self.shed_total} + "
                f"queued {queued} != submitted {self.submitted}"
            )
        if responses and responses != self.completed + self.shed_total:
            problems.append(
                f"{responses} responses != completed {self.completed} + "
                f"shed {self.shed_total}"
            )
        if problems:
            raise GraphError("request conservation violated: " + "; ".join(problems))

    def as_dict(self) -> Dict:
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "completed": self.completed,
            "dispatches": self.dispatches,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "breaker_opens": self.breaker_opens,
            "shed": dict(sorted(self.shed.items())),
            "shed_total": self.shed_total,
        }


class CircuitBreaker:
    """Per-tenant circuit breaker over dispatch outcomes.

    Closed until ``threshold`` *consecutive* failed dispatches
    (execution-error or timeout sheds), then open: admissions shed with
    ``circuit_open`` until ``cooldown_s`` has elapsed on the server clock.
    The first admission after the cooldown half-opens the circuit; the next
    dispatch outcome decides — success closes, failure re-opens (and
    restarts the cooldown). All transitions are deterministic functions of
    the dispatch outcome sequence and the clock.
    """

    def __init__(self, threshold: int, cooldown_s: float) -> None:
        self.threshold = int(threshold)
        self.cooldown_s = float(cooldown_s)
        self.state = "closed"  #: ``closed`` | ``open`` | ``half_open``
        self.consecutive_failures = 0
        self.opened_at = 0.0
        self.opens = 0

    def allow(self, now: float) -> bool:
        """May a request be admitted right now? (May half-open the circuit.)"""
        if self.state == "open":
            if now - self.opened_at >= self.cooldown_s:
                self.state = "half_open"
                obs.incr("serve.breaker.half_open")
                return True
            return False
        return True

    def record_success(self) -> None:
        self.consecutive_failures = 0
        if self.state != "closed":
            obs.incr("serve.breaker.closed")
        self.state = "closed"

    def record_failure(self, now: float) -> bool:
        """Count a failed dispatch; returns True when this opens the circuit."""
        self.consecutive_failures += 1
        should_open = self.state == "half_open" or (
            self.state == "closed" and self.consecutive_failures >= self.threshold
        )
        if should_open:
            self.state = "open"
            self.opened_at = now
            self.opens += 1
            return True
        return False


class ModelServer:
    """Deterministic multi-tenant micro-batching server.

    Parameters
    ----------
    clock:
        Time source for every scheduling decision (default: the real
        monotonic clock). Tests pass a ``FakeClock``.
    device:
        When given, model registration enforces
        :func:`~repro.validate.validate_deployment` *and* the multi-tenant
        SRAM rule: the summed full-batch arena claims of every tenant pool
        must fit ``device.sram_bytes``.
    compile_level:
        Pass-pipeline level models are compiled at on registration.
    service_time_fn:
        Optional simulated service-time model ``(digest, batch) ->
        seconds``. When the clock supports ``advance`` (virtual clocks),
        each dispatch moves time forward by that much, so replayed traces
        produce realistic latency distributions deterministically. Ignored
        on real clocks, where service time flows by itself.
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        device: Optional[MCUDevice] = None,
        compile_level: str = "O2",
        registry: Optional[ModelRegistry] = None,
        service_time_fn: Optional[Callable[[str, int], float]] = None,
    ) -> None:
        self.clock = clock if clock is not None else MonotonicClock()
        self.device = device
        self.registry = registry if registry is not None else ModelRegistry(compile_level)
        self.service_time_fn = service_time_fn
        self.stats = ServerStats()
        self._tenants: Dict[str, TenantConfig] = {}
        self._pools: Dict[str, InterpreterPool] = {}
        self._queues: Dict[str, List[Request]] = {}
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._responses: List[Response] = []
        self._next_id = 0
        self._next_seq = 0
        #: Cumulative responses handed out by drain() (conservation audit).
        self._drained = 0
        self._debug_checks = os.environ.get("REPRO_DEBUG_CHECKS", "0") not in ("", "0")
        #: Queue depth observed at each dispatch (for the load bench).
        self.queue_depth_samples: List[int] = []

    # ------------------------------------------------------------------
    # Registration + admission control
    # ------------------------------------------------------------------
    def register(self, model, tenant: Optional[TenantConfig] = None) -> str:
        """Register model bytes (or a Graph) as a tenant; returns the digest.

        Raises :class:`~repro.errors.DeploymentError` when the server has a
        device and the model fails the deploy-time budget guardrails or
        would push the summed tenant arenas past the device's SRAM.
        """
        tenant = tenant or TenantConfig()
        if isinstance(model, Graph):
            entry = self.registry.register_graph(model)
        else:
            entry = self.registry.register(model)
        digest = entry.digest
        if digest in self._pools:
            return digest

        pool = InterpreterPool(entry.graph, max_batch=tenant.max_batch,
                               size=tenant.pool_size)
        if self.device is not None:
            self._admit_model(entry, pool)
        self._tenants[digest] = tenant
        self._pools[digest] = pool
        self._queues[digest] = []
        if tenant.breaker_threshold > 0:
            self._breakers[digest] = CircuitBreaker(
                tenant.breaker_threshold, tenant.breaker_cooldown_s
            )
        obs.incr("serve.models_registered")
        return digest

    def _admit_model(self, entry: RegisteredModel, pool: InterpreterPool) -> None:
        from repro.validate.checks import validate_deployment

        validate_deployment(entry.graph, self.device)
        claimed = sum(p.arena_bytes for p in self._pools.values())
        if claimed + pool.arena_bytes > self.device.sram_bytes:
            obs.incr("validate.rejects")
            raise DeploymentError(
                f"cannot admit model {entry.name!r} ({entry.digest}): tenant "
                f"arenas would claim {claimed + pool.arena_bytes} B of "
                f"{self.device.name}'s {self.device.sram_bytes} B SRAM "
                f"({len(self._pools)} tenants already claim {claimed} B at "
                f"full batch)"
            )

    def tenant(self, digest: str) -> TenantConfig:
        self._require(digest)
        return self._tenants[digest]

    def pool(self, digest: str) -> InterpreterPool:
        self._require(digest)
        return self._pools[digest]

    def breaker(self, digest: str) -> Optional[CircuitBreaker]:
        """The tenant's circuit breaker, or None when disabled."""
        self._require(digest)
        return self._breakers.get(digest)

    def _require(self, digest: str) -> None:
        if digest not in self._pools:
            raise GraphError(
                f"model {digest!r} is not registered with this server "
                f"(registered: {', '.join(sorted(self._pools)) or 'none'})"
            )

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        digest: str,
        payload: np.ndarray,
        deadline_s: Optional[float] = None,
        tag: Optional[object] = None,
    ) -> int:
        """Enqueue one single-sample request; returns its request id.

        ``deadline_s`` is relative to now. A malformed payload raises
        :class:`GraphError` (caller bug — not counted against
        conservation); overload sheds with a structured reason and still
        produces a response.
        """
        self._require(digest)
        graph = self._pools[digest].graph
        in_spec = graph.tensors[graph.inputs[0]]
        payload = np.asarray(payload, dtype=np.float32)
        if payload.shape == (1,) + tuple(in_spec.shape):
            payload = payload[0]
        if payload.shape != tuple(in_spec.shape):
            raise GraphError(
                f"payload shape {payload.shape} != model input "
                f"{tuple(in_spec.shape)} (submit takes one sample, not a batch)"
            )
        tenant = self._tenants[digest]
        now = self.clock.now()
        if deadline_s is None:
            deadline_s = tenant.default_deadline_s
        if deadline_s <= 0:
            raise GraphError(f"deadline_s must be > 0, got {deadline_s}")

        request = Request(
            id=self._next_id,
            model=digest,
            payload=payload,
            arrival_s=now,
            deadline_s=now + deadline_s,
            seq=self._next_seq,
            tag=tag,
        )
        self._next_id += 1
        self._next_seq += 1
        self.stats.count("submitted")

        breaker = self._breakers.get(digest)
        if breaker is not None and not breaker.allow(now):
            self._shed(
                request,
                ShedReason(
                    SHED_CIRCUIT,
                    f"circuit open for {digest} after "
                    f"{breaker.consecutive_failures} consecutive failed "
                    f"dispatches (cooldown {tenant.breaker_cooldown_s}s)",
                ),
            )
            return request.id

        queue = self._queues[digest]
        if len(queue) >= tenant.queue_depth:
            self._shed(
                request,
                ShedReason(
                    SHED_QUEUE_FULL,
                    f"queue for {digest} at depth {len(queue)} "
                    f"(limit {tenant.queue_depth})",
                ),
            )
            return request.id
        queue.append(request)
        self.stats.count("admitted")
        return request.id

    def _shed(self, request: Request, reason: ShedReason) -> None:
        self.stats.count("shed", reason.code)
        self._responses.append(
            Response(
                request_id=request.id,
                model=request.model,
                status="shed",
                arrival_s=request.arrival_s,
                finish_s=self.clock.now(),
                shed=reason,
                tag=request.tag,
            )
        )

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def _queue_ready(self, digest: str, now: float) -> bool:
        queue = self._queues[digest]
        if not queue:
            return False
        tenant = self._tenants[digest]
        if len(queue) >= tenant.max_batch:
            return True
        oldest = min(r.arrival_s for r in queue)
        return now - oldest >= tenant.max_wait_s

    def _select_ready(self, now: float) -> Optional[str]:
        """EDF across models: the ready queue with the most urgent head."""
        best: Optional[str] = None
        best_key = None
        for digest, queue in self._queues.items():
            if not self._queue_ready(digest, now):
                continue
            head = min((r.deadline_s, r.seq) for r in queue)
            if best_key is None or head < best_key:
                best, best_key = digest, head
        return best

    def next_wake(self) -> Optional[float]:
        """Earliest absolute time any queue becomes dispatchable.

        ``None`` when every queue is empty. A queue that is ready *now*
        wakes at now; otherwise it wakes when its oldest request's
        coalescing window (``max_wait_s``) closes.
        """
        now = self.clock.now()
        wake: Optional[float] = None
        for digest, queue in self._queues.items():
            if not queue:
                continue
            if self._queue_ready(digest, now):
                return now
            oldest = min(r.arrival_s for r in queue)
            candidate = oldest + self._tenants[digest].max_wait_s
            if wake is None or candidate < wake:
                wake = candidate
        return wake

    def queued(self) -> int:
        """Requests currently waiting across all tenant queues."""
        return sum(len(q) for q in self._queues.values())

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def poll(self) -> int:
        """Dispatch every batch that is ready *now*; returns requests drained."""
        drained = 0
        while True:
            digest = self._select_ready(self.clock.now())
            if digest is None:
                return drained
            drained += self._dispatch(digest)

    def _dispatch(self, digest: str) -> int:
        tenant = self._tenants[digest]
        queue = self._queues[digest]
        now = self.clock.now()
        self.queue_depth_samples.append(len(queue))
        obs.observe("serve.queue_depth", len(queue))

        # Deadline-aware batch formation: stable (deadline, seq) order, so
        # equal deadlines preserve strict arrival order.
        queue.sort(key=lambda r: (r.deadline_s, r.seq))
        batch: List[Request] = []
        expired = 0
        while queue and len(batch) < tenant.max_batch:
            request = queue.pop(0)
            if request.deadline_s < now:
                expired += 1
                self._shed(
                    request,
                    ShedReason(
                        SHED_DEADLINE,
                        f"deadline {request.deadline_s:.6f} passed at "
                        f"{now:.6f} after {now - request.arrival_s:.6f}s queued",
                    ),
                )
                continue
            batch.append(request)
        if not batch:
            return expired  # only expired requests were drained

        outputs, failure_code = self._invoke_batch(digest, tenant, batch)
        if self.service_time_fn is not None and hasattr(self.clock, "advance"):
            self.clock.advance(self.service_time_fn(digest, len(batch)))
        finish = self.clock.now()
        self.stats.count("dispatches")
        obs.observe("serve.batch_size", len(batch))

        breaker = self._breakers.get(digest)
        if breaker is not None:
            if outputs is None:
                if breaker.record_failure(finish):
                    self.stats.count("breaker_opens")
            else:
                breaker.record_success()

        if outputs is None:  # retries/hedges exhausted — shed the whole batch
            if failure_code == SHED_TIMEOUT:
                detail = (
                    f"invoke exceeded the {tenant.invoke_timeout_s}s deadline "
                    f"on {tenant.max_retries + 1} attempts"
                )
            else:
                detail = f"invoke failed after {tenant.max_retries + 1} attempts"
            for request in batch:
                self._shed(request, ShedReason(failure_code, detail))
            return expired + len(batch)

        for i, request in enumerate(batch):
            self.stats.count("completed")
            queue_s = now - request.arrival_s
            obs.observe("serve.queue_wait_s", queue_s)
            obs.observe("serve.latency_s", finish - request.arrival_s)
            self._responses.append(
                Response(
                    request_id=request.id,
                    model=digest,
                    status="ok",
                    arrival_s=request.arrival_s,
                    finish_s=finish,
                    output=outputs[i],
                    batch_size=len(batch),
                    queue_s=queue_s,
                    tag=request.tag,
                )
            )
        return expired + len(batch)

    def _invoke_batch(
        self, digest: str, tenant: TenantConfig, batch: List[Request]
    ) -> Tuple[Optional[np.ndarray], str]:
        """Vectorized dispatch with bounded-backoff hedged retry.

        Returns ``(outputs, "")`` on success or ``(None, shed_code)`` after
        the retry budget is exhausted — the caller sheds the batch with the
        code (``execution_error`` or ``timeout``) of the last attempt.
        """
        for attempt in itertools.count(1):  # _retry ends it after max_retries + 1
            outputs, failure_code = self._attempt(digest, tenant, batch)
            if outputs is not None or not self._retry(tenant, attempt):
                return outputs, failure_code

    def _attempt(
        self, digest: str, tenant: TenantConfig, batch: List[Request]
    ) -> Tuple[Optional[np.ndarray], str]:
        """One dispatch attempt: ``(outputs, "")`` or ``(None, shed_code)``.

        Each attempt re-stacks the pristine request payloads, so a
        corrupt-chaos attempt never leaks a mutated payload into its retry,
        and queries the ``serve_invoke`` chaos site (hang/slow/corrupt/raise
        behaviors). A hang that reaches ``invoke_timeout_s``, or a service
        estimate (stretched by a slow action) past it, is cut off at the
        deadline on the server clock.
        """
        pool = self._pools[digest]
        stacked = np.stack([r.payload for r in batch])
        try:
            action = faults.chaos_point("serve_invoke")
        except Exception:
            obs.incr("serve.invoke_errors")
            return None, SHED_EXECUTION
        hang_s, slow_factor = 0.0, 1.0
        if action is not None:
            if action.kind == "hang":
                hang_s = action.duration_s
            elif action.kind == "slow":
                slow_factor = action.factor
            elif action.kind == "corrupt" and action.mutator is not None:
                stacked = np.asarray(
                    action.mutator(stacked), dtype=stacked.dtype
                ).reshape(stacked.shape)
        deadline = tenant.invoke_timeout_s
        hung = deadline is not None and hang_s >= deadline
        if not hung:
            # A stall shorter than the deadline (or with no deadline
            # configured) just costs its duration.
            self._advance(hang_s)
        if deadline is not None and (hung or (
            self.service_time_fn is not None
            and self.service_time_fn(digest, len(batch)) * slow_factor > deadline
        )):
            self._advance(deadline)
            self.stats.count("timeouts")
            return None, SHED_TIMEOUT
        if slow_factor > 1.0 and self.service_time_fn is not None:
            # The baseline service time is advanced once per dispatch by
            # the caller; a slow attempt pays the stretch on top.
            self._advance(
                self.service_time_fn(digest, len(batch)) * (slow_factor - 1.0)
            )
        interp = None
        try:
            with obs.span("serve/dispatch", model=digest, batch=len(batch)):
                interp = pool.acquire()
                outputs = interp.invoke(stacked)
            if not np.all(np.isfinite(outputs)):
                raise GraphError(
                    f"non-finite values in model {digest} output "
                    f"(corrupted dispatch)"
                )
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception:
            if interp is not None:
                if tenant.quarantine_failed:
                    pool.quarantine(interp)
                else:
                    pool.release(interp)
            obs.incr("serve.invoke_errors")
            return None, SHED_EXECUTION
        pool.release(interp)
        return outputs, ""

    def _retry(self, tenant: TenantConfig, attempt: int) -> bool:
        """Consume one unit of the retry budget; False when exhausted.

        Retries are counted separately from dispatches (``serve.retries``
        vs ``serve.dispatches``): a logical dispatch increments the
        dispatch counter exactly once however many attempts it hedges, so
        throughput metrics are never inflated by retries. Backoff sleeps go
        through the server clock.
        """
        if not retry_after(attempt, tenant.max_retries, tenant.retry_backoff_s,
                           self.clock.sleep):
            return False
        self.stats.count("retries")
        return True

    def _advance(self, seconds: float) -> None:
        """Move virtual time forward (no-op on real clocks, where elapsed
        time flows by itself)."""
        if seconds > 0 and hasattr(self.clock, "advance"):
            self.clock.advance(seconds)

    # ------------------------------------------------------------------
    # Draining
    # ------------------------------------------------------------------
    def run_until_idle(self, max_steps: int = 10_000_000) -> int:
        """Advance the clock and dispatch until every queue is empty.

        With a virtual clock this *is* the event loop: sleep jumps to the
        next coalescing-window expiry. Returns total requests drained.
        """
        drained = 0
        for _ in range(max_steps):
            if self.queued() == 0:
                return drained
            progressed = self.poll()
            drained += progressed
            if self.queued() == 0:
                return drained
            if progressed == 0:
                wake = self.next_wake()
                delta = wake - self.clock.now()
                if delta <= 0:
                    raise GraphError(
                        "scheduler stalled: queues non-empty but nothing "
                        "dispatchable and no future wake time"
                    )
                self.clock.sleep(delta)
        raise GraphError(f"run_until_idle exceeded {max_steps} steps")

    def drain(self) -> List[Response]:
        """Take every terminal response produced so far (FIFO by finish).

        Under ``REPRO_DEBUG_CHECKS=1`` every drain audits the conservation
        ledger (:meth:`ServerStats.verify_conservation`) against the queued
        requests and the cumulative response count, so a scheduler change
        that drops or double-counts a request fails loudly at the next
        drain point.
        """
        responses, self._responses = self._responses, []
        if self._debug_checks:
            self._drained += len(responses)
            self.stats.verify_conservation(
                queued=self.queued(), responses=self._drained
            )
        return responses

    @property
    def pending_responses(self) -> int:
        return len(self._responses)

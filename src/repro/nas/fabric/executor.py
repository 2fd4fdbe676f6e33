"""Evaluation executors: where a generation's candidates actually run.

One protocol, two implementations::

    outcomes = executor.run(requests, space, evaluate, broadcast)

``requests`` are :class:`repro.nas.blackbox.EvalRequest`s (pure values),
``broadcast`` is the shared-store snapshot to install before evaluating,
and ``outcomes`` come back **in request order** — never completion order —
each carrying the memo-cache delta its evaluation produced.

:class:`SerialExecutor` runs in-process (deterministic, debuggable, zero
setup); its ``permutation_seed`` deliberately shuffles *execution* order to
prove results don't depend on it. :class:`MultiprocessExecutor` fans out
over a ``fork`` worker pool; because every candidate draws its RNG stream
from ``(sweep seed, candidate index)`` and outcomes merge in request
order, an N-worker sweep is bitwise identical to the serial one.

Between generations the pool would idle while the parent screens the next
one, so :func:`pool_map` lends it out: the proxy screen scores its
candidates there, and runs them inline whenever no clean pool is open.

Worker-side caveats (by design): obs counters incremented inside a worker
live in that worker's registry and are not merged back (the parent counts
dispatches/failures itself), and the spans a worker records, including the
per-candidate ``fabric/proxy_score`` spans of pooled scoring, stay in that
worker's ring buffer; fault plans are cleared in workers — fault-injection
sites for the fabric are parent-side (``fabric_enqueue``,
``fabric_complete``, ``checkpoint_write``).
"""

from __future__ import annotations

import itertools
import multiprocessing
import time
import weakref
from dataclasses import replace
from typing import Any, Callable, Iterable, List, Optional

from repro import obs
from repro.errors import SearchError
from repro.nas.blackbox import DSCNNSearchSpace, EvalOutcome, EvalRequest, run_eval_request
from repro.nas.fabric.store import (
    CacheDelta,
    cache_key_snapshot,
    collect_cache_delta,
    install_cache_delta,
)
from repro.resilience import faults
from repro.resilience.retry import retry_after
from repro.utils.rng import new_rng


def execute_request(
    request: EvalRequest,
    space: DSCNNSearchSpace,
    evaluate: Callable,
    broadcast: Optional[CacheDelta] = None,
    sleeper: Callable[[float], None] = time.sleep,
) -> EvalOutcome:
    """Install the broadcast, run one request, return outcome + cache delta.

    This is the complete per-task work unit — the same function body runs
    inline under :class:`SerialExecutor` and as the pool task under
    :class:`MultiprocessExecutor`.
    """
    installed = install_cache_delta(broadcast) if broadcast else 0
    baseline = cache_key_snapshot()
    outcome = run_eval_request(request, space, evaluate, sleeper=sleeper)
    return replace(
        outcome,
        shared_installs=installed,
        cache_delta=collect_cache_delta(baseline),
    )


#: Weak reference to the :class:`MultiprocessExecutor` whose pool this
#: process lends to :func:`pool_map`: set when a pool opens, cleared by
#: ``close()``/``terminate()`` and in forked workers. Weak, so that lending
#: never keeps an executor its owner dropped alive.
_LENDER: Optional["weakref.ReferenceType[MultiprocessExecutor]"] = None


def pool_map(fn: Callable[[Any], Any], items: Iterable[Any]) -> List[Any]:
    """``[fn(item) for item in items]``, on the open fork pool if there is one.

    The pool is that of the :class:`MultiprocessExecutor` open in this
    process, found through process state (like the installed chaos plan)
    because callers may wrap the executor. ``fn`` must then be a
    module-level function the workers can import, and the items must
    pickle: a worker that cannot unpickle its task dies with it, and
    ``map`` never returns. Results come back in item order either way.

    The loop runs inline instead when no pool is open: before the
    executor's first ``run``, with :class:`SerialExecutor`, after
    ``close()``/``terminate()``, inside a forked worker, and once the pool
    has missed a task deadline — it then holds a worker the executor gave
    up on, and ``map`` could wait on it forever.
    """
    executor = _LENDER() if _LENDER is not None else None
    if executor is None or executor._dirty:
        return [fn(item) for item in items]
    return executor._pool.map(fn, items, chunksize=1)


def _pool_worker_init() -> None:
    global _LENDER
    # Forked workers inherit the parent's process-global fault plan; firing
    # it inside a worker would make hit counts depend on task placement.
    faults.clear()
    # ...and its lent pool, whose queues belong to the parent.
    _LENDER = None


def _pool_run_task(args) -> EvalOutcome:
    request, space, evaluate, broadcast, delay_s = args
    if delay_s > 0:
        # A chaos-injected stall, decided parent-side and shipped with the
        # task so worker processes stay free of chaos-plan state.
        time.sleep(delay_s)
    return execute_request(request, space, evaluate, broadcast)


class SerialExecutor:
    """In-process executor: the deterministic reference implementation.

    ``permutation_seed`` (optional) shuffles the order requests *execute*
    in, while outcomes still return in request order — the harness uses it
    to prove sweep results are independent of completion order. ``sleeper``
    is forwarded to the retry backoff (injectable for tests).
    """

    workers = 1

    def __init__(
        self,
        permutation_seed: Optional[int] = None,
        sleeper: Callable[[float], None] = time.sleep,
    ) -> None:
        self._order_rng = (
            new_rng(permutation_seed) if permutation_seed is not None else None
        )
        self._sleep = sleeper

    def run(
        self,
        requests: List[EvalRequest],
        space: DSCNNSearchSpace,
        evaluate: Callable,
        broadcast: Optional[CacheDelta] = None,
    ) -> List[EvalOutcome]:
        order = list(range(len(requests)))
        if self._order_rng is not None and len(order) > 1:
            self._order_rng.shuffle(order)
        outcomes: List[Optional[EvalOutcome]] = [None] * len(requests)
        for slot, position in enumerate(order):
            # Only the first task of the generation sees a non-empty install
            # count: the broadcast is idempotent within one process.
            outcomes[position] = execute_request(
                requests[position],
                space,
                evaluate,
                broadcast if slot == 0 else None,
                sleeper=self._sleep,
            )
        return outcomes  # type: ignore[return-value]

    def close(self) -> None:
        """Nothing to tear down for the in-process executor."""


class MultiprocessExecutor:
    """Fork-pool executor: shards a generation across worker processes.

    The pool is created lazily on first use (workers inherit whatever the
    parent caches already hold at that point — later discoveries travel via
    the broadcast) and must be :meth:`close`\\ d when the sweep ends;
    :func:`repro.nas.fabric.run_sweep` does both. Between those, the pool
    is lent to :func:`pool_map` until it misses a task deadline.
    ``evaluate`` must be picklable — a module-level function or a
    dataclass oracle like :class:`repro.nas.fabric.MiniTaskOracle`.

    Fault tolerance: with ``task_timeout_s`` set, every task result is
    collected under a per-task deadline. A deadline miss means a dead or
    hung worker; the lost :class:`EvalRequest` is requeued on a fresh
    worker slot (dispatch-index seeding makes the retry bitwise identical
    to a first attempt) up to ``max_requeues`` times, after which the
    candidate is quarantined as *poison*: it degrades to a structured
    eval failure instead of wedging the sweep. A pool that ever missed a
    deadline still owns the hung worker, so :meth:`close` tears it down
    with ``terminate()`` rather than waiting on a ``join()`` that would
    never return.

    Chaos: each dispatch consults the ``executor_task`` chaos site keyed
    on the request's dispatch index (parent-side, so decisions are
    placement-independent); ``hang`` actions ship the stall duration with
    the task, ``raise`` actions fire in the parent.
    """

    def __init__(
        self,
        workers: int,
        task_timeout_s: Optional[float] = None,
        max_requeues: int = 2,
    ) -> None:
        if workers < 1:
            raise SearchError("MultiprocessExecutor needs at least 1 worker")
        if task_timeout_s is not None and task_timeout_s <= 0:
            raise SearchError(
                f"task_timeout_s must be > 0 or None, got {task_timeout_s}"
            )
        if max_requeues < 0:
            raise SearchError(f"max_requeues must be >= 0, got {max_requeues}")
        self.workers = workers
        self.task_timeout_s = task_timeout_s
        self.max_requeues = max_requeues
        self._pool = None
        self._dirty = False
        #: Lost-task redispatches performed across the executor's lifetime.
        self.requeues = 0
        #: Candidates quarantined after exhausting the requeue budget.
        self.poisoned = 0

    def _ensure_pool(self):
        global _LENDER
        if self._pool is None:
            context = multiprocessing.get_context("fork")
            self._pool = context.Pool(self.workers, initializer=_pool_worker_init)
            _LENDER = weakref.ref(self)
        return self._pool

    def _take_pool(self):
        """Detach the pool (None if none is open) and stop lending it."""
        global _LENDER
        if _LENDER is not None and _LENDER() is self:
            _LENDER = None
        pool, self._pool = self._pool, None
        return pool

    @staticmethod
    def _task_delay(request: EvalRequest) -> float:
        """Parent-side chaos decision for one dispatch of ``request``."""
        action = faults.chaos_point("executor_task", key=request.index)
        if action is not None and action.kind == "hang":
            return action.duration_s
        return 0.0

    def _submit(self, pool, request, space, evaluate, broadcast):
        delay_s = self._task_delay(request)
        return pool.apply_async(
            _pool_run_task, ((request, space, evaluate, broadcast, delay_s),)
        )

    def run(
        self,
        requests: List[EvalRequest],
        space: DSCNNSearchSpace,
        evaluate: Callable,
        broadcast: Optional[CacheDelta] = None,
    ) -> List[EvalOutcome]:
        if not requests:
            return []
        pool = self._ensure_pool()
        pending = [
            self._submit(pool, request, space, evaluate, broadcast)
            for request in requests
        ]
        # Collect in submission order: whichever worker finishes first, the
        # merged result sequence is fixed by the request order.
        return [
            self._collect(pool, request, task, space, evaluate, broadcast)
            for request, task in zip(requests, pending)
        ]

    def _collect(self, pool, request, task, space, evaluate, broadcast) -> EvalOutcome:
        if self.task_timeout_s is None:
            return task.get()
        for dispatch in itertools.count(1):
            try:
                return task.get(self.task_timeout_s)
            except multiprocessing.TimeoutError:
                # The worker is dead or hung; its result will never be
                # consumed (if it does straggle in, nobody reads it, so the
                # journal can never see a double evaluation). The pool now
                # owns a wedged slot — close() must terminate, not join.
                self._dirty = True
                obs.incr("fabric.task_timeouts")
                if not retry_after(dispatch, self.max_requeues, 0.0, time.sleep):
                    # requeues/poisoned are bumped only here, each beside
                    # its fabric.* obs counter, so the two stay equal.
                    self.poisoned += 1
                    obs.incr("fabric.poisoned")
                    return EvalOutcome(
                        fitness=None,
                        error=(
                            f"TimeoutError: candidate {request.index} exceeded "
                            f"the {self.task_timeout_s}s task deadline on "
                            f"{dispatch} dispatches (poison candidate "
                            f"quarantined)"
                        ),
                        attempts=dispatch,
                    )
                self.requeues += 1
                obs.incr("fabric.requeues")
                task = self._submit(pool, request, space, evaluate, broadcast)

    def close(self) -> None:
        """Tear down the pool; idempotent, and safe with hung workers."""
        pool = self._take_pool()
        if pool is None:
            return
        if self._dirty:
            pool.terminate()
        else:
            pool.close()
        pool.join()

    def terminate(self) -> None:
        """Kill the pool without waiting for in-flight tasks; idempotent."""
        pool = self._take_pool()
        if pool is None:
            return
        pool.terminate()
        pool.join()

    def __enter__(self) -> "MultiprocessExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # An exception unwinding through the block (an injected fault at a
        # parent-side site, a keyboard interrupt) must not leak the fork
        # pool or block on stuck tasks: terminate instead of close.
        if exc_type is not None:
            self.terminate()
        else:
            self.close()

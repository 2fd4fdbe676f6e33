"""Deterministic fault injection for long-run resilience testing.

Long DNAS and training runs die for boring reasons — OOM kills, preemption,
flaky data loaders — and the only way to *prove* that checkpoint/resume is
correct is to crash a run on purpose at every instrumented site and show the
resumed run is bitwise identical to an uninterrupted one.

One process-wide :class:`ChaosPlan` drives every site. A plan holds
:class:`ChaosSpec`\\ s describing ``raise | hang | slow | corrupt``
behaviors and counts hits per site, so failures are exactly reproducible:
the Nth candidate evaluation, the Mth train step. Two kinds of call site
consult it:

* **crash sites** call :func:`fault_point`, a single ``is None`` check
  unless a plan is installed; a ``raise`` spec raises
  :class:`InjectedFault` (or a custom exception, to exercise retry paths)
  on its configured hits;
* **behavior sites** call :func:`chaos_point` for a :class:`ChaosAction`
  to interpret (advance a virtual clock, stretch a service time, mutate a
  payload copy).

Firing decisions are pure blake2b functions of ``(plan seed, site,
occurrence-or-key)`` — the same keying discipline as
:func:`repro.nas.blackbox.candidate_rng` — so a chaos run is bitwise
reproducible regardless of worker placement or retry interleaving.

Instrumented sites
------------------
==================  ====================================================
``dnas_epoch``      start of each DNAS search epoch (:mod:`repro.nas.search`)
``dnas_step``       each DNAS gradient step
``train_epoch``     start of each training epoch (:mod:`repro.tasks.common`)
``train_step``      each training gradient step
``candidate_eval``  each black-box candidate evaluation (:mod:`repro.nas.blackbox`)
``experiment_row``  each experiment row computation (:mod:`repro.experiments.base`)
``checkpoint_write``  inside the atomic checkpoint write, before publish
``fabric_enqueue``  before a fabric sweep generation is proposed/dispatched
                    (:mod:`repro.nas.fabric.sweep`)
``fabric_complete``  after a fabric generation's outcomes are merged and
                    journaled, before the checkpoint (:mod:`repro.nas.fabric.sweep`)
``serve_invoke``    each interpreter invoke attempt inside
                    :meth:`repro.serve.ModelServer` dispatch (behavior site:
                    supports hang/slow/corrupt chaos, queried per attempt)
``executor_task``   each fabric task dispatch in
                    :class:`repro.nas.fabric.MultiprocessExecutor`, keyed on
                    the request's dispatch index (placement-independent)
==================  ====================================================

Usage::

    with faults.inject(ChaosPlan(ChaosSpec("dnas_step", at=7))):
        search(...)          # raises InjectedFault on the 7th step

    plan = ChaosPlan(ChaosSpec("serve_invoke", "hang", rate=0.1,
                               duration_s=1.0), seed=42)
    with faults.inject(plan):
        replay_trace(server, ...)   # ~10% of invokes hang for 1s
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple, Type, Union

import numpy as np

from repro import obs
from repro.errors import ConfigError, ReproError

#: The sites wired into the library's stateful loops.
SITES = (
    "dnas_epoch",
    "dnas_step",
    "train_epoch",
    "train_step",
    "candidate_eval",
    "experiment_row",
    "checkpoint_write",
    "fabric_enqueue",
    "fabric_complete",
    "serve_invoke",
    "executor_task",
)

#: The sites that interpret hang/slow/corrupt actions (:func:`chaos_point`);
#: the rest are raise-only crash sites (:func:`fault_point`).
BEHAVIOR_SITES = ("serve_invoke", "executor_task")

#: Chaos behavior kinds a :class:`ChaosSpec` may carry.
CHAOS_KINDS = ("raise", "hang", "slow", "corrupt")


class InjectedFault(ReproError):
    """Raised by an armed fault site; carries the site and hit number."""

    def __init__(self, site: str, hit: int) -> None:
        super().__init__(f"injected fault at site {site!r} (hit #{hit})")
        self.site = site
        self.hit = hit


def _fill_nan(payload: np.ndarray) -> np.ndarray:
    out = np.array(payload, copy=True)
    out[...] = np.nan
    return out


def _fill_inf(payload: np.ndarray) -> np.ndarray:
    out = np.array(payload, copy=True)
    out[...] = np.inf
    return out


#: Named payload mutators usable from YAML chaos schedules. Both produce
#: corruption the server's non-finite output guard *detects*, so the retry
#: defense can restore the pristine payload — silent wrong-value corruption
#: is out of scope for the guard and deliberately not shipped here.
CORRUPT_MUTATORS: Dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "nan": _fill_nan,
    "inf": _fill_inf,
}


def chaos_uniform(seed: int, site: str, occurrence: int) -> float:
    """Pure uniform draw in [0, 1) keyed on ``(seed, site, occurrence)``.

    blake2b-keyed like :func:`repro.utils.rng.spawn_rng`, so probabilistic
    chaos decisions are order- and placement-independent: the Nth hit of a
    site (or dispatch index N) fires identically on every replay.
    """
    digest = hashlib.blake2b(
        f"{int(seed)}/{site}/{int(occurrence)}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little") / 2.0**64


@dataclass(frozen=True)
class ChaosAction:
    """What a fired behavior spec asks the call site to do.

    ``raise`` never reaches the caller (the plan raises directly); the
    other kinds come back as an action the site interprets: ``hang``
    consumes ``duration_s`` of (virtual) wall time, ``slow`` stretches the
    service time by ``factor``, ``corrupt`` runs ``mutator`` over a *copy*
    of the payload.
    """

    site: str
    kind: str
    hit: int  #: occurrence number (unkeyed) or per-key attempt number
    duration_s: float = 0.0
    factor: float = 1.0
    mutator: Optional[Callable[[np.ndarray], np.ndarray]] = None


@dataclass(frozen=True)
class ChaosSpec:
    """One seeded misbehavior at a site.

    Selection composes two filters:

    * **which occurrence/key** — deterministic ``rate`` (a pure
      :func:`chaos_uniform` draw per occurrence, or per key at keyed
      sites), an explicit ``keys`` tuple, or the ``at``/``times`` hit
      window;
    * **what happens** — ``kind`` with its parameter (``duration_s`` for
      hang, ``factor`` for slow, ``mutator`` for corrupt, ``exception``
      for raise).

    At keyed sites (``executor_task``) the ``at``/``times`` window counts
    *per-key attempts*, so ``at=1, times=1`` means "the first dispatch of
    each selected key misbehaves, the requeue recovers".
    """

    site: str
    kind: str = "raise"
    at: int = 1
    times: int = 1
    rate: Optional[float] = None
    keys: Optional[Tuple[int, ...]] = None
    duration_s: float = 0.0
    factor: float = 1.0
    mutator: Union[None, str, Callable[[np.ndarray], np.ndarray]] = None
    exception: Optional[Type[BaseException]] = None

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise ConfigError(
                f"chaos kind must be one of {CHAOS_KINDS}, got {self.kind!r}"
            )
        if self.kind != "raise" and self.site in SITES and self.site not in BEHAVIOR_SITES:
            raise ConfigError(
                f"site {self.site!r} is a raise-only crash site; {self.kind!r} "
                f"needs one of {BEHAVIOR_SITES}"
            )
        if self.at < 1 or self.times < 1:
            raise ConfigError(
                f"chaos at/times must be >= 1, got at={self.at} times={self.times}"
            )
        if self.rate is not None and not 0.0 <= self.rate <= 1.0:
            raise ConfigError(f"chaos rate must be in [0, 1], got {self.rate}")
        if self.duration_s < 0:
            raise ConfigError(f"chaos duration_s must be >= 0, got {self.duration_s}")
        if self.factor <= 0:
            raise ConfigError(f"chaos factor must be > 0, got {self.factor}")
        if isinstance(self.mutator, str) and self.mutator not in CORRUPT_MUTATORS:
            raise ConfigError(
                f"unknown corrupt mutator {self.mutator!r} "
                f"(builtin: {', '.join(sorted(CORRUPT_MUTATORS))})"
            )
        if self.keys is not None:
            object.__setattr__(self, "keys", tuple(int(k) for k in self.keys))

    def resolved_mutator(self) -> Optional[Callable[[np.ndarray], np.ndarray]]:
        if isinstance(self.mutator, str):
            return CORRUPT_MUTATORS[self.mutator]
        return self.mutator

    def should_fire(self, hit: int) -> bool:
        return self.at <= hit < self.at + self.times


class ChaosPlan:
    """Seeded, schedulable misbehavior: counts hits and fires :class:`ChaosSpec`s.

    Unkeyed sites count occurrences per site; keyed sites (a ``key=`` is
    passed to :func:`chaos_point`) count attempts per ``(site, key)``, so
    decisions follow the logical work item, not its placement. ``fired``
    records ``(site, occurrence, kind)`` in firing order for assertions.
    """

    def __init__(self, *specs: ChaosSpec, seed: int = 0) -> None:
        self.specs: List[ChaosSpec] = list(specs)
        self.seed = int(seed)
        self.hits: Dict[str, int] = {}
        self.key_hits: Dict[Tuple[str, int], int] = {}
        self.fired: List[Tuple[str, int, str]] = []

    def action(self, site: str, key: Optional[int] = None) -> Optional[ChaosAction]:
        if key is None:
            occurrence = self.hits.get(site, 0) + 1
            self.hits[site] = occurrence
        else:
            slot = (site, int(key))
            occurrence = self.key_hits.get(slot, 0) + 1
            self.key_hits[slot] = occurrence
        for spec in self.specs:
            if spec.site != site:
                continue
            if spec.keys is not None:
                if key is None or int(key) not in spec.keys:
                    continue
            if spec.rate is not None:
                # Rate selects occurrences (unkeyed) or whole keys (keyed);
                # at keyed sites at/times still gates the attempt number, so
                # a rate-selected key can misbehave once and recover.
                draw_id = occurrence if key is None else int(key)
                if chaos_uniform(self.seed, site, draw_id) >= spec.rate:
                    continue
                if key is not None and not spec.should_fire(occurrence):
                    continue
            elif not spec.should_fire(occurrence):
                continue
            self.fired.append((site, occurrence, spec.kind))
            obs.incr(f"chaos.fired.{site}.{spec.kind}")
            if spec.kind == "raise":
                if spec.exception is not None:
                    raise spec.exception(
                        f"injected fault at site {site!r} (hit #{occurrence})"
                    )
                raise InjectedFault(site, occurrence)
            return ChaosAction(
                site=site,
                kind=spec.kind,
                hit=occurrence,
                duration_s=spec.duration_s,
                factor=spec.factor,
                mutator=spec.resolved_mutator(),
            )
        return None


_ACTIVE: Optional[ChaosPlan] = None


def active_plan() -> Optional[ChaosPlan]:
    """The currently installed plan, or None."""
    return _ACTIVE


def install(plan: ChaosPlan) -> ChaosPlan:
    """Install a plan process-wide (replacing any previous one)."""
    global _ACTIVE
    _ACTIVE = plan
    return plan


def clear() -> None:
    """Remove the installed plan; every instrumented site is a no-op again.

    This is the process-wide reset used by the test fixture and by forked
    pool workers — fault decisions are parent-side by design.
    """
    global _ACTIVE
    _ACTIVE = None


@contextmanager
def inject(plan: ChaosPlan) -> Iterator[ChaosPlan]:
    """Install ``plan`` for the duration of the block, then restore the
    plan that enclosed it (None at top level)."""
    global _ACTIVE
    enclosing, _ACTIVE = _ACTIVE, plan
    try:
        yield plan
    finally:
        _ACTIVE = enclosing


def fault_point(site: str) -> None:
    """Raise-only crash site: a single branch unless a plan is installed."""
    if _ACTIVE is not None:
        _ACTIVE.action(site)


def chaos_point(site: str, key: Optional[int] = None) -> Optional[ChaosAction]:
    """Instrumented behavior site: a single branch unless a plan is
    installed. ``raise``-kind specs raise here; other kinds return a
    :class:`ChaosAction` for the caller to interpret (None = behave)."""
    if _ACTIVE is None:
        return None
    return _ACTIVE.action(site, key)

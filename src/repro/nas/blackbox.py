"""Black-box architecture search baselines.

The paper positions DNAS against the black-box optimizers used by prior
TinyML work: **evolutionary search** (MCUNet, Lin et al. 2020) and
**Bayesian optimization** (SpArSe, Fedorov et al. 2019). To make that
comparison concrete, this module implements both — plus plain random
search — over the same DS-CNN design space and the same eq.(2)-(4)
resource model the DNAS uses, with a fitness function that actually trains
each candidate.

All three searchers share the interface::

    result = EvolutionarySearch(space, budget).run(evaluate, rng)

where ``evaluate(arch) -> float`` is the (expensive) accuracy oracle and
infeasible candidates are rejected *before* evaluation, as MCUNet does.
An oracle may also accept a per-candidate generator —
``evaluate(arch, rng)`` — in which case each candidate receives an
independent stream keyed on ``(sweep seed, candidate index)`` via
:func:`candidate_rng`, **not** drawn from a shared generator: a stream
that depended on draw order would make results depend on which worker
finished first, breaking the distributed fabric's bitwise guarantees.

Search proceeds in *generations*: each searcher proposes a batch of
genomes (``generation_size``, default 1 — bit-identical to the historical
serial loop), the batch is filtered (memo, feasibility, optional zero-cost
proxy screen), and the survivors are evaluated — inline by default, or
through a pluggable evaluator (see :mod:`repro.nas.fabric`) that shards
them across worker processes and merges outcomes **in proposal order**, so
the result never depends on completion order.
"""

from __future__ import annotations

import inspect
import time
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import SearchError
from repro.models.micronets import _separable_stack
from repro.models.spec import ArchSpec
from repro.nas.budgets import ResourceBudget, resource_profile
from repro.resilience.faults import fault_point
from repro.resilience.retry import retry_after
from repro.utils.rng import RngLike, new_rng, spawn_rng

#: Sentinel genome value meaning "this block is skipped".
SKIP = -1

Genome = Tuple[int, ...]


@dataclass(frozen=True)
class DSCNNSearchSpace:
    """The discrete DS-CNN design space the black-box searchers explore.

    A genome is ``(stem_index, block_0, ..., block_{N-1})`` where each block
    gene is an index into ``width_options`` or :data:`SKIP`.
    """

    input_shape: Tuple[int, int, int] = (49, 10, 1)
    num_classes: int = 12
    width_options: Sequence[int] = (16, 32, 48, 64)
    num_blocks: int = 5
    stem_kernel: Tuple[int, int] = (10, 4)
    stem_stride: Tuple[int, int] = (2, 2)

    @property
    def genome_length(self) -> int:
        return 1 + self.num_blocks

    def random_genome(self, rng: np.random.Generator) -> Genome:
        genes = [int(rng.integers(0, len(self.width_options)))]
        for _ in range(self.num_blocks):
            if rng.random() < 0.2:
                genes.append(SKIP)
            else:
                genes.append(int(rng.integers(0, len(self.width_options))))
        return tuple(genes)

    def mutate(self, genome: Genome, rng: np.random.Generator) -> Genome:
        genes = list(genome)
        position = int(rng.integers(0, len(genes)))
        if position == 0:
            genes[0] = int(rng.integers(0, len(self.width_options)))
        elif rng.random() < 0.25:
            genes[position] = SKIP
        else:
            genes[position] = int(rng.integers(0, len(self.width_options)))
        return tuple(genes)

    def crossover(self, a: Genome, b: Genome, rng: np.random.Generator) -> Genome:
        cut = int(rng.integers(1, len(a)))
        return tuple(a[:cut]) + tuple(b[cut:])

    def to_arch(self, genome: Genome, name: str = "blackbox") -> ArchSpec:
        stem = self.width_options[genome[0]]
        blocks = [
            (self.width_options[g], 1) for g in genome[1:] if g != SKIP
        ]
        if not blocks:
            blocks = [(self.width_options[0], 1)]
        return _separable_stack(
            name,
            stem_channels=stem,
            block_channels=blocks,
            input_shape=self.input_shape,
            num_classes=self.num_classes,
            stem_kernel=self.stem_kernel,
            stem_stride=self.stem_stride,
        )

    def encode(self, genome: Genome) -> np.ndarray:
        """Real-vector encoding for surrogate models (skip → -1)."""
        return np.array(
            [
                self.width_options[g] if g != SKIP else 0
                for g in genome
            ],
            dtype=np.float64,
        )


def feasible(arch: ArchSpec, budget: ResourceBudget) -> bool:
    """Check an architecture against the budget with the deployment model.

    Uses the same accounting DNAS regularizes: weight count, eq.(3) working
    memory (via the actual arena planner, which eq.(3) tracks closely), and
    op count. Profiles are memoized on geometry
    (:func:`repro.nas.budgets.resource_profile`), so genomes that collapse
    to the same network — e.g. SKIP genes in different positions — pay the
    graph export and arena plan only once.
    """
    return resource_profile(arch, bits=8).fits(budget)


# ----------------------------------------------------------------------
# Per-candidate seeding
# ----------------------------------------------------------------------
def derive_sweep_seed(rng: RngLike) -> int:
    """A stable integer sweep seed from whatever the caller passed as rng.

    Integer seeds are used directly; a live generator contributes a digest
    of its current bit-generator state **without consuming a draw** (pulling
    a value from it here would perturb the caller's stream).
    """
    if rng is None:
        return 0
    if isinstance(rng, (int, np.integer)):
        return int(rng)
    return zlib.crc32(repr(rng.bit_generator.state).encode("utf-8"))


def candidate_rng(sweep_seed: int, index: int) -> np.random.Generator:
    """The RNG stream for candidate ``index`` of a sweep.

    A pure function of ``(sweep_seed, index)``: the stream is spawned from a
    fresh generator keyed on the candidate's dispatch index, **never** drawn
    from a shared generator whose position depends on evaluation order.
    That property is what lets N workers evaluate candidates in any
    completion order and still reproduce the serial sweep bit for bit — and
    what lets a resumed sweep hand a replayed candidate the same stream it
    had before the crash.
    """
    return spawn_rng(new_rng(int(sweep_seed)), f"candidate/{int(index)}")


def oracle_accepts_rng(evaluate: Callable) -> bool:
    """Whether the oracle's signature takes a per-candidate ``rng``."""
    try:
        signature = inspect.signature(evaluate)
    except (TypeError, ValueError):
        return False
    for parameter in signature.parameters.values():
        if parameter.kind in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        ) and parameter.name == "rng":
            return True
    return False


# ----------------------------------------------------------------------
# Evaluation requests/outcomes (the unit of work the fabric ships around)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EvalRequest:
    """One candidate evaluation, fully described by values (picklable).

    ``index`` is the candidate's global dispatch index within the sweep —
    the key of its RNG stream and of its journal record.
    """

    index: int
    genome: Genome
    sweep_seed: int
    wants_rng: bool = False
    max_retries: int = 2
    backoff_s: float = 0.0


@dataclass(frozen=True)
class EvalOutcome:
    """The result of running one :class:`EvalRequest`.

    ``fitness`` is None when every attempt raised (the candidate degrades
    to a recorded :class:`EvalFailure`). ``cache_delta`` carries memo-cache
    entries the evaluation produced in a worker process, so the parent (and
    through it, every other worker) can reuse them; ``shared_installs``
    counts broadcast entries the executing process imported before running.
    """

    fitness: Optional[float]
    error: Optional[str] = None
    attempts: int = 1
    duration_s: float = 0.0
    shared_installs: int = 0
    cache_delta: Optional[Dict] = None
    replayed: bool = False


def run_eval_request(
    request: EvalRequest,
    space: DSCNNSearchSpace,
    evaluate: Callable,
    sleeper: Callable[[float], None] = time.sleep,
    arch: Optional[ArchSpec] = None,
) -> EvalOutcome:
    """Execute one evaluation with bounded-retry degradation.

    This is the single evaluation path shared by the inline serial loop and
    every fabric worker: the same fault site, the same retry/backoff
    schedule, the same per-candidate stream — so where a candidate runs
    cannot change what it computes. Each retry attempt rebuilds the
    candidate's stream from scratch, so a retried success is bitwise equal
    to a first-attempt success.
    """
    if arch is None:
        arch = space.to_arch(request.genome)
    last_error: Optional[str] = None
    attempt = 0
    start = time.perf_counter()
    for attempt in range(1, request.max_retries + 2):
        try:
            fault_point("candidate_eval")
            with obs.span("blackbox/evaluate", genome=str(request.genome), attempt=attempt):
                if request.wants_rng:
                    value = evaluate(arch, candidate_rng(request.sweep_seed, request.index))
                else:
                    value = evaluate(arch)
                return EvalOutcome(
                    fitness=float(value),
                    attempts=attempt,
                    duration_s=time.perf_counter() - start,
                )
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            last_error = f"{type(exc).__name__}: {exc}"
            obs.incr("nas.blackbox.eval_errors")
            if retry_after(attempt, request.max_retries, request.backoff_s, sleeper):
                obs.incr("nas.blackbox.eval_retries")
    return EvalOutcome(
        fitness=None,
        error=last_error,
        attempts=attempt,
        duration_s=time.perf_counter() - start,
    )


@dataclass(frozen=True)
class EvalFailure:
    """One candidate whose evaluation kept raising until retries ran out."""

    genome: Genome
    error: str
    attempts: int


@dataclass
class BlackBoxResult:
    """Outcome of a black-box search run."""

    best_arch: Optional[ArchSpec]
    best_fitness: float
    evaluations: int
    rejected_infeasible: int
    history: List[Tuple[Genome, float]] = field(default_factory=list)
    #: Candidates recorded as infeasible because their evaluation raised
    #: (after bounded retries); the sweep continues past them.
    failures: List[EvalFailure] = field(default_factory=list)
    #: Proposals processed across all generations (memo hits, rejects and
    #: screened candidates included) — the denominator of the proxy stage's
    #: "fraction actually evaluated" metric.
    proposed: int = 0
    #: Feasible candidates dropped by the zero-cost proxy screen.
    screened: int = 0


@dataclass
class SearchSession:
    """The full mutable state of one sweep, separable from the searcher.

    Everything trajectory-determining lives here (RNG, memo cache, searcher
    phase state, the result under construction), so the fabric can snapshot
    a session into a checkpoint and rebuild it bit-for-bit in a fresh
    process.
    """

    rng: np.random.Generator
    result: BlackBoxResult
    state: Dict[str, Any]
    sweep_seed: int
    cache: Dict[Genome, Optional[float]] = field(default_factory=dict)
    rejected: int = 0
    next_index: int = 0
    best_genome: Optional[Genome] = None
    finished: bool = False


class _Dup:
    """Marker: this slot repeats an earlier proposal of the same generation."""

    __slots__ = ("position",)

    def __init__(self, position: int) -> None:
        self.position = position


_PENDING = object()


class _BlackBoxSearch:
    """Shared bookkeeping: feasibility filtering, memoized evaluation,
    bounded-retry degradation for failing oracles.

    A candidate whose ``evaluate`` call raises is retried up to
    ``max_eval_retries`` times on the :func:`~repro.resilience.retry_after`
    schedule (``retry_backoff_s``, doubling per attempt); if it keeps
    failing it is recorded in ``result.failures`` and treated as
    infeasible, so one bad candidate cannot kill a long sweep.

    ``sleeper`` is the backoff wait function — ``time.sleep`` by default,
    injectable (e.g. a :class:`repro.serve.clock.FakeClock`'s ``sleep``)
    so retry tests assert the exact backoff schedule without real delays.

    Keyword-only knobs added by the search fabric:

    ``generation_size``
        Candidates proposed per generation. The default 1 reproduces the
        historical serial loop draw-for-draw; larger values expose
        parallelism (a generation is dispatched as one batch).
    ``evaluator``
        An object with ``submit_generation(requests, space, evaluate) ->
        [EvalOutcome]`` (see :class:`repro.nas.fabric.FabricEvaluator`).
        None (default) evaluates inline via :func:`run_eval_request`.
    ``screen``
        Optional zero-cost proxy hook ``screen(session, [(genome, arch)])
        -> [bool]`` applied to the feasible members of each generation
        before dispatch; dropped candidates are cached as infeasible.
    ``sweep_seed``
        Override for the per-candidate stream seed (defaults to a value
        derived from the ``rng`` argument of :meth:`run`).
    """

    def __init__(
        self,
        space: DSCNNSearchSpace,
        budget: ResourceBudget,
        max_evaluations: int = 16,
        max_eval_retries: int = 2,
        retry_backoff_s: float = 0.0,
        sleeper: Callable[[float], None] = time.sleep,
        *,
        generation_size: int = 1,
        evaluator: Optional[Any] = None,
        screen: Optional[Callable] = None,
        sweep_seed: Optional[int] = None,
    ) -> None:
        if max_evaluations < 1:
            raise SearchError("need at least one evaluation")
        if max_eval_retries < 0:
            raise SearchError("max_eval_retries must be >= 0")
        if generation_size < 1:
            raise SearchError("generation_size must be >= 1")
        self.space = space
        self.budget = budget
        self.max_evaluations = max_evaluations
        self.max_eval_retries = max_eval_retries
        self.retry_backoff_s = retry_backoff_s
        self.generation_size = generation_size
        self.sweep_seed = sweep_seed
        self._sleep = sleeper
        self._evaluator = evaluator
        self._screen = screen

    # --- session lifecycle --------------------------------------------
    def start(self, rng: RngLike = 0) -> SearchSession:
        seed = self.sweep_seed if self.sweep_seed is not None else derive_sweep_seed(rng)
        return SearchSession(
            rng=new_rng(rng),
            result=BlackBoxResult(
                best_arch=None, best_fitness=-np.inf, evaluations=0, rejected_infeasible=0
            ),
            state=self._initial_state(),
            sweep_seed=seed,
        )

    def active(self, session: SearchSession) -> bool:
        """Whether another generation may still run."""
        return (
            not session.finished
            and session.result.evaluations < self.max_evaluations
        )

    def step(self, session: SearchSession, evaluate: Callable) -> bool:
        """Run one generation: propose, filter, evaluate, update.

        Returns False when the sweep is over (budget spent, attempts
        exhausted, or the searcher has nothing left to propose).
        """
        if not self.active(session):
            return False
        genomes, dispatch_cap = self._propose(session)
        if not genomes:
            session.finished = True
            return False
        evaluated = self._evaluate_generation(session, genomes, evaluate, dispatch_cap)
        self._update(session, evaluated)
        return True

    def finish(self, session: SearchSession) -> BlackBoxResult:
        session.result.rejected_infeasible = session.rejected
        return session.result

    def run(self, evaluate: Callable, rng: RngLike = 0) -> BlackBoxResult:
        session = self.start(rng)
        while self.step(session, evaluate):
            pass
        return self.finish(session)

    # --- searcher-specific hooks --------------------------------------
    def _initial_state(self) -> Dict[str, Any]:
        raise NotImplementedError

    def _propose(self, session: SearchSession) -> Tuple[List[Genome], Optional[int]]:
        """(proposals, dispatch_cap): the generation's candidate genomes and
        an optional cap on how many may be dispatched (None = all)."""
        raise NotImplementedError

    def _update(self, session: SearchSession, evaluated: List[Tuple[Genome, Optional[float]]]) -> None:
        """Fold the generation's (genome, fitness-or-None) pairs back in."""

    # JSON round-trip of the searcher-specific state (fabric checkpoints).
    def _state_to_json(self, state: Dict[str, Any]) -> Dict[str, Any]:
        return dict(state)

    def _state_from_json(self, state: Dict[str, Any]) -> Dict[str, Any]:
        return dict(state)

    # --- the generation engine ----------------------------------------
    def _evaluate_generation(
        self,
        session: SearchSession,
        genomes: List[Genome],
        evaluate: Callable,
        dispatch_cap: Optional[int] = None,
    ) -> List[Tuple[Genome, Optional[float]]]:
        result = session.result
        remaining = self.max_evaluations - result.evaluations
        cap = remaining if dispatch_cap is None else min(int(dispatch_cap), remaining)

        # Phase 1 — resolve each proposal: memo hit, within-generation
        # duplicate, infeasible, or a dispatch candidate. Without a proxy
        # screen the scan is lazy: once the dispatch cap is reached the tail
        # is left untouched (matching the serial searchers, which stop at
        # the first success — the unprocessed genomes stay re-proposable).
        slots: List[List[Any]] = []
        dispatch: List[Tuple[int, Genome, ArchSpec]] = []
        screen_pool: List[Tuple[int, Genome, ArchSpec]] = []
        seen: Dict[Genome, int] = {}
        for genome in genomes:
            if self._screen is None and len(dispatch) >= cap:
                break
            position = len(slots)
            if genome in session.cache:
                obs.incr("nas.blackbox.memo_hits")
                slots.append([genome, session.cache[genome]])
                continue
            if genome in seen:
                slots.append([genome, _Dup(seen[genome])])
                continue
            arch = self.space.to_arch(genome)
            if not feasible(arch, self.budget):
                session.rejected += 1
                obs.incr("nas.blackbox.rejected_infeasible")
                slots.append([genome, None])
                continue
            seen[genome] = position
            slots.append([genome, _PENDING])
            if self._screen is not None:
                screen_pool.append((position, genome, arch))
            else:
                obs.incr("nas.blackbox.feasible")
                dispatch.append((position, genome, arch))
        result.proposed += len(slots)

        # Phase 2 — zero-cost proxy screen over the feasible batch. With a
        # screen installed the whole generation is feasibility-checked first
        # (that *is* the proxy stage's job: cheap scores before expensive
        # evaluations), then only the keepers compete for dispatch slots.
        if self._screen is not None and screen_pool:
            keep_flags = self._screen(
                session, [(genome, arch) for _, genome, arch in screen_pool]
            )
            for (position, genome, arch), keep in zip(screen_pool, keep_flags):
                if not keep:
                    session.cache[genome] = None
                    result.screened += 1
                    obs.incr("fabric.screened")
                    slots[position][1] = None
                elif len(dispatch) < cap:
                    obs.incr("nas.blackbox.feasible")
                    dispatch.append((position, genome, arch))
                else:
                    # Over the cap: not evaluated, not cached — exactly how
                    # the serial loop treats a candidate past the budget.
                    slots[position][1] = None

        # Phase 3 — evaluate the dispatch batch, inline or via the fabric,
        # and merge outcomes in proposal order.
        if dispatch:
            wants_rng = oracle_accepts_rng(evaluate)
            requests = [
                EvalRequest(
                    index=session.next_index + offset,
                    genome=genome,
                    sweep_seed=session.sweep_seed,
                    wants_rng=wants_rng,
                    max_retries=self.max_eval_retries,
                    backoff_s=self.retry_backoff_s,
                )
                for offset, (_, genome, _) in enumerate(dispatch)
            ]
            session.next_index += len(dispatch)
            if self._evaluator is not None:
                outcomes = self._evaluator.submit_generation(requests, self.space, evaluate)
            else:
                outcomes = [
                    run_eval_request(request, self.space, evaluate, sleeper=self._sleep, arch=arch)
                    for request, (_, _, arch) in zip(requests, dispatch)
                ]
            for (position, genome, arch), outcome in zip(dispatch, outcomes):
                self._merge_outcome(session, genome, arch, outcome)
                slots[position][1] = session.cache[genome]

        # Phase 4 — resolve duplicates against their first occurrence.
        evaluated: List[Tuple[Genome, Optional[float]]] = []
        for genome, value in slots:
            if isinstance(value, _Dup):
                value = slots[value.position][1]
            if value is _PENDING:  # kept past the cap but never dispatched
                value = None
            evaluated.append((genome, value))
        return evaluated

    def _merge_outcome(
        self, session: SearchSession, genome: Genome, arch: ArchSpec, outcome: EvalOutcome
    ) -> None:
        result = session.result
        if outcome.fitness is None:
            # Degrade gracefully: record the failure, treat as infeasible
            # (cached so the genome is never re-proposed), keep sweeping.
            result.failures.append(
                EvalFailure(genome=genome, error=outcome.error, attempts=outcome.attempts)
            )
            session.cache[genome] = None
            obs.incr("nas.blackbox.eval_failures")
            return
        fitness = outcome.fitness
        obs.incr("nas.blackbox.evaluations")
        obs.observe("nas.blackbox.fitness", fitness)
        session.cache[genome] = fitness
        result.evaluations += 1
        result.history.append((genome, fitness))
        if fitness > result.best_fitness:
            result.best_fitness = fitness
            result.best_arch = arch
            session.best_genome = genome


class RandomSearch(_BlackBoxSearch):
    """Uniform random sampling of feasible genomes."""

    def _initial_state(self) -> Dict[str, Any]:
        return {"attempts": 0}

    def _propose(self, session: SearchSession) -> Tuple[List[Genome], Optional[int]]:
        state = session.state
        budget = 50 * self.max_evaluations - state["attempts"]
        count = min(self.generation_size, budget)
        if count <= 0:
            return [], None
        state["attempts"] += count
        return [self.space.random_genome(session.rng) for _ in range(count)], None


class EvolutionarySearch(_BlackBoxSearch):
    """MCUNet-style evolutionary search: tournament + mutation + crossover.

    Infeasible offspring are rejected before evaluation, so the evaluation
    budget is only spent on deployable candidates.
    """

    def __init__(
        self,
        space: DSCNNSearchSpace,
        budget: ResourceBudget,
        max_evaluations: int = 16,
        population_size: int = 6,
        mutation_probability: float = 0.7,
        **search_options,
    ) -> None:
        super().__init__(space, budget, max_evaluations, **search_options)
        self.population_size = population_size
        self.mutation_probability = mutation_probability

    def _initial_state(self) -> Dict[str, Any]:
        return {"phase": "bootstrap", "attempts": 0, "population": []}

    def _state_to_json(self, state: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "phase": state["phase"],
            "attempts": state["attempts"],
            "population": [[list(genome), fitness] for genome, fitness in state["population"]],
        }

    def _state_from_json(self, state: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "phase": str(state["phase"]),
            "attempts": int(state["attempts"]),
            "population": [
                (tuple(int(g) for g in genome), float(fitness))
                for genome, fitness in state["population"]
            ],
        }

    def _propose(self, session: SearchSession) -> Tuple[List[Genome], Optional[int]]:
        state = session.state
        population: List[Tuple[Genome, float]] = state["population"]
        rng = session.rng
        if state["phase"] == "bootstrap":
            if len(population) >= self.population_size or state["attempts"] >= 200:
                state["phase"] = "evolve"
            else:
                count = min(
                    self.generation_size,
                    200 - state["attempts"],
                    self.population_size - len(population),
                )
                state["attempts"] += count
                return [self.space.random_genome(rng) for _ in range(count)], None
        # Evolve proposals share the attempt budget RandomSearch uses: once
        # every child is a memo hit or infeasible, nothing else would stop it.
        count = min(self.generation_size, 50 * self.max_evaluations - state["attempts"])
        if not population or count <= 0:
            return [], None
        state["attempts"] += count

        def pick() -> Genome:
            contenders = [population[int(rng.integers(0, len(population)))] for _ in range(2)]
            return max(contenders, key=lambda item: item[1])[0]

        children = []
        for _ in range(count):
            if rng.random() < self.mutation_probability or len(population) < 2:
                children.append(self.space.mutate(pick(), rng))
            else:
                children.append(self.space.crossover(pick(), pick(), rng))
        return children, None

    def _update(self, session: SearchSession, evaluated) -> None:
        state = session.state
        population: List[Tuple[Genome, float]] = state["population"]
        if state["phase"] == "bootstrap":
            for genome, fitness in evaluated:
                if fitness is not None:
                    population.append((genome, fitness))
            return
        for genome, fitness in evaluated:
            if fitness is not None:
                population.append((genome, fitness))
                population.sort(key=lambda item: -item[1])
                del population[self.population_size :]


class BayesianSearch(_BlackBoxSearch):
    """SpArSe-style Bayesian optimization with a GP surrogate.

    A Gaussian-process regressor (RBF kernel over the width-encoded genome)
    models fitness; candidates are proposed by maximizing expected
    improvement over a random pool, subject to the feasibility filter.

    In generation mode each GP fit proposes the EI-ranked pool and
    dispatches up to ``generation_size`` feasible candidates from it. A
    dispatched candidate whose evaluation *fails* consumes its slot (the
    next generation re-fits the surrogate), where the old serial loop kept
    trying the same pool — a deliberate simplification so the generation's
    work list is fixed before any result arrives, which distributed
    execution requires.
    """

    def __init__(
        self,
        space: DSCNNSearchSpace,
        budget: ResourceBudget,
        max_evaluations: int = 16,
        pool_size: int = 64,
        length_scale: float = 32.0,
        noise: float = 1e-3,
        **search_options,
    ) -> None:
        super().__init__(space, budget, max_evaluations, **search_options)
        self.pool_size = pool_size
        self.length_scale = length_scale
        self.noise = noise

    # --- GP machinery -------------------------------------------------
    def _kernel(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        sq = ((a[:, None, :] - b[None, :, :]) ** 2).sum(-1)
        return np.exp(-0.5 * sq / self.length_scale**2)

    def _posterior(
        self, x_train: np.ndarray, y_train: np.ndarray, x_query: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        k_tt = self._kernel(x_train, x_train) + self.noise * np.eye(len(x_train))
        k_qt = self._kernel(x_query, x_train)
        solve = np.linalg.solve(k_tt, np.eye(len(x_train)))
        mean = k_qt @ solve @ y_train
        var = 1.0 - np.einsum("ij,jk,ik->i", k_qt, solve, k_qt)
        return mean, np.maximum(var, 1e-9)

    @staticmethod
    def _expected_improvement(mean: np.ndarray, var: np.ndarray, best: float) -> np.ndarray:
        from scipy.stats import norm

        std = np.sqrt(var)
        z = (mean - best) / std
        return (mean - best) * norm.cdf(z) + std * norm.pdf(z)

    # --- search loop ----------------------------------------------------
    def _initial_state(self) -> Dict[str, Any]:
        return {"phase": "bootstrap", "attempts": 0}

    def _propose(self, session: SearchSession) -> Tuple[List[Genome], Optional[int]]:
        state = session.state
        result = session.result
        rng = session.rng
        if state["phase"] == "bootstrap":
            bootstrap = max(2, self.max_evaluations // 4)
            if result.evaluations >= bootstrap or state["attempts"] >= 200:
                state["phase"] = "model"
            else:
                count = min(self.generation_size, 200 - state["attempts"])
                state["attempts"] += count
                return [self.space.random_genome(rng) for _ in range(count)], None
        if not result.history:
            return [], None
        x_train = np.stack([self.space.encode(g) for g, _ in result.history])
        y_train = np.array([f for _, f in result.history])
        y_mean, y_std = y_train.mean(), y_train.std() + 1e-9
        y_norm = (y_train - y_mean) / y_std

        pool = [self.space.random_genome(rng) for _ in range(self.pool_size)]
        pool += [self.space.mutate(g, rng) for g, _ in result.history]
        pool = [g for g in pool if g not in session.cache]
        if not pool:
            return [], None
        x_pool = np.stack([self.space.encode(g) for g in pool])
        mean, var = self._posterior(x_train, y_norm, x_pool)
        ei = self._expected_improvement(mean, var, y_norm.max())
        # EI-ranked pool; the engine walks it until generation_size
        # candidates have been dispatched (infeasible ones cost nothing).
        ordered = [pool[int(idx)] for idx in np.argsort(-ei)]
        return ordered, self.generation_size

    def _update(self, session: SearchSession, evaluated) -> None:
        if session.state["phase"] != "model":
            return
        if not any(fitness is not None for _, fitness in evaluated):
            # The whole EI pool (or this generation's dispatches) produced
            # nothing: the model has no new information, stop the sweep.
            session.finished = True

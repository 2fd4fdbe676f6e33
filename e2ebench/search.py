"""The ``nas_sweep`` workload: a seeded RandomSearch through ``run_sweep``.

Two fork-pool workers, the default zero-cost proxy screen and
checkpointing (with its result journal) on; ``MiniTaskOracle`` trains and
scores every dispatched candidate. The checkpoint and journal live under
the benchmark's own ignored ``out/`` directory and are removed afterwards.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List

from common import OUT_DIR, Tracer, log, peak_rss_mb, percentile, ratio, wrap_callable
from reference import arch_params, front_problems, hypervolume_2d

WORKERS = 2
GENERATION_SIZE = 8
#: Dispatched candidates per second of ``--seconds``; fixes the budget.
EVALUATIONS_PER_SECOND = 5.5
OPS_CAP = 4_000_000


def _space_and_budget():
    from repro.nas.blackbox import DSCNNSearchSpace
    from repro.nas.budgets import ResourceBudget

    space = DSCNNSearchSpace(
        input_shape=(16, 8, 1), num_classes=4, width_options=(8, 16, 24, 32),
        num_blocks=4, stem_kernel=(4, 4), stem_stride=(2, 2),
    )
    budget = ResourceBudget(params=60_000, activation_bytes=40_000, ops=OPS_CAP)
    return space, budget


class _TracedExecutor:
    """The executor's per-generation ``run``, wrapped in a span."""

    def __init__(self, executor, tracer: Tracer) -> None:
        self._executor = executor
        self._tracer = tracer
        self.workers = executor.workers

    def run(self, requests, space, evaluate, broadcast=None):
        indices = [request.index for request in requests]
        with self._tracer.span("nas.executor_run", dispatch=indices):
            return self._executor.run(requests, space, evaluate, broadcast)

    def close(self) -> None:
        self._executor.close()


class _TracedScreen:
    """The proxy-screen callable, wrapped in a span."""

    def __init__(self, screen, tracer: Tracer) -> None:
        self._screen = screen
        self._tracer = tracer

    def __call__(self, session, candidates):
        with self._tracer.span("nas.screen", next_dispatch=session.next_index,
                               candidates=len(candidates)):
            return self._screen(session, candidates)


def run(workload: str, seed: int, seconds: float, tracing: bool) -> Dict:
    import repro.obs as obs
    from repro.nas.blackbox import RandomSearch, candidate_rng
    from repro.nas.budgets import profile_cache_info
    from repro.nas.fabric import MiniTaskOracle, run_sweep
    from repro.nas.fabric.executor import MultiprocessExecutor
    from repro.nas.fabric.sweep import ResultJournal
    from repro.nas.proxies import ProxyScreen
    from repro.resilience.checkpoint import CheckpointConfig

    from common import seconds_since_process_start

    tracer = Tracer()
    if tracing:
        wrap_callable(tracer, ResultJournal, "append", "resilience.journal_append",
                      attrs_of=lambda args, kwargs: {"dispatch": args[1].index})
        obs.enable()
        tracer.active = True

    space, budget = _space_and_budget()
    evaluations = max(1, int(round(EVALUATIONS_PER_SECOND * seconds)))
    searcher = RandomSearch(space, budget, max_evaluations=evaluations,
                            generation_size=GENERATION_SIZE)
    oracle = MiniTaskOracle()
    os.makedirs(OUT_DIR, exist_ok=True)
    checkpoint_path = os.path.join(OUT_DIR, f"sweep-{os.getpid()}.ckpt")
    journal_path = checkpoint_path + ".journal"
    checkpoint = CheckpointConfig(path=checkpoint_path, resume=False)
    # One call configuration for both modes: the wrappers record nothing
    # while the tracer is inactive. The pool forks inside the first
    # generation, so its start-up lands in the sweep.
    executor = _TracedExecutor(MultiprocessExecutor(WORKERS), tracer)
    screen = _TracedScreen(ProxyScreen(seed=seed), tracer)
    setup_s = seconds_since_process_start()
    log(f"{workload}: set-up {setup_s:.3f} s, budget {evaluations} evaluations")

    try:
        start = time.perf_counter()
        with tracer.span("nas.run_sweep"):
            sweep = run_sweep(searcher, oracle, rng=seed, executor=executor, proxy=screen,
                              checkpoint=checkpoint)
        executor.close()  # joins the workers: part of the sweep's wall time
        sweep_s = time.perf_counter() - start
        rss_mb = peak_rss_mb()  # the pool's workers are reaped by now
        cache_info = profile_cache_info()
        journal = _read_journal(journal_path)
    finally:
        executor.close()  # idempotent; stops the pool on every exit path
        for path in (checkpoint_path, journal_path):
            if os.path.exists(path):
                os.remove(path)

    result = sweep.result
    durations_ms = [duration * 1e3 for generation in sweep.timeline
                    for _, duration in generation]
    metrics = {
        "setup_s": (setup_s, "s"),
        "latency_p50_ms": (percentile(durations_ms, 50), "ms"),
        "latency_p90_ms": (percentile(durations_ms, 90), "ms"),
        "throughput_per_s": (sweep.evaluated / sweep_s, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    points = [(fitness, _profile(space, genome).ops) for genome, fitness in result.history]
    hypervolume = hypervolume_2d(points, OPS_CAP)
    log(f"{workload}: {sweep.evaluated} evaluations in {sweep_s:.2f} s "
        f"({sweep.generations} generations), candidate p50 "
        f"{metrics['latency_p50_ms'][0]:.1f} ms p90 {metrics['latency_p90_ms'][0]:.1f} ms, "
        f"front {len(sweep.front)}, hypervolume {hypervolume:.4f}, rss {rss_mb:.0f} MB")

    # --- checks (after the timed sweep) ----------------------------------
    failed, problems = len(result.failures), []
    if result.evaluations != evaluations:
        problems.append(f"{result.evaluations} evaluations, budget {evaluations}")
    if any(not (0.0 <= fitness <= 1.0) for _, fitness in result.history):
        problems.append("a fitness lies outside [0, 1]")
    indices = [record["index"] for record in journal]
    if len(journal) != sweep.evaluated or sorted(indices) != list(range(sweep.evaluated)):
        problems.append(f"journal holds {len(journal)} lines for {sweep.evaluated} dispatches "
                        f"({len(set(indices))} distinct indices)")
    evaluated = [(str(genome), fitness, _costs(space, genome))
                 for genome, fitness in result.history]
    front = [(point.name, point.score, tuple(point.costs)) for point in sweep.front]
    problems += front_problems(front, evaluated)

    genome_of = {str(genome): genome for genome, _ in result.history}
    fitness_of = {str(genome): fitness for genome, fitness in result.history}

    mismatched: Dict[str, float] = {}  # front member -> a differing re-evaluation

    def reevaluate() -> float:
        begin = time.perf_counter()
        for point in sweep.front:
            genome = genome_of[point.name]
            arch = space.to_arch(genome)
            again = oracle(arch, candidate_rng(seed, sweep.eval_index[genome]))
            if again != fitness_of[point.name]:
                mismatched[point.name] = again
        return time.perf_counter() - begin

    # The traced run repeats the re-evaluation with tracing off and on,
    # alternated so that warm-up does not favour either side: the pairs
    # price tracing. Every pass is checked.
    totals = {False: 0.0, True: 0.0}
    for traced in ((False, True, True, False) if tracing else (False,)):
        tracer.active = traced
        (obs.enable if traced else obs.disable)()
        with tracer.span("nas.reevaluate"):
            totals[traced] += reevaluate()
    tracer.active = False
    obs.disable()
    failed += len(mismatched)
    problems += [f"re-evaluating {name} gave {again!r}, recorded {fitness_of[name]!r}"
                 for name, again in mismatched.items()]
    layer: Dict = {}
    if tracing:
        layer = _layer_metrics(tracer, sweep, result, sweep_s, durations_ms, hypervolume,
                               cache_info, totals[True] / totals[False])
    for point in sweep.front:
        params = arch_params(space.to_arch(genome_of[point.name]))
        if params != int(point.costs[0]):
            problems.append(f"{point.name}: {params} params recomputed, program reports "
                            f"{point.costs[0]}")
    return {
        "attempted": sweep.evaluated,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "layer": layer,
        "tracer": tracer,
    }


def _profile(space, genome):
    from repro.nas.budgets import resource_profile

    return resource_profile(space.to_arch(genome), bits=8)


def _costs(space, genome):
    profile = _profile(space, genome)
    return (float(profile.params), float(profile.activation_bytes), float(profile.ops))


def _read_journal(path: str) -> List[Dict]:
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _layer_metrics(tracer, sweep, result, sweep_s, durations_ms, hypervolume, cache_info,
                   overhead) -> Dict:
    eval_s = sum(durations_ms) / 1e3
    executor_s = tracer.total("nas.executor_run")
    proxy_s = tracer.total("nas.screen")
    appends = tracer.named("resilience.journal_append")
    return {
        "nas.sweep_s": (sweep_s, "s"),
        "nas.front_hypervolume": (hypervolume, "acc.Mops"),
        "nas.proxy_s": (proxy_s, "s"),
        "nas.eval_s": (eval_s, "s"),
        "nas.pool_busy_ratio": (ratio(eval_s, WORKERS * executor_s), "ratio"),
        "nas.coord_s": (tracer.total("nas.run_sweep") - executor_s - proxy_s, "s"),
        "nas.proposed": (result.proposed, "count"),
        "nas.screened": (result.screened, "count"),
        "nas.evaluated": (sweep.evaluated, "count"),
        "nas.eval_fraction": (ratio(sweep.evaluated, result.proposed), "ratio"),
        "nas.profile_cache_hit_rate": (cache_info.hit_rate, "ratio"),
        "resilience.journal_append_ms": (
            ratio(sum(s.duration for s in appends) * 1e3, len(appends)), "ms"),
        "obs.trace_overhead_ratio": (overhead, "ratio"),
    }

"""Distributed NAS search fabric: the determinism and crash-recovery harness.

The contract under test (docs/search_fabric.md): for the same searcher
settings, seed and oracle, a fabric sweep produces a **bitwise identical**
result and Pareto front regardless of

* how many workers evaluate it (serial, permuted serial, N-process pool),
* the order evaluations *complete* in (only dispatch order matters),
* how many times the fleet is killed and resumed mid-sweep.

The enabling invariant is per-candidate seeding: every candidate's RNG
stream is a pure function of ``(sweep seed, dispatch index)``, never a draw
from a shared generator whose position depends on scheduling.
"""

import json
import os

import numpy as np
import pytest

from repro import obs
from repro.errors import CheckpointError
from repro.nas import proxies
from repro.nas.blackbox import (
    DSCNNSearchSpace,
    EvalOutcome,
    EvalRequest,
    EvolutionarySearch,
    RandomSearch,
    candidate_rng,
    derive_sweep_seed,
    run_eval_request,
)
from repro.nas.budgets import ResourceBudget, clear_profile_cache, resource_profile
from repro.nas.fabric import (
    MiniTaskOracle,
    MultiprocessExecutor,
    ResultJournal,
    SerialExecutor,
    SharedResultStore,
    run_sweep,
    simulate_schedule,
)
from repro.nas.fabric import executor as executor_module
from repro.nas.fabric.executor import pool_map
from repro.nas.fabric.store import (
    SHARED_CACHES,
    cache_key_snapshot,
    collect_cache_delta,
    install_cache_delta,
)
from repro.resilience.checkpoint import CheckpointConfig
from repro.resilience.faults import ChaosPlan, ChaosSpec, InjectedFault, inject

pytestmark = [pytest.mark.tier1, pytest.mark.fabric]

#: Worker count for the multiprocess tests (the env knob the docs describe).
WORKERS = int(os.environ.get("REPRO_FABRIC_WORKERS", "4"))

SPACE = DSCNNSearchSpace(
    input_shape=(16, 8, 1), num_classes=4, width_options=(8, 16, 24),
    num_blocks=3, stem_kernel=(4, 4), stem_stride=(2, 2),
)
BUDGET = ResourceBudget(params=60_000, activation_bytes=40_000, ops=4_000_000)


# ----------------------------------------------------------------------
# Oracles (module-level so the fork-pool executor can pickle them)
# ----------------------------------------------------------------------
def param_oracle(arch, rng):
    """Cheap deterministic oracle: profile-derived score + one seeded draw.

    The ``rng.random()`` term is the point: it makes the fitness depend on
    the candidate's stream, so any seeding bug (order-dependent spawning,
    retries resuming mid-stream) shows up as a fitness diff, not a flake.
    """
    return float(resource_profile(arch).params) / 1e5 + float(rng.random())


def flaky_param_oracle(arch, rng):
    """Deterministically fails for a fixed subset of geometries.

    Failure is a property of the *candidate*, not of the attempt or the
    worker — so every executor sees the same EvalFailures with the same
    attempt counts, and parity can assert on them bitwise.
    """
    params = resource_profile(arch).params
    if params % 3 == 0:
        raise ValueError(f"unlucky geometry ({params} params)")
    return float(params) / 1e5 + float(rng.random())


CALL_LOG = []


def logging_param_oracle(arch, rng):
    """param_oracle that records which geometry it was called for."""
    CALL_LOG.append(repr(arch.layers))
    return param_oracle(arch, rng)


def pid_of(item):
    """(item, pid of the process that ran it): where pool_map put the call."""
    return item, os.getpid()


def lending_in_worker(_):
    """(pid, nested pids) seen from a pool worker: its lent pool must be gone.

    The nested ``pool_map`` runs only when no pool is lent in the worker; a
    worker that inherited one would otherwise block on the parent's queues.
    """
    if executor_module._LENDER is not None:
        return os.getpid(), None
    return os.getpid(), [pid for _, pid in pool_map(pid_of, [0, 1])]


def open_pool(executor):
    """Open ``executor``'s pool the way a sweep does: with a first ``run``."""
    genome = SPACE.random_genome(np.random.default_rng(0))
    request = EvalRequest(index=0, genome=genome, sweep_seed=1, wants_rng=True)
    executor.run([request], SPACE, param_oracle)


def worker_pids(executor):
    return {process.pid for process in executor._pool._pool}


def make_searcher(max_evaluations=8):
    return EvolutionarySearch(
        SPACE, BUDGET, max_evaluations=max_evaluations, population_size=4,
        generation_size=4,
    )


def sig(sweep):
    """Everything the bitwise-identity contract covers, as one tuple."""
    result = sweep.result
    return (
        result.evaluations,
        result.proposed,
        result.best_fitness,
        tuple(result.history),
        tuple((f.genome, f.error, f.attempts) for f in result.failures),
        tuple((p.name, p.score, p.costs) for p in sweep.front),
    )


# ----------------------------------------------------------------------
# Per-candidate seeding: the invariant everything else rests on
# ----------------------------------------------------------------------
class TestCandidateSeeding:
    def test_streams_pinned(self):
        # Regression pin: these exact values are what (seed=123, index) must
        # produce forever — a change here silently breaks every recorded
        # sweep's reproducibility, so the assertion is on raw draws.
        expected = {
            0: [0.30667173728665753, 0.17110903667368538, 0.32694909327616295],
            1: [0.7771631424527187, 0.23787130085493213, 0.42018144544151026],
            7: [0.2157494638121462, 0.5879675013814348, 0.06502885413326143],
        }
        for index, values in expected.items():
            stream = candidate_rng(123, index)
            assert [float(stream.random()) for _ in range(3)] == values

    def test_stream_is_pure_function_of_seed_and_index(self):
        # Creating (or draining) other candidates' streams must not shift
        # candidate 3's — this is exactly the bug class where workers share
        # a generator and fitness depends on completion order.
        lone = candidate_rng(9, 3).random(5)
        for index in (0, 1, 2, 4):
            candidate_rng(9, index).random(100)
        crowded = candidate_rng(9, 3).random(5)
        np.testing.assert_array_equal(lone, crowded)
        assert candidate_rng(9, 3).random() != candidate_rng(9, 4).random()
        assert candidate_rng(8, 3).random() != candidate_rng(9, 3).random()

    def test_derive_sweep_seed(self):
        assert derive_sweep_seed(42) == 42
        assert derive_sweep_seed(None) == 0
        generator = np.random.default_rng(5)
        first = derive_sweep_seed(generator)
        # Deriving is stable and must NOT consume a draw from the caller.
        assert derive_sweep_seed(generator) == first
        assert generator.random() == np.random.default_rng(5).random()

    def test_retried_success_is_bitwise_equal(self):
        # A candidate that fails twice then succeeds gets the SAME stream on
        # the successful attempt as a candidate that succeeds immediately.
        genome = SPACE.random_genome(np.random.default_rng(0))
        request = EvalRequest(index=4, genome=genome, sweep_seed=11,
                              wants_rng=True, max_retries=2)
        attempts = {"n": 0}

        def fails_twice(arch, rng):
            attempts["n"] += 1
            if attempts["n"] <= 2:
                raise RuntimeError("transient")
            return param_oracle(arch, rng)

        clean = run_eval_request(request, SPACE, param_oracle)
        flaky = run_eval_request(request, SPACE, fails_twice)
        assert flaky.attempts == 3 and clean.attempts == 1
        assert flaky.fitness == clean.fitness

    def test_retries_exhausted_degrade_to_failure(self):
        genome = SPACE.random_genome(np.random.default_rng(0))
        request = EvalRequest(index=0, genome=genome, sweep_seed=11,
                              wants_rng=True, max_retries=1, backoff_s=0.5)
        sleeps = []

        def always_fails(arch, rng):
            raise ValueError("doomed")

        outcome = run_eval_request(request, SPACE, always_fails, sleeper=sleeps.append)
        assert outcome.fitness is None
        assert outcome.error == "ValueError: doomed"
        assert outcome.attempts == 2
        assert sleeps == [0.5]  # backoff_s * 2**0 between the two attempts


# ----------------------------------------------------------------------
# Executor parity: serial == permuted serial == N-process pool
# ----------------------------------------------------------------------
class TestExecutorParity:
    def test_permuted_execution_order_is_invisible(self):
        baseline = run_sweep(make_searcher(), param_oracle, rng=5)
        permuted = run_sweep(make_searcher(), param_oracle, rng=5,
                             executor=SerialExecutor(permutation_seed=99))
        assert sig(baseline) == sig(permuted)

    def test_multiprocess_matches_serial(self):
        baseline = run_sweep(make_searcher(), param_oracle, rng=5)
        clear_profile_cache()
        sharded = run_sweep(make_searcher(), param_oracle, rng=5, workers=WORKERS)
        assert sharded.workers == WORKERS
        assert sig(baseline) == sig(sharded)

    def test_parity_holds_through_eval_failures(self):
        # The flaky oracle fails a fixed subset of geometries every attempt:
        # all three executors must record identical EvalFailures (genome,
        # error text, attempt count) and identical surviving history.
        baseline = run_sweep(make_searcher(), flaky_param_oracle, rng=5)
        assert baseline.result.failures, "seed must exercise the failure path"
        permuted = run_sweep(make_searcher(), flaky_param_oracle, rng=5,
                             executor=SerialExecutor(permutation_seed=31))
        clear_profile_cache()
        sharded = run_sweep(make_searcher(), flaky_param_oracle, rng=5,
                            workers=WORKERS)
        assert sig(baseline) == sig(permuted) == sig(sharded)

    def test_outcomes_return_in_request_order(self):
        # Directly at the executor protocol: even with execution order
        # shuffled, outcomes[i] is the result of requests[i].
        rng = np.random.default_rng(2)
        genomes = [SPACE.random_genome(rng) for _ in range(6)]
        requests = [
            EvalRequest(index=i, genome=g, sweep_seed=77, wants_rng=True)
            for i, g in enumerate(genomes)
        ]
        executor = SerialExecutor(permutation_seed=13)
        outcomes = executor.run(requests, SPACE, param_oracle)
        for request, outcome in zip(requests, outcomes):
            expected = param_oracle(
                SPACE.to_arch(request.genome),
                candidate_rng(request.sweep_seed, request.index),
            )
            assert outcome.fitness == expected


# ----------------------------------------------------------------------
# Pool lending: pool_map borrows the open, clean pool or runs inline
# ----------------------------------------------------------------------
class TestPoolLending:
    def test_inline_without_an_open_pool(self):
        parent = os.getpid()
        assert pool_map(pid_of, ["a", "b"]) == [("a", parent), ("b", parent)]
        SerialExecutor().run([], SPACE, param_oracle)
        assert pool_map(pid_of, [1]) == [(1, parent)]
        executor = MultiprocessExecutor(2)
        # Constructed, but the pool opens only with the first run.
        assert pool_map(pid_of, [1, 2]) == [(1, parent), (2, parent)]
        executor.close()
        assert pool_map(pid_of, []) == []

    def test_runs_on_a_clean_open_pool_in_item_order(self):
        with MultiprocessExecutor(2) as executor:
            open_pool(executor)
            results = pool_map(pid_of, list(range(6)))
            assert [item for item, _ in results] == list(range(6))
            pids = {pid for _, pid in results}
            assert os.getpid() not in pids
            assert pids <= worker_pids(executor)

    @pytest.mark.parametrize("shutdown", ["close", "terminate"])
    def test_inline_again_after_shutdown(self, shutdown):
        executor = MultiprocessExecutor(2)
        open_pool(executor)
        assert os.getpid() not in {pid for _, pid in pool_map(pid_of, [0, 1])}
        getattr(executor, shutdown)()
        assert executor_module._LENDER is None
        assert pool_map(pid_of, [0, 1]) == [(0, os.getpid()), (1, os.getpid())]

    def test_inline_after_a_deadline_miss(self):
        # Candidate 1's first dispatch hangs past the deadline and is
        # requeued: the pool still owns the hung worker, so lending stops
        # while that pool stays open — nothing may wait on that worker.
        rng = np.random.default_rng(0)
        requests = [EvalRequest(index=i, genome=SPACE.random_genome(rng),
                                sweep_seed=0, wants_rng=True) for i in range(3)]
        plan = ChaosPlan(ChaosSpec("executor_task", "hang", keys=(1,), at=1,
                                   times=1, duration_s=3.0))
        with MultiprocessExecutor(2, task_timeout_s=0.5, max_requeues=1) as executor:
            with inject(plan):
                outcomes = executor.run(requests, SPACE, param_oracle)
            assert executor.requeues == 1 and all(o.fitness is not None for o in outcomes)
            assert executor._pool is not None and executor._dirty
            assert pool_map(pid_of, [0, 1, 2]) == [(i, os.getpid()) for i in range(3)]

    def test_forked_workers_see_no_lent_pool(self):
        # The second pool forks while the first is lent: its workers inherit
        # that reference and must drop it, so pool_map inside them is inline.
        with MultiprocessExecutor(2) as first, MultiprocessExecutor(2) as second:
            open_pool(first)
            open_pool(second)
            for pid, nested in pool_map(lending_in_worker, [0, 1, 2, 3]):
                assert pid in worker_pids(second)
                assert nested == [pid, pid]


# ----------------------------------------------------------------------
# Shared result store: memo caches travel between workers
# ----------------------------------------------------------------------
class TestSharedStore:
    def test_delta_roundtrip(self):
        clear_profile_cache()
        baseline = cache_key_snapshot()
        arch = SPACE.to_arch(SPACE.random_genome(np.random.default_rng(3)))
        resource_profile(arch)
        delta = collect_cache_delta(baseline)
        assert delta.get("resource_profile"), "profiling must produce a delta"
        # Installing into a cache that already has the entries is a no-op...
        assert install_cache_delta(delta) == 0
        # ...and into a cleared cache installs exactly the delta.
        clear_profile_cache()
        assert install_cache_delta(delta) == len(delta["resource_profile"])
        assert SHARED_CACHES["resource_profile"].info().entries >= 1

    def test_store_accounting(self):
        clear_profile_cache()
        store = SharedResultStore()
        snapshot = store.broadcast()
        assert store.broadcasts == 1 and snapshot["resource_profile"] == []
        arch = SPACE.to_arch(SPACE.random_genome(np.random.default_rng(3)))
        resource_profile(arch)
        delta = collect_cache_delta(cache_key_snapshot())
        assert delta == {}  # nothing new since the post-profile snapshot
        clear_profile_cache()
        installed = store.merge(
            {"resource_profile": store.broadcast()["resource_profile"]}
        )
        assert installed == 0  # broadcast of the cleared cache is empty

    def test_workers_import_parent_discoveries(self):
        # Serial: one process, the broadcast is already installed -> 0 hits.
        serial = run_sweep(make_searcher(), param_oracle, rng=5)
        assert serial.shared_cache_hits == 0
        # Sharded: the parent profiles geometries during feasibility checks;
        # workers must import those entries instead of re-deriving them.
        clear_profile_cache()
        sharded = run_sweep(make_searcher(), param_oracle, rng=5, workers=WORKERS)
        assert sharded.shared_cache_hits > 0


# ----------------------------------------------------------------------
# Result journal: the crash-consistency ledger
# ----------------------------------------------------------------------
class TestResultJournal:
    def _request(self, index=0, genome=(0, 1, 2)):
        return EvalRequest(index=index, genome=genome, sweep_seed=1)

    def test_roundtrip_success_and_failure(self, tmp_path):
        journal = ResultJournal(str(tmp_path / "run.journal"))
        journal.append(self._request(0), EvalOutcome(fitness=0.75))
        journal.append(
            self._request(1, genome=(2, 2, 2)),
            EvalOutcome(fitness=None, error="ValueError: doomed", attempts=3),
        )
        records = journal.load()
        assert records == [
            {"index": 0, "genome": [0, 1, 2], "fitness": 0.75,
             "error": None, "attempts": 1},
            {"index": 1, "genome": [2, 2, 2], "fitness": None,
             "error": "ValueError: doomed", "attempts": 3},
        ]
        journal.reset()
        assert journal.load() == []

    def test_torn_trailing_line_is_discarded(self, tmp_path):
        path = tmp_path / "run.journal"
        journal = ResultJournal(str(path))
        journal.append(self._request(0), EvalOutcome(fitness=0.5))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"index": 1, "genome": [0, 0')  # crash mid-append
        records = journal.load()
        assert [r["index"] for r in records] == [0]

    def test_missing_file_loads_empty(self, tmp_path):
        assert ResultJournal(str(tmp_path / "absent.journal")).load() == []


# ----------------------------------------------------------------------
# Kill/resume matrix: every fabric boundary, bitwise-identical recovery
# ----------------------------------------------------------------------
class TestFaultResume:
    SITES = [
        ("fabric_enqueue", 2),
        ("fabric_complete", 1),
        ("fabric_complete", 2),
        ("checkpoint_write", 1),
        ("checkpoint_write", 2),
    ]

    def _golden(self):
        CALL_LOG.clear()
        golden = run_sweep(make_searcher(), logging_param_oracle, rng=5)
        calls = list(CALL_LOG)
        return golden, calls

    @pytest.mark.parametrize("site,at", SITES, ids=[f"{s}@{n}" for s, n in SITES])
    def test_kill_resume_is_bitwise_identical(self, tmp_path, site, at):
        golden, golden_calls = self._golden()
        assert len(set(golden_calls)) == len(golden_calls), "golden run memoizes"

        config = CheckpointConfig(path=str(tmp_path / "run.npz"))
        CALL_LOG.clear()
        with inject(ChaosPlan(ChaosSpec(site, at=at))):
            with pytest.raises(InjectedFault):
                run_sweep(make_searcher(), logging_param_oracle, rng=5,
                          checkpoint=config)
        resumed = run_sweep(make_searcher(), logging_param_oracle, rng=5,
                            checkpoint=config)

        assert resumed.resumed is True
        assert sig(resumed) == sig(golden)
        # No candidate is ever evaluated twice across the kill + resume:
        # work the journal captured is replayed, not re-run.
        assert sorted(CALL_LOG) == sorted(golden_calls)
        # Only an enqueue-boundary kill loses nothing to replay (checkpoint
        # and journal agree there); every later boundary must replay.
        assert (resumed.replayed > 0) == (site != "fabric_enqueue")

    def test_resume_of_completed_sweep_is_noop(self, tmp_path):
        config = CheckpointConfig(path=str(tmp_path / "run.npz"))
        first = run_sweep(make_searcher(), param_oracle, rng=5, checkpoint=config)
        again = run_sweep(make_searcher(), param_oracle, rng=5, checkpoint=config)
        assert sig(first) == sig(again)
        assert again.resumed is True
        assert again.evaluated == 0 and again.replayed == 0
        assert again.generations == first.generations

    def test_journal_survives_missing_checkpoint(self, tmp_path):
        # Death after journaling but before the FIRST snapshot: the journal
        # alone must reconstruct the finished work (regression for the
        # lost-journal-before-first-checkpoint bug).
        config = CheckpointConfig(path=str(tmp_path / "run.npz"))
        CALL_LOG.clear()
        finished = run_sweep(make_searcher(), logging_param_oracle, rng=5,
                             checkpoint=config)
        calls = list(CALL_LOG)
        os.remove(config.path)

        CALL_LOG.clear()
        replayed = run_sweep(make_searcher(), logging_param_oracle, rng=5,
                             checkpoint=config)
        assert sig(replayed) == sig(finished)
        assert replayed.resumed is True
        assert replayed.evaluated == 0 and replayed.replayed == len(calls)
        assert CALL_LOG == []  # everything came from the journal

    def test_foreign_journal_fails_loudly(self, tmp_path):
        config = CheckpointConfig(path=str(tmp_path / "run.npz"))
        run_sweep(make_searcher(), param_oracle, rng=5, checkpoint=config)
        os.remove(config.path)
        # A different seed proposes different genomes: replaying this
        # journal would silently mix two runs — it must raise instead.
        with pytest.raises(CheckpointError, match="different run"):
            run_sweep(make_searcher(), param_oracle, rng=6, checkpoint=config)

    def test_resume_false_starts_fresh(self, tmp_path):
        config = CheckpointConfig(path=str(tmp_path / "run.npz"))
        first = run_sweep(make_searcher(), param_oracle, rng=5, checkpoint=config)
        fresh_config = CheckpointConfig(path=config.path, resume=False)
        fresh = run_sweep(make_searcher(), param_oracle, rng=5,
                          checkpoint=fresh_config)
        assert sig(fresh) == sig(first)
        assert fresh.resumed is False
        assert fresh.evaluated == first.evaluated  # really re-ran everything


# ----------------------------------------------------------------------
# Proxy pre-screening riding the fabric, with obs accounting
# ----------------------------------------------------------------------
class TestProxyScreenedSweep:
    def test_screen_reduces_evaluations_deterministically(self):
        searcher = RandomSearch(SPACE, BUDGET, max_evaluations=4, generation_size=4)
        obs.enable()
        screened = run_sweep(searcher, param_oracle, rng=7, proxy=True)
        assert screened.result.screened > 0
        assert screened.result.proposed >= (
            screened.result.evaluations + screened.result.screened
        )
        counters = obs.REGISTRY.as_dict()["counters"]
        assert counters["fabric.evaluated"] == screened.evaluated
        assert counters["fabric.screened"] == screened.result.screened
        # Screening is part of the deterministic contract too.
        repeat = run_sweep(
            RandomSearch(SPACE, BUDGET, max_evaluations=4, generation_size=4),
            param_oracle, rng=7, proxy=True,
        )
        assert sig(screened) == sig(repeat)
        assert repeat.result.screened == screened.result.screened

    def test_pooled_screen_scores_in_workers_bitwise(self, tmp_path, monkeypatch):
        # Reference: the in-process sweep, where the parent scores everything.
        def searcher():
            return RandomSearch(SPACE, BUDGET, max_evaluations=8, generation_size=4)

        serial_screen = proxies.ProxyScreen(seed=7)
        serial = run_sweep(searcher(), flaky_param_oracle, rng=7, proxy=serial_screen)
        clear_profile_cache()

        # Log each grad-norm score's pid, and each executor run, to one
        # file: the patch is installed before the pool forks, so workers
        # inherit it and their lines land in the same file.
        log = tmp_path / "calls.log"

        def record(line):
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")

        grad_norm_score, run = proxies.grad_norm_score, MultiprocessExecutor.run

        def logged_grad_norm_score(arch, rng, batch_size=8):
            record(str(os.getpid()))
            return grad_norm_score(arch, rng, batch_size)

        def logged_run(self, *args, **kwargs):
            record("run")
            return run(self, *args, **kwargs)

        monkeypatch.setattr(proxies, "grad_norm_score", logged_grad_norm_score)
        monkeypatch.setattr(MultiprocessExecutor, "run", logged_run)
        pooled_screen = proxies.ProxyScreen(seed=7)
        pooled = run_sweep(searcher(), flaky_param_oracle, rng=7, proxy=pooled_screen,
                           workers=2)

        lines = log.read_text(encoding="utf-8").split()
        opened = lines.index("run")
        before = lines[:opened]
        after = [line for line in lines[opened:] if line != "run"]
        assert pooled.generations >= 3 and after
        # The first generation screens before the pool exists; once it is
        # open, every candidate is scored in a worker.
        assert set(before) == {str(os.getpid())}
        assert str(os.getpid()) not in after and len(set(after)) <= 2
        assert len(before) + len(after) == pooled_screen.scored_total

        assert pooled.result.failures, "the flaky oracle must fail some candidates"
        assert sig(pooled) == sig(serial)
        assert pooled.result.screened == serial.result.screened > 0
        assert pooled.result.failures == serial.result.failures

        def memo_bits(screen):  # insertion order and exact float bits
            return [(genome, tuple(float(v).hex() for v in pair))
                    for genome, pair in screen._scores.items()]

        assert memo_bits(pooled_screen) == memo_bits(serial_screen)
        assert pooled_screen.scored_total == serial_screen.scored_total

    def test_bad_proxy_argument_rejected(self):
        with pytest.raises(TypeError, match="proxy must be"):
            run_sweep(make_searcher(2), param_oracle, rng=5, proxy=3.14)


# ----------------------------------------------------------------------
# Schedule simulation (what the bench's speedup numbers come from)
# ----------------------------------------------------------------------
class TestScheduleSimulation:
    TIMELINE = [
        [(0, 4.0), (1, 1.0), (2, 1.0), (3, 1.0)],
        [(4, 2.0), (5, 2.0)],
    ]

    def test_single_worker_is_the_serial_sum(self):
        serial = simulate_schedule(self.TIMELINE, workers=1)
        assert serial.makespan_s == pytest.approx(11.0)
        assert serial.completion_s[3] == pytest.approx(7.0)

    def test_generation_barrier_limits_speedup(self):
        # With 4 workers gen 1 is bound by its 4s straggler, gen 2 by one
        # 2s task: the barrier between generations is honored.
        fanned = simulate_schedule(self.TIMELINE, workers=4)
        assert fanned.makespan_s == pytest.approx(6.0)
        assert fanned.completion_s[5] == pytest.approx(6.0)
        assert fanned.time_to([1, 2]) == pytest.approx(1.0)

    def test_more_workers_never_slower(self):
        makespans = [
            simulate_schedule(self.TIMELINE, workers=n).makespan_s
            for n in (1, 2, 4, 8)
        ]
        assert makespans == sorted(makespans, reverse=True)

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            simulate_schedule(self.TIMELINE, workers=0)


# ----------------------------------------------------------------------
# CLI + env knob
# ----------------------------------------------------------------------
class TestFabricCli:
    def test_search_proxy_uses_env_worker_knob(self, capsys, monkeypatch):
        from repro.__main__ import main

        monkeypatch.setenv("REPRO_FABRIC_WORKERS", "2")
        assert main(["search", "--proxy", "--evaluations", "2", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "(2 worker(s))" in out
        assert "fabric sweep:" in out and "best fitness:" in out

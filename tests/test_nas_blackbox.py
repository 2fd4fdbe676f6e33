"""Black-box search baselines: space, feasibility, the three searchers."""

import numpy as np
import pytest

from repro.errors import SearchError
from repro.models.spec import arch_workload, output_shape
from repro.nas import ResourceBudget
from repro.nas.blackbox import (
    SKIP,
    BayesianSearch,
    DSCNNSearchSpace,
    EvolutionarySearch,
    RandomSearch,
    feasible,
)
from repro.utils.rng import new_rng


@pytest.fixture
def space():
    return DSCNNSearchSpace(
        input_shape=(16, 8, 1),
        num_classes=4,
        width_options=(8, 16, 24),
        num_blocks=3,
        stem_kernel=(4, 4),
        stem_stride=(2, 2),
    )


@pytest.fixture
def budget():
    return ResourceBudget(params=10_000, activation_bytes=8_192, ops=2_000_000)


def param_count_fitness(arch):
    """A cheap deterministic oracle: prefer more parameters (capacity)."""
    return float(arch_workload(arch).params)


class TestSearchSpace:
    def test_random_genome_valid(self, space, rng):
        for _ in range(20):
            genome = space.random_genome(rng)
            assert len(genome) == space.genome_length
            assert 0 <= genome[0] < len(space.width_options)
            for gene in genome[1:]:
                assert gene == SKIP or 0 <= gene < len(space.width_options)

    def test_to_arch_shapes(self, space, rng):
        arch = space.to_arch(space.random_genome(rng))
        assert output_shape(arch) == (4,)

    def test_skip_genes_shrink_arch(self, space):
        full = space.to_arch((0, 0, 0, 0))
        skipped = space.to_arch((0, SKIP, SKIP, 0))
        assert arch_workload(skipped).params < arch_workload(full).params

    def test_all_skip_still_valid(self, space):
        arch = space.to_arch((1, SKIP, SKIP, SKIP))
        assert output_shape(arch) == (4,)

    def test_mutate_changes_one_gene(self, space, rng):
        genome = (1, 0, 1, 2)
        changed = 0
        for _ in range(30):
            mutant = space.mutate(genome, rng)
            diff = sum(a != b for a, b in zip(genome, mutant))
            assert diff <= 1
            changed += diff
        assert changed > 0

    def test_crossover_mixes(self, space, rng):
        a = (0, 0, 0, 0)
        b = (2, 2, 2, 2)
        child = space.crossover(a, b, rng)
        assert len(child) == 4
        assert set(child) <= {0, 2}

    def test_encode_vector(self, space):
        vec = space.encode((1, SKIP, 0, 2))
        assert vec.tolist() == [16.0, 0.0, 8.0, 24.0]


class TestFeasibility:
    def test_small_arch_feasible(self, space, budget):
        assert feasible(space.to_arch((0, SKIP, SKIP, 0)), budget)

    def test_params_gate(self, space):
        tight = ResourceBudget(params=100, activation_bytes=1e9)
        assert not feasible(space.to_arch((2, 2, 2, 2)), tight)

    def test_memory_gate(self, space):
        tight = ResourceBudget(params=1e9, activation_bytes=64)
        assert not feasible(space.to_arch((0, SKIP, SKIP, SKIP)), tight)

    def test_ops_gate(self, space):
        tight = ResourceBudget(params=1e9, activation_bytes=1e9, ops=10)
        assert not feasible(space.to_arch((0, SKIP, SKIP, SKIP)), tight)


class TestSearchers:
    @pytest.mark.parametrize(
        "cls", [RandomSearch, EvolutionarySearch, BayesianSearch], ids=lambda c: c.__name__
    )
    def test_finds_feasible_best(self, cls, space, budget):
        searcher = cls(space, budget, max_evaluations=8)
        result = searcher.run(param_count_fitness, rng=0)
        assert result.best_arch is not None
        assert result.evaluations <= 8
        assert feasible(result.best_arch, budget)
        assert result.best_fitness == max(f for _, f in result.history)

    def test_evolution_improves_over_random_start(self, space, budget):
        searcher = EvolutionarySearch(space, budget, max_evaluations=12, population_size=4)
        result = searcher.run(param_count_fitness, rng=1)
        first = result.history[0][1]
        assert result.best_fitness >= first

    def test_infeasible_rejections_counted(self, space):
        tight = ResourceBudget(params=900, activation_bytes=1_024, ops=120_000)
        searcher = RandomSearch(space, tight, max_evaluations=6)
        result = searcher.run(param_count_fitness, rng=2)
        # With so tight a budget most random genomes are rejected for free.
        assert result.rejected_infeasible > 0

    def test_memoization_no_duplicate_evaluations(self, space, budget):
        calls = []

        def counting_fitness(arch):
            calls.append(arch.name)
            return param_count_fitness(arch)

        searcher = EvolutionarySearch(space, budget, max_evaluations=10)
        result = searcher.run(counting_fitness, rng=3)
        assert len(calls) == result.evaluations

    def test_evolution_stops_when_the_space_runs_dry(self, space):
        # Only 20 genomes fit this budget, fewer than max_evaluations: once
        # each is evaluated every child is a memo hit or infeasible. The
        # 50 x max_evaluations attempt cap must end the search.
        budget = ResourceBudget(params=60_000, activation_bytes=40_000, ops=4_000_000)
        searcher = EvolutionarySearch(
            space, budget, max_evaluations=60, population_size=4, generation_size=4
        )
        session = searcher.start(0)
        for _ in range(1_000):
            if not searcher.step(session, param_count_fitness):
                break
        assert not searcher.active(session)
        assert session.result.evaluations == 20
        assert session.state["attempts"] == 50 * 60

    def test_zero_budget_rejected(self, space, budget):
        with pytest.raises(SearchError):
            RandomSearch(space, budget, max_evaluations=0)

    def test_bayesian_gp_posterior_sane(self, space, budget):
        searcher = BayesianSearch(space, budget, max_evaluations=4)
        x = np.array([[8.0, 8.0, 8.0, 8.0], [24.0, 24.0, 24.0, 24.0]])
        y = np.array([0.0, 1.0])
        mean, var = searcher._posterior(x, y, x)
        assert np.allclose(mean, y, atol=0.05)  # interpolates training points
        assert (var >= 0).all()
        far = np.array([[200.0, 200.0, 200.0, 200.0]])
        _, far_var = searcher._posterior(x, y, far)
        assert far_var[0] > var.max()  # uncertainty grows away from data


class TestRetryBackoff:
    """The bounded-retry degradation path, with an injected sleeper."""

    def test_default_sleeper_is_time_sleep(self, space, budget):
        import time

        searcher = RandomSearch(space, budget, max_evaluations=4)
        assert searcher._sleep is time.sleep

    def test_backoff_schedule_goes_through_injected_sleeper(self, space, budget):
        sleeps = []
        failures = {"left": 2}

        def flaky_fitness(arch):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise RuntimeError("transient oracle failure")
            return param_count_fitness(arch)

        searcher = RandomSearch(
            space,
            budget,
            max_evaluations=4,
            max_eval_retries=2,
            retry_backoff_s=0.25,
            sleeper=sleeps.append,
        )
        result = searcher.run(flaky_fitness, rng=0)
        # Two failed attempts, then success: exponential schedule, and the
        # recovered candidate still counts as a normal evaluation.
        assert sleeps == [0.25, 0.5]
        assert result.evaluations == 4
        assert not result.failures

    def test_exhausted_retries_record_failure_without_real_sleep(self, space, budget):
        from repro.serve import FakeClock

        clock = FakeClock()

        def always_fails(arch):
            raise RuntimeError("dead oracle")

        searcher = RandomSearch(
            space,
            budget,
            max_evaluations=2,
            max_eval_retries=1,
            retry_backoff_s=1.0,
            sleeper=clock.sleep,
        )
        result = searcher.run(always_fails, rng=0)
        assert result.evaluations == 0
        assert result.failures  # every candidate degraded to a recorded failure
        assert all(f.attempts == 2 for f in result.failures)
        # One backoff sleep per failing candidate, all on the fake clock.
        assert clock.sleeps == [1.0] * len(result.failures)

    def test_zero_backoff_never_sleeps(self, space, budget):
        sleeps = []

        def always_fails(arch):
            raise RuntimeError("dead oracle")

        searcher = RandomSearch(
            space, budget, max_evaluations=2, max_eval_retries=2, sleeper=sleeps.append
        )
        searcher.run(always_fails, rng=1)
        assert sleeps == []

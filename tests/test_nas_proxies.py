"""Zero-cost proxy scores: determinism, pruning safety, predictive rank.

Three contracts (docs/search_fabric.md, "Zero-cost pre-screening"):

* scores are pure functions of ``(proxy seed, genome)`` — independent of
  scoring order, process, or what else was scored first;
* constrained pruning drops exactly the ``feasible()``-rejected candidates,
  never a deployable one;
* the combined proxy rank actually predicts trained accuracy: Spearman
  correlation against the trained objective clears a pinned floor on
  fixed candidate pools (everything is seeded, so the statistic is exact
  and the floor is a regression bar, not a statistical gamble).
"""

import numpy as np
import pytest
from scipy.stats import spearmanr

from repro import obs
from repro.nas import proxies
from repro.nas.blackbox import DSCNNSearchSpace, candidate_rng, feasible
from repro.nas.budgets import ResourceBudget
from repro.nas.fabric import MiniTaskOracle
from repro.nas.proxies import (
    ProxyConfig,
    ProxyScreen,
    constrained_prune,
    grad_norm_score,
    ntk_condition_score,
)
from repro.utils.rng import new_rng, spawn_rng

pytestmark = [pytest.mark.tier1, pytest.mark.fabric]

SPACE = DSCNNSearchSpace(
    input_shape=(16, 8, 1), num_classes=4, width_options=(8, 16, 24),
    num_blocks=3, stem_kernel=(4, 4), stem_stride=(2, 2),
)
BUDGET = ResourceBudget(params=60_000, activation_bytes=40_000, ops=4_000_000)


def distinct_genomes(sample_seed, count, budget=None):
    rng = np.random.default_rng(sample_seed)
    genomes = []
    while len(genomes) < count:
        genome = SPACE.random_genome(rng)
        if genome in genomes:
            continue
        if budget is not None and not feasible(SPACE.to_arch(genome), budget):
            continue
        genomes.append(genome)
    return genomes


# ----------------------------------------------------------------------
# Score determinism
# ----------------------------------------------------------------------
class TestScoreDeterminism:
    def test_raw_scores_reproducible(self):
        genome = distinct_genomes(3, 1, BUDGET)[0]
        arch = SPACE.to_arch(genome)
        seed_rng = lambda: spawn_rng(new_rng(5), "score")
        assert grad_norm_score(arch, seed_rng()) == grad_norm_score(arch, seed_rng())
        assert ntk_condition_score(arch, seed_rng()) == ntk_condition_score(arch, seed_rng())

    def test_score_shapes(self):
        genome = distinct_genomes(3, 1, BUDGET)[0]
        arch = SPACE.to_arch(genome)
        grad = grad_norm_score(arch, spawn_rng(new_rng(5), "g"))
        ntk = ntk_condition_score(arch, spawn_rng(new_rng(5), "n"))
        assert np.isfinite(grad) and grad >= 0.0  # log1p of an L2 sum
        assert np.isfinite(ntk) and ntk <= 0.0  # -log10 of a condition >= 1

    def test_screen_scores_independent_of_order(self):
        # A screen scoring candidates in one order and a fresh screen
        # scoring them reversed must agree genome-for-genome: each score's
        # stream is keyed on (seed, genome), not drawn from shared state.
        genomes = distinct_genomes(21, 5, BUDGET)
        forward, backward = ProxyScreen(seed=17), ProxyScreen(seed=17)
        first = {g: forward.scores(g, SPACE.to_arch(g)) for g in genomes}
        second = {g: backward.scores(g, SPACE.to_arch(g)) for g in reversed(genomes)}
        assert first == second
        # Different proxy seed -> different batches/init -> different scores.
        other = ProxyScreen(seed=18)
        assert other.scores(genomes[0], SPACE.to_arch(genomes[0])) != first[genomes[0]]

    def test_scores_memoized_by_genome(self):
        genome = distinct_genomes(3, 1, BUDGET)[0]
        screen = ProxyScreen(seed=17)
        pair = screen.scores(genome, SPACE.to_arch(genome))
        assert screen.scored_total == 1
        assert screen.scores(genome, SPACE.to_arch(genome)) == pair
        assert screen.scored_total == 1  # served from the memo


# ----------------------------------------------------------------------
# Constrained pruning: the feasibility gate is exact
# ----------------------------------------------------------------------
class TestConstrainedPrune:
    def test_never_drops_a_feasible_candidate(self):
        # Tight budget so the pool contains both classes; the split must be
        # exactly the feasible() predicate — pruning can shrink the search
        # into the deployable region but can never lose a viable candidate.
        tight = ResourceBudget(params=1_200, activation_bytes=40_000, ops=4_000_000)
        pool = [(g, SPACE.to_arch(g)) for g in distinct_genomes(11, 20)]
        kept, dropped = constrained_prune(pool, tight)
        assert kept and dropped, "pool must exercise both sides of the gate"
        assert kept == [(g, a) for g, a in pool if feasible(a, tight)]
        assert dropped == [(g, a) for g, a in pool if not feasible(a, tight)]
        assert len(kept) + len(dropped) == len(pool)

    def test_all_feasible_passes_through_unchanged(self):
        pool = [(g, SPACE.to_arch(g)) for g in distinct_genomes(11, 8, BUDGET)]
        kept, dropped = constrained_prune(pool, BUDGET)
        assert kept == pool and dropped == []


# ----------------------------------------------------------------------
# Screen selection behavior
# ----------------------------------------------------------------------
class TestProxyScreenSelection:
    def _pool(self, count):
        return [(g, SPACE.to_arch(g)) for g in distinct_genomes(21, count, BUDGET)]

    def test_keep_fraction(self):
        screen = ProxyScreen(ProxyConfig(keep_fraction=0.5), seed=17)
        keep = screen(None, self._pool(8))
        assert len(keep) == 8 and sum(keep) == 4
        assert screen.screened_total == 4

    def test_min_keep_floor(self):
        screen = ProxyScreen(ProxyConfig(keep_fraction=0.01, min_keep=2), seed=17)
        assert sum(screen(None, self._pool(6))) == 2

    def test_small_generations_pass_untouched(self):
        screen = ProxyScreen(ProxyConfig(keep_fraction=0.5, min_keep=2), seed=17)
        assert screen(None, self._pool(2)) == [True, True]
        assert screen(None, []) == []
        assert screen.scored_total == 0  # nothing was worth scoring

    def test_ties_resolve_to_earlier_proposal(self):
        screen = ProxyScreen(ProxyConfig(keep_fraction=0.5), seed=17)
        screen.scores = lambda genome, arch: (1.0, 1.0)  # force a full tie
        assert screen(None, self._pool(4)) == [True, True, False, False]

    def test_equal_scores_share_a_rank(self):
        # "min" ranking: ties collapse to one rank instead of being split
        # by proposal position (which would bias toward later candidates).
        ranks = ProxyScreen._ranks([2.0, 1.0, 1.0, 3.0])
        np.testing.assert_array_equal(ranks, [2.0, 0.0, 0.0, 3.0])


# ----------------------------------------------------------------------
# Batched screening: one batch per call, memoized, same pairs and flags
# ----------------------------------------------------------------------
def memo_bits(screen):
    """The memo in insertion order, each score as its exact float bits."""
    return [(genome, tuple(float(v).hex() for v in pair))
            for genome, pair in screen._scores.items()]


class TestBatchedScreen:
    def _pool(self, count):
        return [(g, SPACE.to_arch(g)) for g in distinct_genomes(21, count, BUDGET)]

    def _counting(self, monkeypatch):
        """Record the genome of every score_candidate call from now on."""
        calls, score_candidate = [], proxies.score_candidate

        def counted(task):
            calls.append(task[2])
            return score_candidate(task)

        monkeypatch.setattr(proxies, "score_candidate", counted)
        return calls

    def test_each_distinct_unscored_genome_scored_once(self, monkeypatch):
        pool = self._pool(6)
        screen = ProxyScreen(seed=17)
        for genome, arch in pool[:2]:
            screen.scores(genome, arch)
        calls = self._counting(monkeypatch)
        # Repeats inside one call, and genomes scored earlier, cost nothing.
        candidates = pool + [pool[3], pool[0], pool[5]]
        screen(None, candidates)
        assert calls == [genome for genome, _ in pool[2:]]
        assert screen.scored_total == 6
        assert list(screen._scores) == [genome for genome, _ in pool]

    def test_second_call_scores_nothing(self, monkeypatch):
        pool = self._pool(8)
        screen = ProxyScreen(seed=17)
        first = screen(None, pool)
        scored = screen.scored_total
        calls = self._counting(monkeypatch)
        assert screen(None, pool) == first
        assert calls == [] and screen.scored_total == scored == 8

    def test_scores_returns_the_batched_pairs(self):
        pool = self._pool(8)
        batched, single = ProxyScreen(seed=17), ProxyScreen(seed=17)
        batched(None, pool)
        for genome, arch in pool:
            single.scores(genome, arch)
        assert memo_bits(batched) == memo_bits(single)
        assert [batched.scores(g, a) for g, a in pool] == [single.scores(g, a) for g, a in pool]

    @pytest.mark.parametrize("keep_fraction", [0.25, 0.5, 0.75])
    def test_keep_flags_match_one_at_a_time_reference(self, keep_fraction):
        config = ProxyConfig(keep_fraction=keep_fraction)
        pool = self._pool(8)
        reference = ProxyScreen(config, seed=17)
        combined = reference.combined_rank([reference.scores(g, a) for g, a in pool])
        keep_count = max(config.min_keep, int(len(pool) * keep_fraction))
        winners = sorted(range(len(pool)), key=lambda i: (-combined[i], i))[:keep_count]
        expected = [index in winners for index in range(len(pool))]
        assert ProxyScreen(config, seed=17)(None, pool) == expected

    def test_one_parent_span_per_screen_call(self):
        pool = self._pool(6)
        screen = ProxyScreen(seed=17)
        obs.enable()
        screen(None, pool)
        screen(None, pool[:4])
        spans = obs.completed_spans()
        screens = [s for s in spans if s.name == "fabric/proxy_screen"]
        assert [s.metadata for s in screens] == [
            {"candidates": 6, "scored": 6},
            {"candidates": 4, "scored": 0},
        ]
        # Scored inline (no pool is open), so the per-candidate spans are
        # here too, nested in the first screen span.
        scores = [s for s in spans if s.name == "fabric/proxy_score"]
        assert len(scores) == 6
        assert {s.parent_index for s in scores} == {screens[0].index}


# ----------------------------------------------------------------------
# Predictive power: proxy rank vs the trained objective
# ----------------------------------------------------------------------
class TestSpearmanCorrelation:
    #: Fixed candidate pools (sample seed -> pinned floor is exact because
    #: every stream involved is seeded). Floors sit well under the measured
    #: correlations (0.70 and 0.50 at pinning time) so only a real
    #: regression of the scores or the trainer trips them.
    POOLS = (22, 23)
    POOL_SIZE = 16
    EACH_FLOOR = 0.3
    MEAN_FLOOR = 0.45

    def _correlation(self, sample_seed):
        genomes = distinct_genomes(sample_seed, self.POOL_SIZE, BUDGET)
        screen = ProxyScreen(seed=17)
        scored = [screen.scores(g, SPACE.to_arch(g)) for g in genomes]
        combined = screen.combined_rank(scored)
        oracle = MiniTaskOracle(train_size=96, test_size=48, epochs=3, batch_size=16)
        trained = [
            oracle(SPACE.to_arch(genome), candidate_rng(17, index))
            for index, genome in enumerate(genomes)
        ]
        return float(spearmanr(combined, trained).statistic)

    def test_combined_rank_predicts_trained_accuracy(self):
        correlations = [self._correlation(seed) for seed in self.POOLS]
        assert all(value >= self.EACH_FLOOR for value in correlations), correlations
        assert float(np.mean(correlations)) >= self.MEAN_FLOOR, correlations

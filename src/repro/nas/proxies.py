"""Zero-cost proxies: rank candidates without training them.

Training-free pre-screening (MicroNAS zero-shot, arXiv 2401.08996; μNAS's
constrained pruning, arXiv 2010.14246) cuts the number of candidates a NAS
sweep must actually train. Two score families over the existing
:class:`repro.nn.module.Module` backbones:

* **gradient norm** — initialize the candidate, push one synthetic batch
  through a cross-entropy backward pass, and sum the per-parameter gradient
  L2 norms (log-compressed). Trainable capacity at initialization is a
  cheap, surprisingly faithful stand-in for short-horizon trained accuracy.
* **NTK condition number** — per-sample loss gradients stacked into G give
  the empirical neural tangent kernel ``K = G Gᵀ``; a small condition
  number (score is ``-log10 λmax/λmin``, TE-NAS style) predicts trainable
  networks, a huge one predicts optimization pathologies.

Plus **constrained pruning**: :func:`constrained_prune` drops exactly the
candidates :func:`repro.nas.blackbox.feasible` rejects — never a feasible
one — so the expensive scores are only spent inside the deployable region.

Determinism: every score draws its synthetic batch and init from a stream
keyed on ``(proxy seed, genome)`` — a pure function, independent of
scoring order and of the process it runs in — and is memoized by genome,
so the proxy stage preserves the fabric's bitwise reproducibility
guarantees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.models.spec import ArchSpec, build_module, output_shape
from repro.nas.blackbox import Genome, feasible
from repro.nas.budgets import ResourceBudget
from repro.nas.fabric.executor import pool_map
from repro.nn.losses import cross_entropy
from repro.tensor import Tensor
from repro.utils.rng import new_rng, spawn_rng


def _proxy_batch(
    arch: ArchSpec, rng: np.random.Generator, batch_size: int
) -> Tuple[np.ndarray, np.ndarray]:
    num_classes = int(output_shape(arch)[-1])
    x = rng.standard_normal((batch_size, *arch.input_shape)).astype(np.float32)
    y = rng.integers(0, num_classes, size=batch_size)
    return x, y


def grad_norm_score(arch: ArchSpec, rng: np.random.Generator, batch_size: int = 8) -> float:
    """Summed parameter-gradient L2 norms at initialization (higher=better)."""
    module = build_module(arch, rng=spawn_rng(rng, "init"), qat_bits=None)
    module.train()
    x, y = _proxy_batch(arch, spawn_rng(rng, "batch"), batch_size)
    loss = cross_entropy(module(Tensor(x)), y)
    module.zero_grad()
    loss.backward()
    total = 0.0
    for parameter in module.parameters():
        if parameter.grad is not None:
            total += float(np.sqrt(np.sum(parameter.grad.astype(np.float64) ** 2)))
    if not np.isfinite(total):
        return -np.inf
    return float(np.log1p(total))


def ntk_condition_score(arch: ArchSpec, rng: np.random.Generator, batch_size: int = 8) -> float:
    """Negative log condition number of the empirical NTK (higher=better)."""
    module = build_module(arch, rng=spawn_rng(rng, "init"), qat_bits=None)
    module.train()
    x, y = _proxy_batch(arch, spawn_rng(rng, "batch"), batch_size)
    rows = []
    for i in range(batch_size):
        module.zero_grad()
        loss = cross_entropy(module(Tensor(x[i : i + 1])), y[i : i + 1])
        loss.backward()
        rows.append(
            np.concatenate(
                [
                    (
                        parameter.grad.ravel()
                        if parameter.grad is not None
                        else np.zeros(parameter.data.size, dtype=np.float32)
                    )
                    for parameter in module.parameters()
                ]
            ).astype(np.float64)
        )
    gram = np.stack(rows) @ np.stack(rows).T
    eigenvalues = np.linalg.eigvalsh(gram)
    largest = float(eigenvalues[-1])
    smallest = float(max(eigenvalues[0], 1e-12))
    if not np.isfinite(largest) or largest <= 0.0:
        return -np.inf
    return float(-np.log10(largest / smallest))


def score_candidate(task: Tuple[int, int, Genome, ArchSpec]) -> Tuple[float, float]:
    """``(seed, batch_size, genome, arch) -> (grad_norm, ntk_condition)``.

    The one scoring function of :class:`ProxyScreen`, module-level so that
    fork-pool workers can run it: both scores draw from a stream keyed on
    ``(seed, genome)``, so the pair is the same in any process.
    """
    seed, batch_size, genome, arch = task
    rng = spawn_rng(new_rng(seed), f"proxy/{genome}")
    with obs.span("fabric/proxy_score", genome=str(genome)):
        return (
            grad_norm_score(arch, spawn_rng(rng, "grad_norm"), batch_size),
            ntk_condition_score(arch, spawn_rng(rng, "ntk"), batch_size),
        )


def constrained_prune(
    candidates: Sequence[Tuple[Genome, ArchSpec]], budget: ResourceBudget
) -> Tuple[List[Tuple[Genome, ArchSpec]], List[Tuple[Genome, ArchSpec]]]:
    """(kept, dropped): split candidates on the deployment feasibility gate.

    Guaranteed to keep every candidate :func:`feasible` accepts — pruning
    only ever removes provably undeployable regions, it cannot lose a
    viable architecture (the regression suite pins this).
    """
    kept: List[Tuple[Genome, ArchSpec]] = []
    dropped: List[Tuple[Genome, ArchSpec]] = []
    for genome, arch in candidates:
        (kept if feasible(arch, budget) else dropped).append((genome, arch))
    return kept, dropped


@dataclass(frozen=True)
class ProxyConfig:
    """Knobs of the zero-cost screening stage.

    ``keep_fraction`` of each generation's feasible candidates survive (at
    least ``min_keep``); candidates are ranked by the weighted sum of their
    per-score ranks, ties broken by proposal order.
    """

    keep_fraction: float = 0.5
    min_keep: int = 1
    batch_size: int = 8
    grad_norm_weight: float = 1.0
    ntk_weight: float = 1.0


class ProxyScreen:
    """The generation pre-screen hook the search engine calls.

    Instances are bound to a sweep seed; scores are memoized by genome, so
    a genome re-proposed in a later generation is not re-scored and —
    because each score's stream is keyed on ``(seed, genome)`` — the same
    genome scores identically no matter when or where it is screened.

    Each call scores its distinct unscored candidates as one batch through
    :func:`repro.nas.fabric.executor.pool_map`: on the sweep's fork pool
    while a :class:`~repro.nas.fabric.executor.MultiprocessExecutor` has
    one open and clean (its workers idle between generations), inline
    otherwise. The parent records one ``fabric/proxy_screen`` span per
    ranking call; the per-candidate ``fabric/proxy_score`` spans stay in
    the process that scored.
    """

    def __init__(self, config: Optional[ProxyConfig] = None, seed: int = 0) -> None:
        self.config = config or ProxyConfig()
        self.seed = int(seed)
        self._scores: Dict[Genome, Tuple[float, float]] = {}
        self.screened_total = 0
        self.scored_total = 0

    def scores(self, genome: Genome, arch: ArchSpec) -> Tuple[float, float]:
        """(grad_norm, ntk_condition) scores, memoized by genome."""
        pair = self._scores.get(genome)
        if pair is None:
            pair = self._scores[genome] = score_candidate(
                (self.seed, self.config.batch_size, genome, arch)
            )
            self.scored_total += 1
        return pair

    @staticmethod
    def _ranks(values: List[float]) -> np.ndarray:
        # rank 0 = worst; equal scores share the rank of their first
        # occurrence ("min" ranking), so a tie in the raw scores stays a
        # tie in the combined rank and resolves to the earlier proposal —
        # distinct ranks for equal values would silently favor whichever
        # candidate happened to be proposed later.
        array = np.asarray(values, dtype=np.float64)
        order = np.argsort(array, kind="stable")
        ranks = np.empty(len(array), dtype=np.float64)
        shared = 0
        for position, index in enumerate(order):
            if position > 0 and array[index] != array[order[position - 1]]:
                shared = position
            ranks[index] = shared
        return ranks

    def combined_rank(self, scored: List[Tuple[float, float]]) -> np.ndarray:
        grad_ranks = self._ranks([s[0] for s in scored])
        ntk_ranks = self._ranks([s[1] for s in scored])
        return (
            self.config.grad_norm_weight * grad_ranks
            + self.config.ntk_weight * ntk_ranks
        )

    def __call__(self, session, candidates: List[Tuple[Genome, ArchSpec]]) -> List[bool]:
        count = len(candidates)
        if count <= self.config.min_keep:
            return [True] * count
        keep_count = max(self.config.min_keep, int(count * self.config.keep_fraction))
        if keep_count >= count:
            return [True] * count
        # Distinct unscored genomes in candidate order: one batch, scored on
        # the idle fork pool when one is lent, and memoized in that order.
        fresh = {genome: arch for genome, arch in candidates if genome not in self._scores}
        with obs.span("fabric/proxy_screen", candidates=count, scored=len(fresh)):
            pairs = pool_map(
                score_candidate,
                [(self.seed, self.config.batch_size, genome, arch)
                 for genome, arch in fresh.items()],
            )
            self._scores.update(zip(fresh, pairs))
            self.scored_total += len(fresh)
            # Every candidate is a memo hit now.
            scored = [self.scores(genome, arch) for genome, arch in candidates]
            combined = self.combined_rank(scored)
        # Highest combined rank wins; ties resolve to the earlier proposal.
        winners = sorted(range(count), key=lambda i: (-combined[i], i))[:keep_count]
        keep = [False] * count
        for index in winners:
            keep[index] = True
        self.screened_total += count - keep_count
        return keep

"""Fault tolerance for long runs: checkpoints, resume, fault injection, retry.

The paper's results come from long DNAS and training runs whose value is
entirely in their reproducible endpoints; a crash late in a search must not
lose the run, and a resumed run must make *bitwise-identical* architecture
decisions to an uninterrupted one. This package provides:

``repro.resilience.checkpoint``
    Atomic (temp-file-then-rename), versioned snapshot files capturing model
    parameters and buffers, optimizer slots, epoch counters, loss history,
    and exact RNG states. :class:`CheckpointConfig` is accepted by
    :func:`repro.nas.search.search` and
    :func:`repro.tasks.common.train_classifier`.

``repro.resilience.faults``
    Deterministic fault injection through one installed :class:`ChaosPlan`:
    raise-only crash sites (DNAS steps, train steps, candidate evaluations,
    checkpoint writes) prove the checkpoint/resume and retry paths, and
    behavior sites (serving invokes, fabric tasks) also hang, slow down or
    corrupt on a seeded schedule. See ``docs/resilience.md``.

``repro.resilience.retry``
    :func:`retry_after`, the single bounded exponential-backoff schedule
    behind experiment rows, candidate evaluations, serving invokes and the
    fabric requeue budget.
"""

from repro.resilience.checkpoint import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointConfig,
    load_checkpoint,
    save_checkpoint,
)
from repro.resilience.faults import (
    CHAOS_KINDS,
    CORRUPT_MUTATORS,
    SITES,
    ChaosAction,
    ChaosPlan,
    ChaosSpec,
    InjectedFault,
    chaos_point,
    fault_point,
    inject,
)
from repro.resilience.retry import retry_after

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointConfig",
    "load_checkpoint",
    "save_checkpoint",
    "CHAOS_KINDS",
    "CORRUPT_MUTATORS",
    "SITES",
    "ChaosAction",
    "ChaosPlan",
    "ChaosSpec",
    "InjectedFault",
    "chaos_point",
    "fault_point",
    "inject",
    "retry_after",
]

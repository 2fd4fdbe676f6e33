"""Shared experiment result container and degradation helpers."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

from repro import obs
from repro.resilience.faults import fault_point
from repro.resilience.retry import retry_after

T = TypeVar("T")


@dataclass(frozen=True)
class RowFailure:
    """One experiment row that kept raising until retries ran out."""

    label: str
    error: str
    attempts: int


@dataclass
class ExperimentResult:
    """Rows reproducing one paper table or figure.

    Attributes
    ----------
    experiment_id: e.g. ``"table2"`` or ``"fig4"``.
    title: human-readable description.
    columns: ordered column names.
    rows: list of dicts keyed by column name.
    notes: free-form observations (e.g. shape checks that passed/failed).
    failures: rows that could not be computed (see :func:`attempt`).
    """

    experiment_id: str
    title: str
    columns: Sequence[str]
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    failures: List[RowFailure] = field(default_factory=list)

    def add_row(self, **values: object) -> None:
        self.rows.append(values)

    def note(self, text: str) -> None:
        self.notes.append(text)

    def record_failure(self, label: str, error: str, attempts: int) -> None:
        self.failures.append(RowFailure(label=label, error=error, attempts=attempts))

    def column(self, name: str) -> List[object]:
        return [row.get(name) for row in self.rows]

    def row_by(self, key: str, value: object) -> Optional[Dict[str, object]]:
        for row in self.rows:
            if row.get(key) == value:
                return row
        return None


def attempt(
    result: ExperimentResult,
    label: str,
    fn: Callable[[], T],
    retries: int = 1,
    backoff_s: float = 0.0,
) -> Optional[T]:
    """Run one row computation with bounded retries.

    Returns ``fn()``'s value, or ``None`` after ``retries`` extra attempts
    all raised — the failure is recorded on ``result`` (``failures`` plus a
    note) and the sweep continues instead of dying mid-figure.
    KeyboardInterrupt/SystemExit always propagate.
    """
    last_error = ""
    attempt_no = 0
    for attempt_no in range(1, retries + 2):
        try:
            fault_point("experiment_row")
            return fn()
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            last_error = f"{type(exc).__name__}: {exc}"
            if retry_after(attempt_no, retries, backoff_s, time.sleep):
                obs.incr("experiments.row_retries")
    obs.incr("experiments.row_failures")
    result.record_failure(label, last_error, attempt_no)
    result.note(f"FAILED row {label!r} after {attempt_no} attempts: {last_error}")
    return None

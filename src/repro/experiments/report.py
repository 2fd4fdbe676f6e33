"""Plain-text rendering and archival of experiment results."""

from __future__ import annotations

import os
from typing import Optional

from repro.experiments.base import ExperimentResult


def _format_cell(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    return str(value)


def format_table(result: ExperimentResult) -> str:
    """Render an experiment result as an aligned text table."""
    columns = list(result.columns)
    cells = [[_format_cell(row.get(c)) for c in columns] for row in result.rows]
    widths = [
        max(len(c), *(len(r[i]) for r in cells)) if cells else len(c)
        for i, c in enumerate(columns)
    ]
    lines = [f"== {result.experiment_id}: {result.title} =="]
    lines.append("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    for note in result.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines)


def save_result(result: ExperimentResult, directory: Optional[str] = None,
                scenario: Optional[str] = None) -> str:
    """Write the rendered table under ``benchmarks/results/`` (or a given
    directory) and return the path. A scenario spec's result is saved as
    ``<scenario>.<experiment_id>.txt``, beside what ``repro run`` writes."""
    if directory is None:
        directory = os.environ.get(
            "REPRO_RESULTS_DIR",
            os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
                os.path.dirname(os.path.abspath(__file__))))), "benchmarks", "results"),
        )
    os.makedirs(directory, exist_ok=True)
    stem = result.experiment_id if scenario is None else f"{scenario}.{result.experiment_id}"
    path = os.path.join(directory, f"{stem}.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_table(result) + "\n")
    return path

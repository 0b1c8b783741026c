"""Experiment result tables: a uniform container + renderer.

Every experiment module returns an :class:`ExperimentReport` whose rows
mirror the corresponding paper table/figure (series per version, one row
per workload or per swept parameter), rendered with
:func:`repro.util.tables.format_table`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.util.tables import format_table

__all__ = ["ExperimentReport"]


@dataclass
class ExperimentReport:
    """One reproduced table/figure."""

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list[Any]]
    notes: list[str] = field(default_factory=list)
    #: Free-form machine-readable payload (per-figure averages etc.).
    summary: dict[str, float] = field(default_factory=dict)

    def render(self) -> str:
        out = format_table(
            self.headers, self.rows, title=f"{self.experiment_id}: {self.title}"
        )
        if self.summary:
            pairs = ", ".join(f"{k}={v:.3f}" for k, v in self.summary.items())
            out += f"\n  summary: {pairs}"
        for note in self.notes:
            out += f"\n  note: {note}"
        return out

    def row_dict(self) -> dict[str, list[Any]]:
        """Rows indexed by the value of their first column (the name)."""
        return {str(r[0]): list(r) for r in self.rows}

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()

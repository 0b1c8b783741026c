"""Plain-text table rendering for the experiment harness.

The benchmark harness prints the same rows/series the paper's tables and
figures report; this module owns the formatting so every experiment
renders identically.
"""

from __future__ import annotations

from typing import Any, Sequence

__all__ = ["format_table"]


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: str | None = None,
) -> str:
    """Render a list of rows as an aligned monospace table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    ncols = max(len(r) for r in cells)
    for r in cells:
        r.extend([""] * (ncols - len(r)))
    widths = [max(len(r[j]) for r in cells) for j in range(ncols)]

    def fmt_row(r: Sequence[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()

    lines = []
    if title:
        lines.append(title)
    lines.append(fmt_row(cells[0]))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(fmt_row(r) for r in cells[1:])
    return "\n".join(lines)

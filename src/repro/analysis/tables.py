"""Plain-text table rendering for benchmark reports."""

from __future__ import annotations

from typing import Any, Sequence


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
    title: str = "",
) -> str:
    """Render an aligned ASCII table (numbers right-aligned).  Every row
    must have one cell per header."""
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row {list(row)!r} has {len(row)} cells for "
                f"{len(headers)} headers"
            )
    cells = [[str(h) for h in headers]] + [
        [_fmt(c) for c in row] for row in rows
    ]
    widths = [max(len(r[i]) for r in cells) for i in range(len(headers))]
    out = []
    if title:
        out.append(title)
    sep = "-+-".join("-" * w for w in widths)
    for idx, row in enumerate(cells):
        aligned = []
        for i, cell in enumerate(row):
            value = rows[idx - 1][i] if idx > 0 else None
            if idx > 0 and isinstance(value, (int, float)) and not isinstance(
                value, bool
            ):
                aligned.append(cell.rjust(widths[i]))
            else:
                aligned.append(cell.ljust(widths[i]))
        out.append(" | ".join(aligned))
        if idx == 0:
            out.append(sep)
    return "\n".join(out)


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)

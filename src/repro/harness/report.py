"""Plain-text table rendering for experiment reports.

The benchmark harness prints paper-style tables (e.g. the measured Table 1)
to stdout and into ``results/``.  No dependency beyond the standard
library; values are stringified with sensible float formatting.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence
from pathlib import Path


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    if value is None:
        return "-"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render an aligned ASCII table."""
    str_rows = [[_fmt(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(sep))
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_dict_table(
    rows: Iterable[dict[str, object]],
    columns: Sequence[str],
    title: str | None = None,
) -> str:
    """Render dict rows, selecting and ordering ``columns``."""
    return format_table(
        columns,
        [[row.get(col) for col in columns] for row in rows],
        title=title,
    )


def write_report(report: dict, path: str | Path) -> Path:
    """Write a JSON report document (bench suite, scenario sweep)."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    return path


def load_report(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


__all__ = ["format_dict_table", "format_table", "load_report", "write_report"]

"""Plain-text result tables (no external dependencies)."""

from __future__ import annotations

from typing import Iterable, Sequence

__all__ = ["format_table", "format_markdown_table"]


def _stringify(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Monospaced table with aligned columns."""
    str_rows = [[_stringify(v) for v in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)
    lines = [" | ".join(h.ljust(w) for h, w in zip(headers, widths)), sep]
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_markdown_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """GitHub-flavoured markdown table (e.g. for pasting results into README.md)."""
    str_rows = [[_stringify(v) for v in row] for row in rows]
    lines = ["| " + " | ".join(headers) + " |", "|" + "|".join("---" for _ in headers) + "|"]
    for row in str_rows:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)

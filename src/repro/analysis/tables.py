"""Plain-text and Markdown table rendering."""

from __future__ import annotations

from typing import Sequence

__all__ = ["format_table", "format_markdown_table"]


def _stringify(cell: object) -> str:
    """Render one table cell: floats get a compact fixed precision."""
    if isinstance(cell, float):
        if cell != cell:  # NaN
            return "n/a"
        if abs(cell) >= 1000 or cell == int(cell):
            return f"{cell:,.0f}"
        return f"{cell:.4g}"
    return str(cell)


def format_table(headers: Sequence[object], rows: Sequence[Sequence[object]]) -> str:
    """Render an ASCII table with column-aligned cells.

    >>> print(format_table(["name", "value"], [["alpha", 1.5], ["beta", 20]]))
    name  | value
    ------+------
    alpha | 1.5
    beta  | 20
    """
    header_cells = [_stringify(cell) for cell in headers]
    body = [[_stringify(cell) for cell in row] for row in rows]
    widths = [len(cell) for cell in header_cells]
    for row in body:
        for index, cell in enumerate(row):
            if index >= len(widths):
                widths.append(len(cell))
            else:
                widths[index] = max(widths[index], len(cell))

    def render_row(cells: list[str]) -> str:
        padded = [
            cell.ljust(widths[index]) if index < len(widths) else cell
            for index, cell in enumerate(cells)
        ]
        return " | ".join(padded).rstrip()

    separator = "-+-".join("-" * width for width in widths)
    lines = [render_row(header_cells), separator]
    lines.extend(render_row(row) for row in body)
    return "\n".join(lines)


def format_markdown_table(
    headers: Sequence[object], rows: Sequence[Sequence[object]]
) -> str:
    """Render a GitHub-flavoured Markdown table (the experiment and report output)."""
    header_cells = [_stringify(cell) for cell in headers]
    body = [[_stringify(cell) for cell in row] for row in rows]
    lines = [
        "| " + " | ".join(header_cells) + " |",
        "|" + "|".join("---" for _ in header_cells) + "|",
    ]
    for row in body:
        lines.append("| " + " | ".join(row) + " |")
    return "\n".join(lines)

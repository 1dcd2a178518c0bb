"""The per-cell result record and the shared plain-text table renderer.

``RunSummary`` lived in :mod:`repro.experiments.common` originally; it
moved here so the runner (which produces and caches summaries) does not
depend on the experiments layer that consumes them.  ``experiments.common``
re-exports both names, so existing imports keep working.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class RunSummary:
    name: str
    pipeline: str
    capacity: int | None
    cycles: int
    bundles: int
    ops_issued: int
    ops_from_buffer: int
    ops_from_memory: int
    static_ops: int
    branch_bubbles: int

    @property
    def buffer_fraction(self) -> float:
        if self.ops_issued == 0:
            return 0.0
        return self.ops_from_buffer / self.ops_issued


def summary_to_dict(summary: RunSummary) -> dict:
    """The JSON-able form of a summary (the service's wire payload)."""
    return asdict(summary)


def summary_from_dict(data: dict) -> RunSummary:
    return RunSummary(**data)


def format_table(headers: list[str], rows: list[list], title: str = "",
                 align: list[str] | None = None) -> str:
    """Plain-text table.  ``align`` gives one ``"l"``/``"r"`` per column
    (default all left-aligned, matching the historical layout); a row that
    is the single string ``"-"`` renders as a separator rule."""
    widths = [len(h) for h in headers]
    rendered: list[list[str] | str] = [
        row if row == "-" else [_fmt(cell) for cell in row] for row in rows
    ]
    for row in rendered:
        if row == "-":
            continue
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    if align is None:
        align = ["l"] * len(headers)

    def _pad(cell: str, width: int, column: int) -> str:
        if column < len(align) and align[column] == "r":
            return cell.rjust(width)
        return cell.ljust(width)

    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(_pad(h, w, i)
                           for i, (h, w) in enumerate(zip(headers, widths))))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered:
        if row == "-":
            lines.append("  ".join("-" * w for w in widths))
            continue
        lines.append("  ".join(_pad(c, w, i)
                               for i, (c, w) in enumerate(zip(row, widths))))
    return "\n".join(lines)


def _fmt(cell) -> str:
    if isinstance(cell, float):
        return f"{cell:.3f}"
    return str(cell)

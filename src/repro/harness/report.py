"""ASCII table/series reporting for benchmark output.

Every benchmark prints the same rows/series its paper figure or table
shows; these helpers keep that output uniform and readable in the
benchmark logs and ``benchmarks/out/*.txt``.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3g}"
    return str(value)


class Table:
    """A simple aligned ASCII table."""

    def __init__(self, headers: Sequence[str], title: Optional[str] = None):
        self.title = title
        self.headers = list(headers)
        self.rows: list[list[str]] = []

    def row(self, *values: Any) -> "Table":
        if len(values) != len(self.headers):
            raise ValueError(f"expected {len(self.headers)} cells, got {len(values)}")
        self.rows.append([_fmt(v) for v in values])
        return self

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = []
        if self.title:
            lines.append(self.title)
        lines.append("  ".join(h.rjust(w) for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def show(self) -> None:
        print()
        print(self.render())


def ratio_label(new: float, base: float) -> str:
    """Render an improvement the way the paper labels bars: percentage
    below 2x, multiplier above ("44%", "2.7x")."""
    if base == 0:
        return "n/a"
    ratio = new / base
    if ratio >= 2.0:
        return f"{ratio:.1f}x"
    return f"{100 * (ratio - 1):+.0f}%"


def series(name: str, xs: Iterable[Any], ys: Iterable[Any]) -> str:
    pairs = "  ".join(f"{_fmt(x)}:{_fmt(y)}" for x, y in zip(xs, ys))
    return f"{name}: {pairs}"

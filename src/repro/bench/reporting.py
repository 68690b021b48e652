"""Plain-text rendering of reproduced tables and figure series."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence


@dataclass
class Table:
    """An ASCII table mirroring one of the paper's tables."""

    title: str
    columns: Sequence[str]
    rows: list[Sequence[Any]] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(values)

    def render(self) -> str:
        cells = [[str(c) for c in self.columns]] + [
            [_fmt(v) for v in row] for row in self.rows
        ]
        widths = [max(len(row[i]) for row in cells) for i in range(len(self.columns))]
        sep = "-+-".join("-" * w for w in widths)
        lines = [self.title, "=" * len(self.title)]
        lines.append(" | ".join(c.ljust(w) for c, w in zip(cells[0], widths)))
        lines.append(sep)
        for row in cells[1:]:
            lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def print(self) -> None:
        print()
        print(self.render())
        print()


@dataclass
class Series:
    """One line of a figure: a labelled list of (x, y) points."""

    label: str
    points: list[tuple[float, float]] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        self.points.append((x, y))


@dataclass
class Figure:
    """A figure reproduced as labelled numeric series."""

    title: str
    x_label: str
    y_label: str
    series: list[Series] = field(default_factory=list)

    def add_series(self, label: str) -> Series:
        s = Series(label)
        self.series.append(s)
        return s

    def render(self) -> str:
        lines = [self.title, "=" * len(self.title), f"x: {self.x_label}   y: {self.y_label}"]
        for s in self.series:
            pts = "  ".join(f"({_fmt(x)}, {_fmt(y)})" for x, y in s.points)
            lines.append(f"  {s.label}: {pts}")
        return "\n".join(lines)

    def print(self) -> None:
        print()
        print(self.render())
        print()


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.2f}".rstrip("0").rstrip(".")
    if isinstance(value, int) and abs(value) >= 10_000:
        return f"{value:,}"
    return str(value)


# re-exported here because every bench module builds its concurrency series
# through the reporting layer
from repro.analytics.timeline import concurrency_timeline  # noqa: E402,F401


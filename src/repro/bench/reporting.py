"""The paper's tables as GitHub pipe tables, and the copies EXPERIMENTS.md keeps.

``python -m repro.bench <exp>`` prints ``report(...).render()``.
EXPERIMENTS.md holds that exact text between ``<!-- generated: <exp> -->``
and ``<!-- /generated -->``; :func:`documented` reads it back, so a test
can compare what the code measures with what the document says.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

EXPERIMENTS_MD = Path(__file__).resolve().parents[3] / "EXPERIMENTS.md"


@dataclass
class Table:
    """A table whose cells render with ``str``; ``None`` renders as "–"."""

    columns: Sequence[str]
    rows: list[Sequence[Any]] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append(values)

    def render(self) -> str:
        def line(cells: Sequence[Any]) -> str:
            return "| " + " | ".join("–" if c is None else str(c) for c in cells) + " |"

        return "\n".join(
            [line(self.columns), "|" + "---|" * len(self.columns)]
            + [line(row) for row in self.rows]
        )


def documented(experiment: str) -> str:
    """The rendered table EXPERIMENTS.md keeps for ``experiment``."""
    text = EXPERIMENTS_MD.read_text(encoding="utf-8")
    _, start, rest = text.partition(f"<!-- generated: {experiment} -->\n")
    block, end, _ = rest.partition("<!-- /generated -->")
    if not (start and end):
        raise KeyError(f"EXPERIMENTS.md has no generated block for {experiment!r}")
    return block.rstrip("\n")

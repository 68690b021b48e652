"""Shared helpers for the benchmark suite.

Benchmarks simulate the paper's experiments in virtual time, so the
pytest-benchmark wall-clock numbers measure *simulator* cost; the numbers
that reproduce the paper (virtual seconds, speedups, concurrency) are
printed as tables straight to the terminal, bypassing capture.
"""

from __future__ import annotations

import sys

import pytest


@pytest.fixture()
def emit(capfd):
    """Print a Table (or text) to the real terminal despite capture.

    pytest's default fd-level capture would swallow the reproduced tables
    on passing tests; ``capfd.disabled()`` restores the real stdout for the
    write, so ``pytest benchmarks/ --benchmark-only`` always shows them.
    """

    def _emit(renderable, title: str = "") -> None:
        text = renderable.render() if hasattr(renderable, "render") else str(renderable)
        if title:
            text = f"{title}\n\n{text}"
        with capfd.disabled():
            sys.stdout.write("\n" + text + "\n")
            sys.stdout.flush()

    return _emit

"""Unit tests for the progress bar (the client pools: ``tests/vtime/test_fan_out.py``)."""

from __future__ import annotations

import io

from repro.core.progress import ProgressBar


class TestProgressBar:
    def test_renders_updates(self):
        out = io.StringIO()
        bar = ProgressBar(10, enabled=True, stream=out)
        bar.update(5)
        bar.update(10)
        bar.close()
        text = out.getvalue()
        assert "5/10" in text
        assert "10/10" in text
        assert "100.0%" in text

    def test_disabled_writes_nothing(self):
        out = io.StringIO()
        bar = ProgressBar(10, enabled=False, stream=out)
        bar.update(5)
        bar.close()
        assert out.getvalue() == ""

    def test_duplicate_updates_coalesced(self):
        out = io.StringIO()
        bar = ProgressBar(4, enabled=True, stream=out)
        bar.update(2)
        first = out.getvalue()
        bar.update(2)
        assert out.getvalue() == first

    def test_zero_total_disabled(self):
        out = io.StringIO()
        bar = ProgressBar(0, enabled=True, stream=out)
        bar.update(0)
        bar.close()
        assert out.getvalue() == ""

    def test_context_manager(self):
        out = io.StringIO()
        with ProgressBar(2, enabled=True, stream=out) as bar:
            bar.update(2)
        assert out.getvalue().endswith("\n")

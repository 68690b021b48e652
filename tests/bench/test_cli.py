"""Tests for the `python -m repro.bench` command-line interface."""

from __future__ import annotations

import pytest

from repro.bench.__main__ import main


class TestCli:
    def test_fig2_small(self, capsys):
        assert main(["fig2", "--n", "20"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("| configuration | invocation phase (s) |")
        assert "| massive (wan client) |" in out

    def test_fig4_quick(self, capsys):
        assert main(["fig4", "--quick"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("| N | d=0 | d=1 | d=2 |\n")
        assert len(out.splitlines()) == 4  # header, separator, two sizes

    def test_table3_single_chunk(self, capsys):
        assert main(["table3", "--chunks", "64"]) == 0
        out = capsys.readouterr().out
        assert "| No / Sequential |" in out
        assert "| 64MB |" in out

    def test_fig5_writes_artifact(self, capsys, tmp_path):
        out = tmp_path / "ny.svg"
        assert main(["fig5", "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("| quantity | measured | paper |")
        assert str(out) in captured.err  # stdout is the table alone
        assert out.read_text().startswith("<svg")

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

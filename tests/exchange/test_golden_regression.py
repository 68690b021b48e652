"""The tentpole regression gate: the default exchange is byte-identical.

``golden_trace_default_exchange.jsonl`` was exported by the pre-refactor
code (COS-only intermediates, no backend seam) from the frozen workload
in :mod:`tests.exchange.golden_workload`.  With ``ExchangeConfig`` unset
the refactored stack must reproduce it byte for byte — same events, same
timestamps, same ordering, same JSON serialization.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys

from tests.exchange.golden_workload import GOLDEN_PATH, run_traced

GOLDEN = pathlib.Path(__file__).parent / GOLDEN_PATH


class TestGoldenDefaultExchange:
    def test_default_exchange_trace_matches_pre_refactor_golden(self):
        got = run_traced()
        want = GOLDEN.read_text(encoding="utf-8")
        assert want, "golden fixture missing or empty"
        # compare prefixes first for a readable diff on regression
        if got != want:
            for i, (a, b) in enumerate(zip(got.splitlines(), want.splitlines())):
                assert a == b, f"first divergence at trace line {i + 1}"
        assert got == want

    def test_golden_run_is_self_deterministic(self):
        assert run_traced() == run_traced()


class TestGoldenFromAnotherCheckout:
    """The golden is a function of the seed, not of where the code sits:
    nothing the workload ships embeds a source path, so a copy of the
    checkout at a path of another length exports the same bytes."""

    def test_copy_at_another_path_exports_the_committed_bytes(self, tmp_path):
        repo = pathlib.Path(__file__).resolve().parents[2]
        root = tmp_path / "checkout"
        if len(str(root)) == len(str(repo)):
            root = tmp_path / "another-checkout"
        shutil.copytree(
            repo / "src", root / "src", ignore=shutil.ignore_patterns("__pycache__")
        )
        (root / "tests" / "exchange").mkdir(parents=True)
        (root / "tests" / "__init__.py").touch()
        (root / "tests" / "exchange" / "__init__.py").touch()
        shutil.copy(
            pathlib.Path(__file__).parent / "golden_workload.py",
            root / "tests" / "exchange",
        )
        script = (
            "import sys\n"
            "from tests.exchange.golden_workload import run_traced\n"
            "sys.stdout.write(run_traced())\n"
        )
        got = subprocess.run(
            [sys.executable, "-c", script],
            cwd=root,
            env={
                **os.environ,
                "PYTHONPATH": f"{root / 'src'}{os.pathsep}{root}",
                "PYTHONIOENCODING": "utf-8",
            },
            capture_output=True,
            check=True,
        ).stdout
        assert len(str(root)) != len(str(repo))
        assert got == GOLDEN.read_bytes()

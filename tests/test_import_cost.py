"""What ``import repro`` loads, checked in a fresh interpreter.

Every example subprocess, every ``python -m repro`` and every benchmark
set-up pays the package's import.  The SVG renderers escape text with
``html.escape``: ``xml.sax.saxutils`` would pull in ``urllib.request`` and,
through it, ``http.client`` and ``email``, which nothing here uses.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: modules the package must not load just by being imported
UNWANTED = ("urllib.request", "http.client", "email")


def test_import_repro_loads_no_http_stack():
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        str(SRC) if not existing else os.pathsep.join([str(SRC), existing])
    )
    code = (
        "import sys, repro; "
        f"print(sorted(m for m in {UNWANTED!r} if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "[]"

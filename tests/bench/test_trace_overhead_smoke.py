"""Fast smoke of the tracing-overhead benchmark harness.

The real measurement is ``benchmarks/bench_trace_overhead.py`` on a
1,000-call map (``make bench-trace``); here a 20-call map runs once per
mode so the default test run catches harness rot, and the committed
report is checked for shape — never for timing, which belongs to the
bench and to ``make perf-trace``.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[2]


def load_bench():
    spec = importlib.util.spec_from_file_location(
        "bench_trace_overhead", ROOT / "benchmarks" / "bench_trace_overhead.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tiny_map_reports_both_modes():
    report = load_bench().measure(n_calls=20, repeats=1)
    assert report["tracing_off_s"] > 0 and report["tracing_on_s"] > 0
    assert report["trace_events_recorded"] > 20  # at least one per call
    assert {"criterion_met", "criterion_enabled_met"} <= set(report)


def test_committed_report_is_the_1000_call_run_with_both_criteria():
    committed = json.loads((ROOT / "BENCH_trace_overhead.json").read_text())
    assert committed["workload"] == "map(x*x, range(1000)) end to end"
    assert committed["trace_events_recorded"] > 20_000
    assert committed["criterion_met"] is True
    assert committed["criterion_enabled_met"] is True
    assert committed["overhead_enabled_vs_disabled_pct"] < 30.0

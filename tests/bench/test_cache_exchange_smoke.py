"""Tier-1 run of the cache exchange benchmark (``make bench-cache``).

The full bench is small — an 8-leaf mergesort DAG and a 12-doc shuffle
wordcount, each from one seed in both modes — so the default test run
executes it whole: every acceptance criterion must hold, and the cos-only
rows must reproduce the committed ``BENCH_cache_exchange.json`` exactly.
The committed file is only read, never rewritten.
"""

from __future__ import annotations

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
COMMITTED = ROOT / "BENCH_cache_exchange.json"
PINNED = (
    "makespan_s",
    "intermediate_read_s",
    "intermediate_reads",
    "cos_misses",
    "bytes_from_cos",
)


def load_bench():
    spec = importlib.util.spec_from_file_location(
        "bench_cache_exchange", ROOT / "benchmarks" / "bench_cache_exchange.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def report():
    before = COMMITTED.read_bytes()
    report = load_bench().build_report()
    assert COMMITTED.read_bytes() == before
    return report


def test_all_five_criteria_hold(report):
    assert len(report["criteria"]) == 5
    assert all(report["criteria"].values()), report["criteria"]
    assert report["criteria_met"] is True


@pytest.mark.parametrize("workload", ["mergesort", "shuffle_wordcount"])
def test_cos_only_rows_match_committed_report(report, workload):
    committed = json.loads(COMMITTED.read_text())[workload]["cos_only"]
    row = report[workload]["cos_only"]
    assert {field: row[field] for field in PINNED} == {
        field: committed[field] for field in PINNED
    }

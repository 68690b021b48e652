"""Fast smoke of the swarm-vs-centralized benchmark harness.

The full sweep lives in ``benchmarks/bench_dag_swarm.py`` (run via
``make bench-dag-swarm``); here we execute tiny shapes under both
schedulers so the default test run catches harness rot without paying
the 100-level sweep.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

BENCHES = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"


def load_bench():
    # the bench imports its sibling shape module by name
    sys.path.insert(0, str(BENCHES))
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_dag_swarm", BENCHES / "bench_dag_swarm.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCHES))
    return module


@pytest.fixture(scope="module")
def bench():
    return load_bench()


@pytest.mark.parametrize("scheduler", ["centralized", "swarm"])
def test_tiny_chain_runs(bench, scheduler):
    report = bench.run_chain(scheduler, depth=4)
    # run_chain asserts the chain's answer internally; check the shape
    assert report["makespan_s"] > 0
    assert report["activations"] == 4
    if scheduler == "swarm":
        assert report["client_invocations"] == 1
        assert report["worker_invocations"] == 3
    else:
        assert report["client_invocations"] == 4


def test_merge_tree_swarm_traced_runs_are_deterministic(bench):
    report_a, trace_a = bench.run_merge_tree("swarm", trace=True)
    report_b, trace_b = bench.run_merge_tree("swarm", trace=True)
    assert report_a == report_b
    assert trace_a and trace_a == trace_b


def test_schedule_bytes_read_scale_linearly(bench, monkeypatch):
    """Each handoff range-reads its own O(out-degree) slice, so doubling
    the merge tree doubles the schedule bytes read (a whole-graph fetch
    per handoff quadruples them)."""
    totals = {}
    for leaves in (32, 64):
        monkeypatch.setattr(bench.shapes, "N_LEAVES", leaves)
        monkeypatch.setattr(bench.shapes, "CHUNK", 8)
        with bench.schedule_reads() as reads:
            report, _ = bench.run_merge_tree("swarm")
        assert report["schedule_bytes_read"] == sum(reads)
        assert len(reads) == 2 * leaves - 2  # every non-root node, once
        assert max(reads) <= 1024 * (1 + 1)  # binary tree: out-degree 1
        totals[leaves] = sum(reads)
    assert totals[64] <= 2.5 * totals[32]


def test_shape_builders_are_shared_with_pipeline_bench(bench):
    shapes = sys.modules["bench_dag_pipeline"]
    assert bench.shapes is shapes
    for name in ("build_merge_tree", "build_chain", "build_wide_deep"):
        assert callable(getattr(shapes, name))

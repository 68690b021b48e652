"""Cache exchange: COS-only vs the ``cached-cos`` memory tier (tier-1).

The merge tree and the shuffle wordcount of :mod:`tests.bench.shapes`,
seed 123.  The cos-only mode runs ``cached-cos`` with a zero byte budget:
nothing is ever resident, so every read goes to COS through the
instrumented path, timed exactly like direct COS.  The metric is
intermediate-read time: virtual seconds in-cloud readers spend fetching
shuffle partitions and upstream results.
"""

from __future__ import annotations

import pytest

import repro as pw
from tests.bench import shapes

MODES = {
    "cos_only": pw.ExchangeConfig(backend="cached-cos", cache_node_budget_bytes=0),
    "cached": pw.ExchangeConfig(backend="cached-cos"),
}
#: workload -> mode -> (makespan s, read s, reads, local hits, peer hits,
#: COS misses, bytes from memory, bytes from peers, bytes from COS)
PINNED = {
    "mergesort": {
        "cos_only": (87.7, 0.0537, 14, 0, 0, 14, 0, 0, 59916),
        "cached": (87.7, 0.0271, 14, 7, 7, 0, 29988, 29928, 0),
    },
    "shuffle_wordcount": {
        "cos_only": (4.8, 0.1437, 36, 0, 0, 36, 0, 0, 2100),
        "cached": (4.8, 0.1284, 36, 4, 32, 0, 252, 1848, 0),
    },
}
FIELDS = (
    "read_seconds_total", "intermediate_reads", "local_hits", "peer_hits",
    "cos_misses", "bytes_from_memory", "bytes_from_peers", "bytes_from_cos",
)


def exchange_row(env):
    stats = env.exchange.stats()
    stats["read_seconds_total"] = round(stats["read_seconds_total"], 4)
    return (round(env.now(), 1), *(stats[field] for field in FIELDS))


@pytest.fixture(scope="module")
def runs():
    """Each mode's rows, and two traced same-seed mergesort runs per mode."""
    rows = {"mergesort": {}, "shuffle_wordcount": {}}
    traces = {}
    for mode, exchange in MODES.items():
        env, _, trace_a = shapes.run_merge_tree(trace=True, exchange=exchange)
        _, _, trace_b = shapes.run_merge_tree(trace=True, exchange=exchange)
        rows["mergesort"][mode] = exchange_row(env)
        rows["shuffle_wordcount"][mode] = exchange_row(shapes.run_wordcount(exchange))
        traces[mode] = (trace_a, trace_b)
    return rows, traces


@pytest.mark.parametrize("workload", ["mergesort", "shuffle_wordcount"])
def test_cos_only_rows_match_committed_report(runs, workload):
    """The cos-only rows equal the numbers committed in ``PINNED``."""
    assert runs[0][workload]["cos_only"] == PINNED[workload]["cos_only"]


def test_cached_beats_cos_mergesort_reads(runs):
    rows = runs[0]["mergesort"]
    assert rows["cached"] == PINNED["mergesort"]["cached"]
    assert rows["cached"][1] < rows["cos_only"][1]  # 53.7 -> 27.1 ms, 1.98x


def test_cached_beats_cos_wordcount_reads(runs):
    rows = runs[0]["shuffle_wordcount"]
    assert rows["cached"] == PINNED["shuffle_wordcount"]["cached"]
    assert rows["cached"][1] < rows["cos_only"][1]  # 143.7 -> 128.4 ms, 1.12x


def test_cached_run_has_memory_hits(runs):
    for rows in runs[0].values():
        _, _, _, local_hits, peer_hits, *_ = rows["cached"]
        assert local_hits + peer_hits > 0


def test_cos_only_trace_byte_identical(runs):
    trace_a, trace_b = runs[1]["cos_only"]
    assert trace_a and trace_a == trace_b


def test_cached_trace_byte_identical(runs):
    trace_a, trace_b = runs[1]["cached"]
    assert trace_a and trace_a == trace_b

"""DAG pipeline: the barrier-free DAG vs the barriered flow, seed 123 (tier-1).

Barriered, the client maps the merge tree's sorts, waits, and maps each
merge level in turn, or waits out the wordcount's map stage before it
spawns the reducers.  The DAG fires each merge the moment its inputs
commit and reads them in-cloud; ``map_reduce_shuffle`` uploads the
reducers at submit time and fires them on the last map-status commit.
"""

from __future__ import annotations

import pytest

import repro as pw
from repro.core.environment import CloudEnvironment
from repro.core.shuffle import make_shuffle_map, make_shuffle_reduce_fetch, merge_shuffle_results
from tests.bench import shapes


def run_barriered(main):
    env = CloudEnvironment.create(seed=shapes.SEED)
    return env, env.run(main)


def barriered_mergesort():
    """One ``map`` + ``get_result`` per level of the merge tree."""
    executor = pw.ibm_cf_executor()
    parts = executor.get_result(
        executor.map(shapes.chunk_sort, shapes.leaf_specs(shapes.sort_input()))
    )
    while len(parts) > 1:
        pairs = [[parts[i], parts[i + 1]] for i in range(0, len(parts), 2)]
        parts = executor.get_result(executor.map(shapes.merge_pair, pairs))
    return parts[0]


def barriered_wordcount():
    """Map stage, client barrier, then client-spawned reducers."""
    executor = pw.ibm_cf_executor()
    map_futures = executor.map(
        make_shuffle_map(shapes.word_pairs, shapes.N_REDUCERS), shapes.documents()
    )
    executor.get_result(map_futures)  # the barrier under test
    reducers = [
        executor.call_async(make_shuffle_reduce_fetch(shapes.count_values, i), map_futures)
        for i in range(shapes.N_REDUCERS)
    ]
    return merge_shuffle_results(executor.get_result(reducers))


@pytest.fixture(scope="module")
def runs():
    sort_env, merged = run_barriered(barriered_mergesort)
    assert merged == sorted(shapes.sort_input())
    count_env, counts = run_barriered(barriered_wordcount)
    assert counts == shapes.expected_counts()
    _, dag_sort, trace_a = shapes.run_merge_tree(trace=True)
    _, _, trace_b = shapes.run_merge_tree(trace=True)
    return {
        "barriered_sort": (round(sort_env.now(), 1), len(sort_env.platform.activations())),
        "dag_sort": (dag_sort["makespan_s"], dag_sort["activations"]),
        "barriered_wordcount": round(count_env.now(), 1),
        "dag_wordcount": round(shapes.run_wordcount().now(), 1),
        "dag_traces": (trace_a, trace_b),
    }


def test_dag_beats_barriered_mergesort(runs):
    # 90.1 s -> 87.7 s, 1.03x: early merges start while slow leaves run
    assert (runs["barriered_sort"][0], runs["dag_sort"][0]) == (90.1, 87.7)


def test_dag_not_slower_on_wordcount(runs):
    assert (runs["barriered_wordcount"], runs["dag_wordcount"]) == (6.8, 4.8)  # 1.42x


def test_same_activation_count_mergesort(runs):
    assert runs["barriered_sort"][1] == runs["dag_sort"][1] == 15


def test_dag_trace_byte_identical(runs):
    trace_a, trace_b = runs["dag_traces"]
    assert trace_a and trace_a == trace_b

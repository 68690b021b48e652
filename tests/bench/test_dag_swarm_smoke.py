"""DAG swarm: worker-driven vs centralized scheduling, seed 123 (tier-1).

The merge tree (fan-in), the chain of non-fusable 2 s stages swept over
depth (the centralized watcher pays a poll round and two WAN round trips
per level, swarm one in-cloud conditional PUT and invoke) and the
wide-then-deep graph of :mod:`tests.bench.shapes`, under both schedulers.
"""

from __future__ import annotations

import pytest

from tests.bench import shapes

SCHEDULERS = ("centralized", "swarm")
#: chain depth -> (centralized s, swarm s, swarm schedule bytes read)
CHAIN_SWEEP = {
    10: (34.3, 24.7, 4013),
    25: (81.4, 60.4, 10747),
    50: (160.0, 117.6, 21972),
    100: (322.0, 233.8, 44422),
}


def run_chain(scheduler, depth):
    return shapes.run_dag(lambda b: shapes.build_chain(b, depth), depth, scheduler)[1]


@pytest.fixture(scope="module")
def chains():
    return {depth: {s: run_chain(s, depth) for s in SCHEDULERS} for depth in CHAIN_SWEEP}


@pytest.fixture(scope="module")
def trees():
    return {s: shapes.run_merge_tree(s)[1] for s in SCHEDULERS}


def test_swarm_beats_centralized_chain_100(chains):
    measured = {
        depth: (r["centralized"]["makespan_s"], r["swarm"]["makespan_s"],
                r["swarm"]["schedule_bytes_read"])
        for depth, r in chains.items()
    }
    assert measured == CHAIN_SWEEP  # 1.38x at depth 100
    assert measured[100][1] < measured[100][0]


def test_chain_client_invocations_roots_only(chains):
    for depth, rows in chains.items():
        assert rows["centralized"]["client_invocations"] == depth
        assert rows["swarm"]["client_invocations"] == 1


def test_merge_tree_swarm_not_slower(trees):
    central, swarm = trees["centralized"], trees["swarm"]
    assert (central["makespan_s"], swarm["makespan_s"]) == (87.7, 83.6)  # 1.05x
    assert (swarm["client_invocations"], swarm["schedule_bytes_read"]) == (8, 6396)


def test_merge_tree_no_duplicate_activations(trees):
    assert trees["centralized"]["activations"] == trees["swarm"]["activations"] == 15


def test_wide_deep_swarm_not_slower():
    central, swarm = (
        shapes.run_dag(lambda b: shapes.build_wide_deep(b, 12, 12), sum(range(13)) + 12, s)[1]
        for s in SCHEDULERS
    )
    assert (central["makespan_s"], swarm["makespan_s"]) == (55.2, 44.5)  # 1.24x
    assert central["activations"] == swarm["activations"] == 25
    assert (swarm["client_invocations"], swarm["schedule_bytes_read"]) == (12, 10904)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_tiny_chain_runs(scheduler):
    row = run_chain(scheduler, depth=4)
    assert row["makespan_s"] > 0 and row["activations"] == 4
    if scheduler == "swarm":
        assert (row["client_invocations"], row["worker_invocations"]) == (1, 3)
    else:
        assert row["client_invocations"] == 4


def test_merge_tree_swarm_traced_runs_are_deterministic():
    """Two same-seed traced swarm merge trees export identical bytes."""
    _, row_a, trace_a = shapes.run_merge_tree("swarm", trace=True)
    _, row_b, trace_b = shapes.run_merge_tree("swarm", trace=True)
    assert row_a == row_b
    assert trace_a and trace_a == trace_b


def test_schedule_bytes_read_scale_linearly():
    """Each hand-off range-reads its own O(out-degree) slice, so doubling
    the merge tree doubles the schedule bytes read (a whole-graph fetch
    per hand-off quadruples them)."""
    totals = {}
    for leaves in (32, 64):
        with shapes.schedule_reads() as reads:
            _, row, _ = shapes.run_merge_tree("swarm", n_leaves=leaves, chunk=8)
        assert row["schedule_bytes_read"] == sum(reads)
        assert len(reads) == 2 * leaves - 2  # every non-root node, once
        assert max(reads) <= 1024 * (1 + 1)  # binary tree: out-degree 1
        totals[leaves] = sum(reads)
    assert totals[64] <= 2.5 * totals[32]

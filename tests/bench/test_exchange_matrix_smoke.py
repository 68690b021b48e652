"""Exchange matrix: which data plane wins at which shuffle scale (tier-1).

A keyed shuffle over volume x fan-out x backend, seed 123: each of ``M``
maps emits one padded payload per reducer, so a cell moves exactly
``volume`` bytes in ``M x R`` partitions.  ``vm`` cells model a
pre-provisioned cluster (1 s startup overlaps the job's spin-up, billed
from t=0); every cell polls at 50 ms.  Small partitions are
request-overhead-bound (COS wins or ties), big ones bandwidth-bound (VM).
"""

from __future__ import annotations

import functools

import pytest

import repro as pw
from repro.core import cost
from repro.core.environment import CloudEnvironment
from repro.core.shuffle import merge_shuffle_results, stable_key_hash

SEED = 123
VOLUMES = {"2MiB": 2 * 1024**2, "128MiB": 128 * 1024**2}
FANOUTS = ((4, 4), (8, 4))
BACKENDS = ("cos", "cached-cos", "vm")

#: cell -> backend -> (makespan s, COS requests get/list/put/range, total $)
PINNED = {
    "2MiB/m4r4": {
        "cos": (4.3442, (36, 3, 36, 8), 0.0002126),
        "cached-cos": (4.3442, (20, 3, 36, 8), 0.0002062),
        "vm": (4.3442, (20, 3, 36, 8), 0.00055012),
    },
    "2MiB/m8r4": {
        "cos": (3.8834, (60, 2, 60, 12), 0.0003388),
        "cached-cos": (3.8834, (28, 2, 60, 12), 0.000326),
        "vm": (3.8834, (28, 2, 60, 12), 0.00063344),
    },
    "128MiB/m4r4": {
        "cos": (5.0671, (36, 5, 36, 8), 0.0002226),
        "cached-cos": (4.5969, (20, 4, 36, 8), 0.0002112),
        "vm": (4.5638, (20, 4, 36, 8), 0.0005725),
    },
    "128MiB/m8r4": {
        "cos": (4.1392, (60, 3, 60, 12), 0.0003438),
        "cached-cos": (3.8834, (28, 2, 60, 12), 0.000326),
        "vm": (3.8834, (28, 2, 60, 12), 0.00063344),
    },
}


def reducer_keys(n_reducers: int) -> list[str]:
    """One key per reducer index, so every partition is addressable."""
    keys: dict[int, str] = {}
    serial = 0
    while len(keys) < n_reducers:
        candidate = f"k{serial:04d}"
        keys.setdefault(stable_key_hash(candidate) % n_reducers, candidate)
        serial += 1
    return [keys[r] for r in range(n_reducers)]


def synthetic_pairs(keys, payload_len, _item):
    return [(key, "x" * payload_len) for key in keys]


def sum_lengths(key, values):
    del key
    return sum(len(value) for value in values)


def run_cell(backend, volume, n_maps, n_reducers, trace=False):
    """One seeded cell; returns ``(row, normalized trace JSONL)``."""
    payload_len = max(volume // (n_maps * n_reducers), 1)
    keys = reducer_keys(n_reducers)
    env = CloudEnvironment.create(
        seed=SEED, trace=trace, config=pw.PyWrenConfig(poll_interval=0.05),
        exchange=pw.ExchangeConfig(backend=backend, vm_startup_s=1.0),
    )

    def main():
        executor = pw.ibm_cf_executor()
        reducers = executor.map_reduce_shuffle(
            functools.partial(synthetic_pairs, keys, payload_len),
            list(range(n_maps)), sum_lengths, n_reducers=n_reducers,
        )
        merged = merge_shuffle_results(executor.get_result(reducers))
        return merged, executor.trace_jsonl().replace(executor.executor_id, "EXEC")

    merged, jsonl = env.run(main)
    assert merged == {key: n_maps * payload_len for key in keys}
    counts = env.storage.request_counts()
    billing = env.exchange.billing(env.now())
    cos_usd = cost.cos_request_cost(counts)
    row = {
        "makespan_s": round(env.now(), 4),
        "partition_bytes": payload_len,
        "cos_requests": tuple(counts.get(op, 0) for op in ("get", "list", "put", "range")),
        "cos_cost_usd": round(cos_usd, 8),
        "vm_seconds": billing.get("vm_seconds", 0.0),
        "vm_cost_usd": billing.get("vm_cost_usd", 0.0),
        "total_cost_usd": round(cos_usd + billing.get("vm_cost_usd", 0.0), 8),
        "tier_hits": env.exchange.stats().get("hits", 0),
    }
    return row, jsonl


@pytest.fixture(scope="module")
def matrix():
    return {
        f"{name}/m{n_maps}r{n_reducers}": {
            backend: run_cell(backend, volume, n_maps, n_reducers)[0]
            for backend in BACKENDS
        }
        for name, volume in VOLUMES.items()
        for n_maps, n_reducers in FANOUTS
    }


def test_cells_match_pinned_numbers(matrix):
    assert {
        cell: {b: (r["makespan_s"], r["cos_requests"], r["total_cost_usd"]) for b, r in rows.items()}
        for cell, rows in matrix.items()
    } == PINNED


def test_vm_beats_cos_on_a_large_cell(matrix):
    wins = [
        cell for cell, rows in matrix.items()
        if rows["vm"]["makespan_s"] < rows["cos"]["makespan_s"]
    ]
    assert wins == ["128MiB/m4r4", "128MiB/m8r4"]


def test_cos_pareto_dominates_a_small_cell(matrix):
    """At 2 MiB direct COS is no slower and strictly cheaper than VM."""
    for cell in ("2MiB/m4r4", "2MiB/m8r4"):
        cos_row, vm_row = matrix[cell]["cos"], matrix[cell]["vm"]
        assert cos_row["makespan_s"] <= vm_row["makespan_s"]
        assert cos_row["total_cost_usd"] < vm_row["total_cost_usd"]


def test_every_cell_bills_cos_requests(matrix):
    assert all(row["cos_cost_usd"] > 0 for rows in matrix.values() for row in rows.values())


def test_vm_cells_bill_vm_seconds(matrix):
    for rows in matrix.values():
        assert rows["vm"]["vm_seconds"] > 0 and rows["vm"]["vm_cost_usd"] > 0
        assert rows["cos"]["vm_cost_usd"] == rows["cached-cos"]["vm_cost_usd"] == 0


def test_vm_tier_served_reads(matrix):
    assert all(rows["vm"]["tier_hits"] > 0 for rows in matrix.values())


@pytest.mark.parametrize("backend", BACKENDS)
def test_same_seed_traces_byte_identical(backend):
    _, trace_a = run_cell(backend, VOLUMES["2MiB"], 4, 4, trace=True)
    _, trace_b = run_cell(backend, VOLUMES["2MiB"], 4, 4, trace=True)
    assert trace_a and trace_a == trace_b


@pytest.mark.parametrize("backend", BACKENDS)
def test_tiny_cell_runs_and_bills(backend):
    row, _ = run_cell(backend, volume=64 * 1024, n_maps=2, n_reducers=2)
    assert row["makespan_s"] > 0
    assert row["partition_bytes"] == 16 * 1024
    assert row["cos_cost_usd"] > 0
    assert row["total_cost_usd"] >= row["cos_cost_usd"]
    if backend == "vm":
        assert row["vm_seconds"] > 0 and row["vm_cost_usd"] > 0
        assert row["tier_hits"] > 0
    else:
        assert row["vm_cost_usd"] == 0


def test_tiny_cell_traced_runs_are_deterministic():
    _, trace_a = run_cell("vm", volume=64 * 1024, n_maps=2, n_reducers=2, trace=True)
    _, trace_b = run_cell("vm", volume=64 * 1024, n_maps=2, n_reducers=2, trace=True)
    assert trace_a and trace_a == trace_b


def test_reducer_keys_cover_every_partition():
    assert [stable_key_hash(k) % 4 for k in reducer_keys(4)] == [0, 1, 2, 3]

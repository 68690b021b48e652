"""Bench: COS shuffle — reducer-count sweep for keyed MapReduce.

Extension bench (the paper's §2 names shuffling as serverless MapReduce's
open challenge): a keyed aggregation whose reduce work parallelizes across
R reducers through per-reducer COS buckets.  More reducers shorten the
reduce phase until per-reducer overheads dominate.
"""

from __future__ import annotations

import repro
from repro.bench.reporting import Table
from repro.core.environment import CloudEnvironment
from repro.core.shuffle import merge_shuffle_results
from repro.net.latency import LatencyModel

N_KEYS = 64
N_MAPS = 40
#: modelled per-key reduce compute (seconds)
REDUCE_SECONDS_PER_KEY = 1.0


def _emit(seed):
    """Map task: one (key, value) pair per key — even key distribution."""
    return [(f"key-{k:03d}", seed * k) for k in range(N_KEYS)]


def _reduce(key, values):
    import repro as _repro

    _repro.sleep(REDUCE_SECONDS_PER_KEY)
    return sum(values)


def _run(n_reducers: int, seed: int = 23) -> tuple[float, dict]:
    env = CloudEnvironment.create(client_latency=LatencyModel.wan(), seed=seed)

    def main():
        executor = repro.ibm_cf_executor(invoker_mode="massive")
        t0 = env.now()
        reducers = executor.map_reduce_shuffle(
            _emit, list(range(1, N_MAPS + 1)), _reduce, n_reducers=n_reducers
        )
        merged = merge_shuffle_results(executor.get_result(reducers))
        return env.now() - t0, merged

    return env.run(main)


def test_shuffle_reducer_sweep(benchmark, emit):
    reducer_counts = [1, 2, 4, 8, 16]

    def run_all():
        return {r: _run(r) for r in reducer_counts}

    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = Table(["reducers", "exec time (s)", "speedup vs 1 reducer"])
    base_time = results[1][0]
    for r in reducer_counts:
        elapsed, _merged = results[r]
        table.add_row(r, round(elapsed, 1), f"{base_time / elapsed:.2f}x")
    emit(
        table,
        f"Shuffle ablation — {N_MAPS} maps x {N_KEYS} keys, "
        f"{REDUCE_SECONDS_PER_KEY:.0f} s reduce/key",
    )

    # correctness is identical at every reducer count
    expected = {
        f"key-{k:03d}": sum(seed * k for seed in range(1, N_MAPS + 1))
        for k in range(N_KEYS)
    }
    for r in reducer_counts:
        assert results[r][1] == expected

    # the reduce phase parallelizes: 16 reducers beat 1 by a wide margin
    times = {r: results[r][0] for r in reducer_counts}
    assert times[16] < times[4] < times[1]
    assert times[1] / times[16] > 3.0
    # ... but gains flatten: hash partitioning of 64 keys over 16 reducers
    # leaves the straggler reducer with several keys (key skew)
    gain_4_to_8 = times[4] - times[8]
    gain_8_to_16 = times[8] - times[16]
    assert gain_8_to_16 < gain_4_to_8

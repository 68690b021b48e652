"""Fig. 4 — dynamic composition: serverless mergesort (§6.3).

Arrays of N = 500 K ... 25 M integers are sorted with a *function tree* of
depth d = 0..4 (a function at depth < d spawns two children through a
nested executor; leaves sort locally).  Expected shape, per the paper:
sort time grows linearly with N for every depth; greater depth wins at
larger workloads; improvements level off beyond d = 3 because spawning
overheads start to dominate.

The real algorithm lives in :mod:`repro.sort.mergesort` and is exercised
with genuine data by tests and the example.  Here N reaches 25 M, so leaf
sorts and merges are charged through the calibrated cost model
(:mod:`repro.core.cost`) while the composition machinery — nested
executors, futures through COS, function spawning — runs for real.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.bench.reporting import Table
from repro.core import cost
from repro.core.environment import CloudEnvironment
from repro.net.latency import LatencyModel
from repro.net.link import DEFAULT_BANDWIDTH_BPS

#: §6.3's sweep: 500 K to 25 M integers
ARRAY_SIZES = (500_000, 1_000_000, 5_000_000, 10_000_000, 25_000_000)

#: function-tree depths of Fig. 4
DEPTHS = (0, 1, 2, 3, 4)


def _transfer_seconds(n: int) -> float:
    """Modelled COS transfer time for an n-integer array (one direction)."""
    return cost.array_bytes(n) / DEFAULT_BANDWIDTH_BPS


def _bench_sort_task(payload: dict) -> dict:
    """Cost-modelled mergesort tree node (runs as a real cloud function)."""
    import repro
    from repro.core import cost as _cost

    n: int = payload["n"]
    depth: int = payload["depth"]
    if depth <= 0 or n <= 1:
        repro.sleep(_cost.sort_seconds(n))
        return {"n": n}
    executor = repro.ibm_cf_executor()
    half = n // 2
    # shipping both halves through COS to the children
    repro.sleep(_transfer_seconds(n))
    futures = executor.map(
        _bench_sort_task,
        [
            {"n": half, "depth": depth - 1},
            {"n": n - half, "depth": depth - 1},
        ],
    )
    executor.get_result(futures)
    # children results come back through COS, then the local merge pass
    repro.sleep(_transfer_seconds(n))
    repro.sleep(_cost.merge_seconds(n))
    return {"n": n}


@dataclass
class MergesortPoint:
    n: int
    depth: int
    seconds: float
    functions_spawned: int


def run_point(n: int, depth: int, seed: int = 42) -> MergesortPoint:
    """Time one (N, depth) configuration in a fresh environment."""
    env = CloudEnvironment.create(client_latency=LatencyModel.wan(), seed=seed)

    def main() -> float:
        import repro

        executor = repro.ibm_cf_executor()
        t0 = env.now()
        future = executor.call_async(_bench_sort_task, {"n": n, "depth": depth})
        future.result()
        return env.now() - t0

    seconds = env.run(main)
    n_functions = 2 ** (depth + 1) - 1
    return MergesortPoint(n=n, depth=depth, seconds=seconds, functions_spawned=n_functions)


def run_fig4(
    array_sizes=ARRAY_SIZES, depths=DEPTHS, seed: int = 42
) -> list[MergesortPoint]:
    return [
        run_point(n, depth, seed=seed) for depth in depths for n in array_sizes
    ]


def report(points: list[MergesortPoint]) -> Table:
    table = Table(["N"] + [f"d={d}" for d in sorted({p.depth for p in points})])
    by_n: dict[int, dict[int, float]] = {}
    for point in points:
        by_n.setdefault(point.n, {})[point.depth] = point.seconds
    for n in sorted(by_n):
        table.add_row(f"{n:,}", *(f"{by_n[n][d]:.1f}" for d in sorted(by_n[n])))
    return table

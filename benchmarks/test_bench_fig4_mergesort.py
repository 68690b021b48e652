"""Bench: Fig. 4 — dynamic composition (serverless mergesort, §6.3)."""

from __future__ import annotations

from repro.bench import fig4_mergesort as fig4


def test_fig4_mergesort(benchmark, emit):
    """Execution time vs N for function-tree depths d=0..4."""
    points = benchmark.pedantic(fig4.run_fig4, rounds=1, iterations=1)
    emit(fig4.report(points))

    by = {(p.n, p.depth): p.seconds for p in points}
    ns = sorted({p.n for p in points})
    depths = sorted({p.depth for p in points})

    # sort time increases (essentially linearly) with N for every depth
    for d in depths:
        times = [by[(n, d)] for n in ns]
        assert times == sorted(times)
        # linear-ish: 25M (50x the elements of 500K) costs < 80x the time
        assert times[-1] / times[0] < 80.0

    # greater depth wins at the largest workload ...
    assert by[(25_000_000, 3)] < by[(25_000_000, 1)] < by[(25_000_000, 0)]
    # ... by a large factor (parallelism is real)
    assert by[(25_000_000, 0)] / by[(25_000_000, 3)] >= 4.0
    # "the major improvements came from depths up to d=3. Beyond that,
    # the degree of improvement was lower"
    gain_2_to_3 = by[(25_000_000, 2)] - by[(25_000_000, 3)]
    gain_3_to_4 = by[(25_000_000, 3)] - by[(25_000_000, 4)]
    assert gain_3_to_4 < gain_2_to_3
    # at the smallest workload, deep trees are not worth it: d=4 gains
    # little (or loses) versus d=3
    assert by[(500_000, 4)] >= by[(500_000, 3)] - 2.0

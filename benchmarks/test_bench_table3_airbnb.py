"""Bench: Table 3 — the real MapReduce job (Airbnb tone analysis, §6.4)."""

from __future__ import annotations

from repro.bench import table3_airbnb as t3
from repro.bench.reporting import documented
from repro.datasets import airbnb


def test_table3_airbnb(benchmark, emit):
    """Chunk-size sweep 64 MB -> 2 MB over the 1.9 GB 33-city dataset."""
    rows = benchmark.pedantic(t3.run_table3, rounds=1, iterations=1)
    table = t3.report(rows).render()
    emit(table)
    assert table == documented("table3"), f"EXPERIMENTS.md's table3 block is stale:\n{table}"

    sequential, *parallel = rows
    assert sequential.chunk_size is None
    # paper: 5,160 s sequential baseline
    assert abs(sequential.exec_time_s - t3.PAPER_SEQUENTIAL_S) / t3.PAPER_SEQUENTIAL_S < 0.05

    # concurrency column: within a few executors of the paper's counts
    # (it is a pure function of the city-size distribution)
    for row in parallel:
        chunk_mb = row.chunk_size // (1024 * 1024)
        paper_conc, paper_time, paper_speedup = t3.PAPER_ROWS[chunk_mb]
        assert abs(row.concurrency - paper_conc) / paper_conc < 0.06, chunk_mb
        # time/speedup shape: within ~1.5x of the paper's measurements
        assert paper_time / 1.6 <= row.exec_time_s <= paper_time * 1.6, chunk_mb
        assert paper_speedup / 1.6 <= row.speedup <= paper_speedup * 1.6, chunk_mb

    # smaller chunks -> more executors -> faster (monotone columns)
    concurrencies = [row.concurrency for row in parallel]
    times = [row.exec_time_s for row in parallel]
    speedups = [row.speedup for row in parallel]
    assert concurrencies == sorted(concurrencies)
    assert times == sorted(times, reverse=True)
    assert speedups == sorted(speedups)

    # headline claim: "speedups > 100X"
    assert speedups[-1] > 100.0
    # and the extrapolated comment totals stay near the dataset's 3,695,107
    for row in parallel:
        assert abs(row.comments - airbnb.TOTAL_COMMENTS) / airbnb.TOTAL_COMMENTS < 0.25

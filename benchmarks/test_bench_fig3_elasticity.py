"""Bench: Fig. 3 — elasticity and concurrency (§6.2)."""

from __future__ import annotations

from repro.bench import fig3_elasticity as fig3
from repro.bench.reporting import documented
from repro.core import cost


def test_fig3_elasticity(benchmark, emit):
    """500/1000/1500/2000 x 60 s functions reach full concurrency."""
    results = benchmark.pedantic(fig3.run_fig3, rounds=1, iterations=1)
    table = fig3.report(results).render()
    emit(table)
    assert table == documented("fig3"), f"EXPERIMENTS.md's fig3 block is stale:\n{table}"

    assert [r.n_functions for r in results] == list(fig3.WORKLOADS)
    for result in results:
        # the paper's headline: "the black line met the target workload
        # size in all the experiments"
        assert result.reached_full_concurrency, (
            f"workload {result.n_functions}: peak {result.peak_concurrency}"
        )
        # every function really computed for ~60 s
        assert result.mean_duration_s >= cost.FIG3_TASK_SECONDS
        assert result.mean_duration_s <= cost.FIG3_TASK_SECONDS + 5.0
        # spawning stayed in the massive-spawning regime, not minutes
        assert result.total_s <= cost.FIG3_TASK_SECONDS + 40.0

    # elasticity: each +500 step did not blow up the total time
    totals = [r.total_s for r in results]
    assert max(totals) - min(totals) <= 30.0

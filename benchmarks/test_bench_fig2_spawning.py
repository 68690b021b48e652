"""Bench: Fig. 2 + §6.1 — massive function spawning vs local invocation."""

from __future__ import annotations

from repro.bench import fig2_spawning as fig2
from repro.config import InvokerMode


def test_fig2_local_vs_massive(benchmark, emit):
    """1,000 x 50 s functions: local WAN client vs massive spawning."""
    results = benchmark.pedantic(fig2.run_fig2, rounds=1, iterations=1)
    emit(fig2.report(results))

    local, massive = results
    assert local.mode == InvokerMode.LOCAL
    assert massive.mode == InvokerMode.MASSIVE

    # Paper: 38 s vs 8 s invocation phase (~5x); 88 s vs 58 s total.
    assert 25.0 <= local.invocation_phase_s <= 55.0
    assert 5.0 <= massive.invocation_phase_s <= 14.0
    assert local.invocation_phase_s / massive.invocation_phase_s >= 3.0
    assert local.total_s >= local.invocation_phase_s + 49.0
    assert massive.total_s <= 70.0
    # full concurrency was reached in both configurations
    assert max(level for _t, level in massive.concurrency) == 1000


def test_invoker_mode_sweep(benchmark, emit):
    """§5.1's narrative: lan ~8 s, wan ~40 s, remote ~20 s, massive ~8 s."""
    results = benchmark.pedantic(
        fig2.run_invoker_sweep, kwargs={"n_functions": 1000}, rounds=1, iterations=1
    )
    emit(fig2.report(results))
    by_label = {r.label: r for r in results}

    lan = by_label["local (lan client)"]
    wan = by_label["local (wan client)"]
    remote = by_label["remote (wan client)"]
    massive = by_label["massive (wan client)"]

    assert 5.0 <= lan.invocation_phase_s <= 12.0
    assert 25.0 <= wan.invocation_phase_s <= 55.0
    # the single remote invoker lands between local-WAN and massive
    assert massive.invocation_phase_s < remote.invocation_phase_s < wan.invocation_phase_s
    assert 14.0 <= remote.invocation_phase_s <= 28.0
    # massive spawning restores low-latency-client performance (§5.1)
    assert abs(massive.invocation_phase_s - lan.invocation_phase_s) <= 4.0

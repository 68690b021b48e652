"""Ablation benches for the design choices DESIGN.md §6 calls out.

Not a paper table — these quantify *why* the paper's design parameters are
what they are: the massive-spawning group size of 100, sequential (vs
pooled) in-group invocation, and warm-container reuse.
"""

from __future__ import annotations

import pytest

from repro.bench import fig2_spawning as fig2
from repro.bench.reporting import Table
from repro.config import InvokerMode
from repro.core.environment import CloudEnvironment
from repro.faas.limits import SystemLimits
from repro.net.latency import LatencyModel


def _run_group_size(group_size: int, n: int = 1000):
    result = None
    limits = SystemLimits(max_concurrent=n + 64)
    env = CloudEnvironment.create(
        client_latency=LatencyModel.wan(), limits=limits, seed=7
    )

    def _task(_):
        import repro

        repro.sleep(10)
        return 1

    def main():
        import repro

        executor = repro.ibm_cf_executor(
            invoker_mode=InvokerMode.MASSIVE, massive_group_size=group_size
        )
        t0 = env.now()
        futures = executor.map(_task, [0] * n)
        executor.get_result(futures)
        records = [
            r
            for r in env.platform.activations()
            if r.action_name.startswith("pywren_runner")
        ]
        return max(r.start_time for r in records) - t0

    return env.run(main)


def test_ablation_group_size(benchmark, emit):
    """Sweep the massive-spawning group size around the paper's 100."""
    group_sizes = [25, 50, 100, 250, 1000]

    def run_all():
        return {g: _run_group_size(g) for g in group_sizes}

    times = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = Table(["group size", "invoker functions", "invocation phase (s)"])
    for g in group_sizes:
        table.add_row(g, -(-1000 // g), round(times[g], 1))
    emit(table, "Ablation — massive spawning group size (1,000 invocations)")

    # one giant group degenerates to the single-remote-invoker design
    assert times[1000] > times[100] * 1.5
    # invocation time degrades monotonically as groups grow past 100
    assert times[100] < times[250] < times[1000]
    # the paper's choice of 100 stays within 2x of the best group size
    assert times[100] <= min(times.values()) * 2.0


def test_ablation_warm_start(benchmark, emit):
    """Warm containers make a second identical map dramatically cheaper."""
    env = CloudEnvironment.create(seed=11)

    def _task(x):
        return x

    def main():
        import repro

        executor = repro.ibm_cf_executor()
        t0 = env.now()
        executor.get_result(executor.map(_task, list(range(50))))
        first = env.now() - t0
        t0 = env.now()
        executor.get_result(executor.map(_task, list(range(50))))
        second = env.now() - t0
        records = env.platform.activations()
        cold = sum(1 for r in records if r.cold_start)
        warm = sum(1 for r in records if not r.cold_start)
        return first, second, cold, warm

    first, second, cold, warm = benchmark.pedantic(main_wrapper(env, main), rounds=1, iterations=1)
    table = Table(["round", "virtual time (s)", "cold starts", "warm starts"])
    table.add_row("first (cold)", round(first, 1), cold, "-")
    table.add_row("second (warm)", round(second, 1), "-", warm)
    emit(table, "Ablation — cold vs warm container starts (50-call map, twice)")

    assert warm >= 50  # the second round reused containers
    assert second < first


def main_wrapper(env, fn):
    """Adapter: run ``fn`` through the environment inside the benchmark."""

    def _run():
        return env.run(fn)

    return _run


def test_ablation_cpu_contention(benchmark, emit):
    """Duration variability from cluster packing (§6.2's fast/slow spread).

    With the contention model on, functions on loaded invoker nodes get a
    smaller compute share; packing the same job onto a smaller cluster
    stretches both the mean and the tail of function durations.
    """
    import repro
    from repro.core.stats import collect_job_stats

    def run(invoker_count, coeff, seed=19):
        limits = SystemLimits(
            invoker_count=invoker_count, invoker_memory_mb=25_600
        )
        env = CloudEnvironment.create(limits=limits, seed=seed)
        env.platform.contention_coeff = coeff

        def main():
            executor = repro.ibm_cf_executor(invoker_mode=InvokerMode.MASSIVE)

            def task(_):
                repro.compute(60)

            futures = executor.map(task, [0] * 150)
            executor.get_result(futures)
            return collect_job_stats(futures)

        return env.run(main)

    def run_all():
        return {
            "off (4 nodes)": run(4, 0.0),
            "on (16 nodes)": run(16, 0.5),
            "on (4 nodes)": run(4, 0.5),
            "on (2 nodes)": run(2, 0.5),
        }

    stats = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = Table(["configuration", "mean (s)", "p95 (s)", "max (s)"])
    for label, s in stats.items():
        table.add_row(
            label,
            round(s.mean_duration, 1),
            round(s.p95_duration, 1),
            round(s.max_duration, 1),
        )
    emit(table, "Ablation — CPU contention (150 x 60 s nominal functions)")

    assert stats["off (4 nodes)"].mean_duration == pytest.approx(60.0, abs=0.5)
    # denser packing -> slower means
    assert (
        stats["on (16 nodes)"].mean_duration
        < stats["on (4 nodes)"].mean_duration
        < stats["on (2 nodes)"].mean_duration
    )


def test_ablation_monitoring_transport(benchmark, emit):
    """COS polling vs MQ push: time to collect a short job's results.

    Push monitoring removes the poll-interval quantization from completion
    discovery; the advantage grows with the poll interval.
    """
    from repro.config import MonitoringTransport

    def run(monitoring, poll_interval, seed):
        env = CloudEnvironment.create(
            client_latency=LatencyModel.wan(), seed=seed
        )

        def _task(_):
            import repro

            repro.sleep(2.0)
            return 1

        def main():
            import repro

            executor = repro.ibm_cf_executor(
                monitoring=monitoring, poll_interval=poll_interval
            )
            t0 = env.now()
            executor.get_result(executor.map(_task, [0] * 50))
            return env.now() - t0

        return env.run(main)

    def run_all():
        rows = []
        for poll in (1.0, 5.0, 15.0):
            polling = run(MonitoringTransport.COS_POLLING, poll, seed=3)
            push = run(MonitoringTransport.MQ_PUSH, poll, seed=3)
            rows.append((poll, polling, push))
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = Table(["poll interval (s)", "COS polling (s)", "MQ push (s)"])
    for poll, polling, push in rows:
        table.add_row(poll, round(polling, 1), round(push, 1))
    emit(table, "Ablation — completion transport (50 x 2 s functions, WAN client)")

    for poll, polling, push in rows:
        assert push <= polling + 0.5
    # push time is independent of the poll interval; polling degrades
    push_times = [push for _p, _polling, push in rows]
    assert max(push_times) - min(push_times) < 2.0
    assert rows[-1][1] > rows[0][1]

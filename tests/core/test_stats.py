"""Tests for job execution statistics."""

from __future__ import annotations

import pytest

import repro as pw
from repro.core.stats import (
    CallRecord,
    _percentile,
    collect_job_stats,
    stats_from_call_records,
)


class _StubFuture:
    """Minimal future: a fixed status dict plus an invoke count."""

    def __init__(self, start, end, success, invoke_count=1):
        self._status = {"start_time": start, "end_time": end, "success": success}
        self.invoke_count = invoke_count

    def status(self):
        return self._status


class TestCollect:
    def test_stats_from_real_job(self, env):
        def main():
            executor = pw.ibm_cf_executor()

            def busy(i):
                pw.sleep(10 + i * 2)
                return i

            futures = executor.map(busy, list(range(5)))
            executor.get_result(futures)
            return collect_job_stats(futures)

        stats = env.run(main)
        assert stats.n_calls == 5
        assert stats.max_duration >= 18.0
        assert stats.mean_duration == pytest.approx(14.0, abs=1.0)
        assert stats.p50_duration <= stats.p95_duration <= stats.max_duration
        assert stats.makespan >= stats.max_duration
        assert stats.spawn_spread >= 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            collect_job_stats([])

    def test_straggler_ratio(self, env):
        def main():
            executor = pw.ibm_cf_executor()

            def maybe_slow(i):
                pw.sleep(100 if i == 0 else 10)
                return i

            futures = executor.map(maybe_slow, list(range(6)))
            executor.get_result(futures)
            return collect_job_stats(futures)

        stats = env.run(main)
        assert stats.max_duration / stats.p50_duration == pytest.approx(10.0, rel=0.1)

    def test_even_job_ratio_near_one(self, env):
        def main():
            executor = pw.ibm_cf_executor()

            def even(_):
                pw.sleep(20)

            futures = executor.map(even, [0] * 4)
            executor.get_result(futures)
            return collect_job_stats(futures)

        stats = env.run(main)
        assert stats.max_duration / stats.p50_duration == pytest.approx(1.0, abs=0.05)

    def test_spawn_spread_reflects_invocation_ramp(self, cloud):
        """A 1-thread invoker pool stretches the ramp; stats expose it."""
        narrow_env = cloud(seed=31)

        def main_narrow():
            executor = pw.ibm_cf_executor(invoker_pool_size=1)
            futures = executor.map(lambda x: x, list(range(10)))
            executor.get_result(futures)
            return collect_job_stats(futures).spawn_spread

        wide_env = cloud(seed=31)

        def main_wide():
            executor = pw.ibm_cf_executor(invoker_pool_size=10)
            futures = executor.map(lambda x: x, list(range(10)))
            executor.get_result(futures)
            return collect_job_stats(futures).spawn_spread

        assert narrow_env.run(main_narrow) > wide_env.run(main_wide)


class TestPercentile:
    """Pin the linear-interpolation semantics to exact values."""

    def test_interpolates_between_ranks(self):
        assert _percentile([1.0, 2.0, 3.0, 4.0], 0.95) == pytest.approx(3.85)
        assert _percentile([1.0, 2.0, 3.0, 4.0], 0.5) == pytest.approx(2.5)

    def test_exact_rank_needs_no_interpolation(self):
        assert _percentile([1.0, 2.0, 3.0], 0.5) == 2.0

    def test_extremes(self):
        values = [10.0, 20.0, 30.0]
        assert _percentile(values, 0.0) == 10.0
        assert _percentile(values, 1.0) == 30.0

    def test_degenerate_inputs(self):
        assert _percentile([], 0.5) == 0.0
        assert _percentile([7.0], 0.95) == 7.0

    def test_job_percentiles_use_interpolation(self):
        records = [CallRecord(start=0.0, end=float(d), success=True) for d in (1, 2, 3, 4)]
        stats = stats_from_call_records(records)
        assert stats.p50_duration == pytest.approx(2.5)
        assert stats.p95_duration == pytest.approx(3.85)


class TestEdgeCases:
    """collect_job_stats over buried / mixed / retried futures."""

    def test_all_buried(self):
        futures = [_StubFuture(None, None, False) for _ in range(3)]
        stats = collect_job_stats(futures)
        assert stats.n_calls == 3
        assert stats.failed_calls == 3
        assert stats.makespan == 0.0
        assert stats.mean_duration == 0.0

    def test_mixed_buried_and_successful(self):
        futures = [
            _StubFuture(0.0, 10.0, True),
            _StubFuture(2.0, 6.0, True),
            _StubFuture(None, None, False),  # buried: no timestamps
        ]
        stats = collect_job_stats(futures)
        assert stats.n_calls == 3
        assert stats.failed_calls == 1
        # timing aggregates come from the calls that actually ran
        assert stats.first_start == 0.0
        assert stats.last_start == 2.0
        assert stats.last_end == 10.0
        assert stats.mean_duration == pytest.approx(7.0)

    def test_retries_counted_from_invoke_count(self):
        futures = [
            _StubFuture(0.0, 5.0, True, invoke_count=3),
            _StubFuture(0.0, 5.0, True, invoke_count=1),
            _StubFuture(0.0, 5.0, True, invoke_count=0),  # never marked: floor at 1
        ]
        stats = collect_job_stats(futures)
        assert stats.retries_total == 2
        assert stats.failed_calls == 0

    def test_failed_but_executed_call_keeps_timestamps(self):
        futures = [_StubFuture(1.0, 4.0, False)]
        stats = collect_job_stats(futures)
        assert stats.failed_calls == 1
        assert stats.max_duration == 3.0

"""Integration tests for the deterministic fault-injection plane.

Covers the tentpole's acceptance criteria: the ``none`` profile is
byte-identical to running without chaos, a (profile, seed) pair reproduces
the exact same fault timeline, and the executor recovers end-to-end —
storms included — or degrades into partial results plus a
:class:`~repro.core.futures.FailureReport`.
"""

from __future__ import annotations

import pytest

import repro as pw
from repro.chaos import ChaosPlane, ChaosProfile, build_plane
from repro.core.futures import FailureReport


def square(x):
    return x * x


def run_job(chaos=None, n=40, seed=123, **config_kwargs):
    """One map job; returns (results, final virtual time, env)."""
    from repro.core.environment import CloudEnvironment

    env = CloudEnvironment.create(seed=seed, chaos=chaos)
    if config_kwargs:
        env.config = env.config.with_overrides(**config_kwargs)

    def main():
        executor = pw.ibm_cf_executor()
        executor.map(square, list(range(n)))
        return executor.get_result()

    results = env.run(main)
    return results, env.now(), env


class TestProfileValidation:
    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos profile"):
            ChaosProfile("hurricane")

    def test_unknown_knob_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos knobs"):
            ChaosProfile("storm", seed=1, crash_probability=0.5)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            ChaosProfile("none", crash_prob=1.5)

    def test_none_profile_is_inert(self):
        assert not ChaosProfile("none").enabled
        assert build_plane("none") is None
        assert build_plane(ChaosProfile("none", seed=9)) is None
        assert build_plane(None) is None

    def test_enabled_profiles_build_planes(self):
        for name in ("flaky-cos", "crashy-workers", "storm"):
            plane = build_plane(ChaosProfile(name, seed=1))
            assert isinstance(plane, ChaosPlane)


class TestNoneProfileByteIdentical:
    def test_none_profile_matches_chaos_free_run(self):
        base_results, base_t, base_env = run_job(chaos=None)
        none_results, none_t, none_env = run_job(chaos="none")
        assert none_results == base_results
        assert none_t == base_t  # identical virtual timeline
        assert none_env.chaos is None  # the plane was never built


class TestDeterminism:
    @pytest.mark.parametrize("name", ["flaky-cos", "crashy-workers", "storm"])
    def test_same_profile_and_seed_reproduces_timeline(self, name):
        runs = []
        for _ in range(2):
            profile = ChaosProfile(name, seed=7)
            results, t, env = run_job(chaos=profile, n=30)
            runs.append((results, t, env.chaos.timeline_key()))
        assert runs[0] == runs[1]
        # the profile actually did something (storm/flaky always fault
        # somewhere in 30 calls at these rates; tolerate quiet crashy runs)
        if name != "crashy-workers":
            assert runs[0][2]

    def test_different_seeds_differ(self):
        _, _, env_a = run_job(chaos=ChaosProfile("storm", seed=7), n=30)
        _, _, env_b = run_job(chaos=ChaosProfile("storm", seed=8), n=30)
        assert env_a.chaos.timeline_key() != env_b.chaos.timeline_key()


class TestEndToEndRecovery:
    def test_storm_map_reduce_matches_fault_free_run(self):
        """Acceptance: 200 calls under storm == the fault-free answer."""
        n = 200
        data = list(range(n))

        def run(chaos):
            from repro.core.environment import CloudEnvironment

            env = CloudEnvironment.create(seed=123, chaos=chaos)

            def main():
                executor = pw.ibm_cf_executor()
                future = executor.map_reduce(square, data, sum)
                return executor.get_result(future)

            return env.run(main), env

        clean, _ = run(None)
        stormy, env = run(ChaosProfile("storm", seed=7))
        assert stormy == clean == sum(x * x for x in data)
        # faults were actually injected and survived
        assert env.chaos.fault_counts()

    def test_lost_calls_reinvoked_within_budget(self):
        profile = ChaosProfile("crashy-workers", seed=3, crash_prob=0.3)
        from repro.core.environment import CloudEnvironment

        env = CloudEnvironment.create(seed=123, chaos=profile)

        def main():
            executor = pw.ibm_cf_executor()
            futures = executor.map(square, list(range(40)), retries=5)
            results = executor.get_result(futures)
            return results, futures, executor.resilience_stats()

        results, futures, stats = env.run(main)
        assert results == [x * x for x in range(40)]
        assert stats["invocation_retries"] >= 1
        for future in futures:
            # every call ran at most 1 + retries times
            assert 1 <= future.invoke_count <= 6

    def test_flaky_cos_completes_with_retries(self):
        results, _, env = run_job(chaos=ChaosProfile("flaky-cos", seed=5), n=25)
        assert results == [x * x for x in range(25)]
        counts = env.chaos.fault_counts()
        assert any(key.startswith("cos:") for key in counts)

    def test_storm_injects_throttles(self):
        _, _, env = run_job(chaos=ChaosProfile("storm", seed=11), n=60)
        counts = env.chaos.fault_counts()
        assert counts.get("throttle:429", 0) >= 1


class TestPartialResults:
    def _run_unrecoverable(self, throw_except):
        # every container dies and the retry budget is tiny: unrecoverable
        profile = ChaosProfile(
            "crashy-workers", seed=2, crash_prob=1.0, hang_prob=0.0
        )
        from repro.core.environment import CloudEnvironment

        env = CloudEnvironment.create(seed=123, chaos=profile)

        def main():
            executor = pw.ibm_cf_executor()
            futures = executor.map(square, [1, 2, 3], retries=1)
            value = executor.get_result(futures, throw_except=throw_except)
            # the dead-letter object must be readable in the same run: the
            # kernel shuts down when the client program returns
            key = executor._storage.deadletter_key(
                executor.executor_id, futures[0].callset_id
            )
            raw = executor._cos.get_object(executor.config.storage_bucket, key)
            stored = FailureReport.from_json(raw.decode("utf-8"))
            return value, stored

        return env.run(main), env

    def test_partial_results_and_failure_report(self):
        ((values, report), _stored), env = self._run_unrecoverable(
            throw_except=False
        )
        assert values == [None, None, None]
        assert isinstance(report, FailureReport)
        assert len(report) == 3
        for failure in report.failures:
            assert failure.lost
            assert failure.attempts == 2  # first try + 1 retry
            assert "container" in (failure.error or "")
        assert "3 call(s) failed" in report.summary()

    def test_deadletter_persisted_in_cos(self):
        (_value, stored), _env = self._run_unrecoverable(throw_except=False)
        assert isinstance(stored, FailureReport)
        assert len(stored) == 3

    def test_throw_except_true_raises(self):
        from repro.core.errors import FunctionError

        with pytest.raises(FunctionError, match="container"):
            self._run_unrecoverable(throw_except=True)


class TestMixedOutcomes:
    def test_partial_success_keeps_good_results(self):
        """Only some calls die; survivors' results come back in order."""

        profile = ChaosProfile("crashy-workers", seed=4, crash_prob=0.5)
        from repro.core.environment import CloudEnvironment

        env = CloudEnvironment.create(seed=123, chaos=profile)

        def main():
            executor = pw.ibm_cf_executor()
            futures = executor.map(square, list(range(12)), retries=0)
            values, report = executor.get_result(futures, throw_except=False)
            return values, report

        values, report = env.run(main)
        assert len(values) == 12
        failed = {f.call_id for f in report.failures}
        assert 0 < len(failed) < 12  # seed chosen so both kinds occur
        for i, value in enumerate(values):
            if f"{i:05d}" in failed:
                assert value is None
            else:
                assert value == i * i


class TestStatsSurface:
    def test_job_stats_count_retries_and_failures(self):
        from repro.core.environment import CloudEnvironment
        from repro.core.stats import collect_job_stats

        profile = ChaosProfile("crashy-workers", seed=3, crash_prob=0.3)
        env = CloudEnvironment.create(seed=123, chaos=profile)

        def main():
            executor = pw.ibm_cf_executor()
            futures = executor.map(square, list(range(30)), retries=5)
            executor.get_result(futures)
            return collect_job_stats(futures)

        stats = env.run(main)
        assert stats.n_calls == 30
        assert stats.retries_total >= 1
        assert stats.failed_calls == 0  # everything recovered

    def test_resilience_stats_shape(self):
        from repro.core.environment import CloudEnvironment

        env = CloudEnvironment.create(
            seed=123, chaos=ChaosProfile("flaky-cos", seed=5)
        )

        def main():
            executor = pw.ibm_cf_executor()
            executor.map(square, list(range(10)))
            executor.get_result()
            return executor.resilience_stats()

        stats = env.run(main)
        assert set(stats) == {
            "invocation_retries",
            "cos_request_retries",
            "invoke_network_retries",
            "throttle_retries",
            "faults_injected",
        }

"""Container-crash injection and client-side recovery."""

from __future__ import annotations

import pytest

import repro as pw
from repro.chaos import ChaosProfile
from repro.core.errors import ResultTimeoutError
from repro.core.environment import CloudEnvironment


def _crashy(seed: int, crash_prob: float) -> CloudEnvironment:
    """Container crashes and nothing else, from the one fault injector."""
    return CloudEnvironment.create(
        seed=seed, chaos=ChaosProfile("none", seed=seed, crash_prob=crash_prob)
    )


def _runner_records(env: CloudEnvironment) -> list:
    return [
        r
        for r in env.platform.activations()
        if r.action_name.startswith("pywren_runner")
    ]


class TestCrashInjection:
    def test_crashed_activations_recorded_as_infrastructure_errors(self):
        env = _crashy(seed=5, crash_prob=0.5)

        def main():
            executor = pw.ibm_cf_executor()
            # retries=0: one activation per call, a crashed one is buried
            futures = executor.map(lambda x: x, list(range(30)), retries=0)
            executor.wait(futures, timeout=60)
            records = _runner_records(env)
            crashed = {
                r.activation_id for r in records if r.error and "crashed" in r.error
            }
            lost = {
                f.activation_id
                for f in futures
                if f._status is not None and f._status.get("lost")
            }
            calls = {f.call_id for f in futures}
            return len(records), len(calls), crashed, lost

        total, calls, crashed, lost = env.run(main)
        assert total == calls == 30
        assert 5 <= len(crashed) <= 25  # ~50% +/- noise
        # exactly the crashed activations' calls were given up on
        assert lost == crashed

    def test_crashed_calls_write_no_status(self):
        env = _crashy(seed=6, crash_prob=1.0)

        def main():
            executor = pw.ibm_cf_executor()
            futures = executor.map(lambda x: x, [1, 2], retries=0)
            executor.wait(futures, timeout=30)
            return [f._status for f in futures], _runner_records(env)

        statuses, records = env.run(main)
        assert len(records) == 2
        assert all("crashed" in r.error for r in records)
        # no worker committed anything: the only status is the client's
        # synthetic ``lost`` one, naming the crashed activation
        assert [s["call_id"] for s in statuses] == ["00000", "00001"]
        assert all(s["lost"] and not s["success"] for s in statuses)
        assert {s["activation_id"] for s in statuses} == {
            r.activation_id for r in records
        }
        assert all("crashed" in s["error"] for s in statuses)


class TestRetryMissing:
    def test_recovery_loop_completes_under_crashes(self):
        """wait-with-timeout + retry_missing drains a lossy platform.

        Crashed containers are re-invoked by the executor's own recovery.
        Hung ones outlast every wait: their activations are still in
        flight, so recovery leaves them alone and only ``retry_missing``
        re-invokes them.
        """
        env = CloudEnvironment.create(
            seed=7,
            chaos=ChaosProfile(
                "none", seed=7, crash_prob=0.1, hang_prob=0.3, hang_s=600
            ),
        )

        def main():
            executor = pw.ibm_cf_executor()
            futures = executor.map(lambda x: x * 2, list(range(40)))
            retried = []
            for _round in range(12):
                try:
                    done, not_done = executor.wait(futures, timeout=30)
                except ResultTimeoutError:
                    not_done = [f for f in futures if not f.done()]
                if not not_done:
                    break
                retried.append(executor.retry_missing(futures))
            return executor.get_result(futures), retried, env.chaos.fault_counts()

        values, retried, faults = env.run(main)
        assert values == [x * 2 for x in range(40)]
        assert faults["container:crash"] > 0 and faults["container:hang"] > 0
        # the first wait left hung calls behind, and retry_missing re-invoked
        # them
        assert retried and retried[0]
        assert all(f.invoke_count >= 2 for f in retried[0])

    def test_retry_missing_noop_when_all_done(self):
        env = CloudEnvironment.create(seed=8)

        def main():
            executor = pw.ibm_cf_executor()
            futures = executor.map(lambda x: x, [1, 2])
            executor.wait(futures)
            return executor.retry_missing(futures)

        assert env.run(main) == []

    def test_duplicate_execution_is_harmless(self):
        """Speculative re-invocation of live calls converges to one result."""
        env = CloudEnvironment.create(seed=9)

        def main():
            executor = pw.ibm_cf_executor()

            def slow(x):
                pw.sleep(30)
                return x + 1

            futures = executor.map(slow, [41])
            # retry before the first attempt finished: both attempts run
            executor.retry_missing(futures)
            return executor.get_result(futures)

        assert env.run(main) == [42]

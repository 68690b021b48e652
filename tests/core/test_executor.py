"""Integration-style unit tests for the FunctionExecutor API."""

from __future__ import annotations

import pytest

import repro as pw
from repro.core.errors import FunctionError, ResultTimeoutError
from repro.core.futures import ANY_COMPLETED, ResponseFuture


def add_seven(x):
    return x + 7


class TestCallAsync:
    def test_is_nonblocking(self, env):
        def main():
            executor = pw.ibm_cf_executor()

            def slow(x):
                pw.sleep(30)
                return x

            t0 = pw.now()
            future = executor.call_async(slow, 1)
            submitted_at = pw.now() - t0
            assert future.result() == 1
            return submitted_at, pw.now() - t0

        submitted, total = env.run(main)
        assert submitted < 5.0  # returned long before the function ended
        assert total >= 30.0

    def test_single_result_via_get_result(self, env):
        def main():
            executor = pw.ibm_cf_executor()
            executor.call_async(add_seven, 35)
            return executor.get_result()

        assert env.run(main) == 42  # scalar, not a list

    def test_function_exception_propagates(self, env):
        def main():
            executor = pw.ibm_cf_executor()

            def bad(_):
                raise KeyError("missing")

            future = executor.call_async(bad, None)
            with pytest.raises(FunctionError) as info:
                future.result()
            return str(info.value.cause)

        assert "missing" in env.run(main)

    def test_remote_traceback_attached(self, env):
        def main():
            executor = pw.ibm_cf_executor()

            def bad(_):
                raise RuntimeError("deep failure")

            future = executor.call_async(bad, None)
            try:
                future.result()
            except FunctionError as exc:
                return exc.remote_traceback

        tb = env.run(main)
        assert "deep failure" in tb
        assert "Traceback" in tb


class TestMap:
    def test_one_executor_per_element(self, env):
        def main():
            executor = pw.ibm_cf_executor()
            futures = executor.map(add_seven, [3, 6, 9])
            assert len(futures) == 3
            return executor.get_result(futures)

        assert env.run(main) == [10, 13, 16]

    def test_results_preserve_order(self, env):
        def main():
            executor = pw.ibm_cf_executor()

            def variable_time(i):
                pw.sleep(20 - i)  # later elements finish sooner
                return i

            futures = executor.map(variable_time, list(range(8)))
            return executor.get_result(futures)

        assert env.run(main) == list(range(8))

    def test_empty_iterdata(self, env):
        def main():
            executor = pw.ibm_cf_executor()
            return executor.map(add_seven, [])

        assert env.run(main) == []

    def test_negative_retries_rejected_before_any_upload(self, cloud):
        """A bad ``retries`` costs nothing: no function or data blob is
        PUT and no callset id is used up."""
        env = cloud(seed=1)

        def main():
            executor = pw.ibm_cf_executor()
            bucket = executor.config.storage_bucket
            before = env.storage.list_keys(bucket)
            with pytest.raises(ValueError, match="retries"):
                executor.map(add_seven, [1, 2, 3], retries=-1)
            after = env.storage.list_keys(bucket)
            return before, after, executor.map(add_seven, [1])[0].callset_id

        before, after, callset_id = env.run(main)
        assert after == before
        assert callset_id == "M000"

    def test_chunk_size_rejected_for_plain_data(self, env):
        def main():
            executor = pw.ibm_cf_executor()
            with pytest.raises(ValueError):
                executor.map(add_seven, [1, 2], chunk_size=100)
            return True

        assert env.run(main)

    def test_mixed_value_types(self, env):
        def main():
            executor = pw.ibm_cf_executor()
            futures = executor.map(lambda x: x, [1, "a", [2], {"k": 3}, None])
            return executor.get_result(futures)

        assert env.run(main) == [1, "a", [2], {"k": 3}, None]

    def test_one_failure_does_not_poison_others(self, env):
        def main():
            executor = pw.ibm_cf_executor()

            def sometimes(x):
                if x == 2:
                    raise ValueError("x=2")
                return x

            futures = executor.map(sometimes, [1, 2, 3])
            ok = [f.result(throw_except=False) for f in futures]
            return ok

        assert env.run(main) == [1, None, 3]


class TestExecutorObject:
    def test_unique_executor_ids(self, env):
        def main():
            a = pw.ibm_cf_executor()
            b = pw.ibm_cf_executor()
            return a.executor_id, b.executor_id

        id_a, id_b = env.run(main)
        assert id_a != id_b
        assert id_a.startswith("exec-")

    def test_runtime_override_per_executor(self, env):
        env.registry.build_custom_runtime(
            "me/matplotlib:1", owner="me", extra_packages=["matplotlib"]
        )

        def main():
            executor = pw.ibm_cf_executor(runtime="me/matplotlib:1")
            assert executor.config.runtime == "me/matplotlib:1"
            future = executor.call_async(add_seven, 1)
            return future.result()

        assert env.run(main) == 8

    def test_unknown_runtime_fails_fast(self, env):
        from repro.faas.errors import RuntimeNotFound

        def main():
            with pytest.raises(RuntimeNotFound):
                pw.ibm_cf_executor(runtime="ghost:9")
            return True

        assert env.run(main)

    def test_futures_tracked_across_jobs(self, env):
        def main():
            executor = pw.ibm_cf_executor()
            executor.map(add_seven, [1, 2])
            executor.call_async(add_seven, 3)
            return executor.get_result()

        assert env.run(main) == [8, 9, 10]

    def test_config_override_kwargs(self, env):
        def main():
            executor = pw.ibm_cf_executor(invoker_pool_size=2, poll_interval=0.5)
            return executor.config.invoker_pool_size, executor.config.poll_interval

        assert env.run(main) == (2, 0.5)

    def test_no_environment_raises(self):
        with pytest.raises(pw.NoActiveEnvironmentError):
            pw.ibm_cf_executor()


class TestWaitSemantics:
    def test_wait_any(self, env):
        def main():
            executor = pw.ibm_cf_executor()

            def staggered(i):
                pw.sleep(float(i) * 10)
                return i

            futures = executor.map(staggered, [0, 1, 2])
            done, not_done = executor.wait(futures, return_when=ANY_COMPLETED)
            return len(done) >= 1, len(done) + len(not_done)

        got_any, total = env.run(main)
        assert got_any
        assert total == 3

    def test_wait_all_default(self, env):
        def main():
            executor = pw.ibm_cf_executor()
            futures = executor.map(add_seven, [1, 2, 3])
            done, not_done = executor.wait(futures)
            return len(done), len(not_done)

        assert env.run(main) == (3, 0)


class TestGetResult:
    def test_timeout(self, env):
        def main():
            executor = pw.ibm_cf_executor()

            def forever(_):
                pw.sleep(10_000)

            executor.call_async(forever, None)
            with pytest.raises(ResultTimeoutError):
                executor.get_result(timeout=20)
            return True

        assert env.run(main)

    def test_explicit_single_future_returns_scalar(self, env):
        def main():
            executor = pw.ibm_cf_executor()
            futures = executor.map(add_seven, [1, 2])
            one = executor.get_result(futures[1])
            both = executor.get_result(futures)
            return one, both

        assert env.run(main) == (9, [8, 9])

    def test_get_result_empty(self, env):
        def main():
            executor = pw.ibm_cf_executor()
            return executor.get_result([])

        assert env.run(main) is None

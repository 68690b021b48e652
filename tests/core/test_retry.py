"""Tests for client-side retry of failed calls."""

from __future__ import annotations

import pytest

import repro as pw
from repro.config import MonitoringTransport
from repro.core.errors import PyWrenError


class TestRetryFailed:
    def test_transient_failure_recovers_on_retry(self, env):
        # NB: the serializer ships functions *by value*, so in-process
        # globals are copied, not shared — the attempt marker must live in
        # the cloud (a COS object), like any real cross-invocation state.
        env.storage.create_bucket("markers")

        def flaky(x):
            from repro.core.context import require_context

            store = require_context().environment.storage
            if x == 2 and not store.object_exists("markers", "tried"):
                store.put_object("markers", "tried", b"1")
                raise RuntimeError("transient")
            return x * 10

        def main():
            executor = pw.ibm_cf_executor()
            futures = executor.map(flaky, [1, 2, 3])
            executor.wait(futures)
            retried = executor.retry_failed(futures)
            assert len(retried) == 1
            assert retried[0].call_id == futures[1].call_id
            executor.wait(futures)
            return executor.get_result(futures)

        assert env.run(main) == [10, 20, 30]

    def test_no_failures_noop(self, env):
        def main():
            executor = pw.ibm_cf_executor()
            futures = executor.map(lambda x: x, [1, 2])
            executor.wait(futures)
            return executor.retry_failed(futures)

        assert env.run(main) == []

    def test_persistent_failure_stays_failed(self, env):
        from repro.core.errors import FunctionError

        def main():
            executor = pw.ibm_cf_executor()

            def always_bad(_):
                raise ValueError("permanent")

            futures = executor.map(always_bad, [0])
            executor.wait(futures)
            executor.retry_failed(futures)
            executor.wait(futures)
            with pytest.raises(FunctionError):
                futures[0].result()
            return futures[0].state

        assert env.run(main) == "error"

    def test_foreign_future_rejected(self, env):
        from repro.core.futures import ResponseFuture

        def main():
            executor = pw.ibm_cf_executor()
            executor.get_result(executor.map(lambda x: x, [1]))
            foreign = ResponseFuture("exec-x", "M000", "00000")
            foreign.bind(executor._storage)
            foreign._status = {"success": False}
            with pytest.raises(PyWrenError, match="cannot retry"):
                executor.retry_failed([foreign])
            return True

        assert env.run(main)

    def test_foreign_future_rejected_before_any_attempt_is_discarded(self, env):
        from repro.core.futures import ResponseFuture

        def main():
            executor = pw.ibm_cf_executor()

            def bad(_):
                raise ValueError("nope")

            own = executor.map(bad, [0])
            executor.wait(own)
            foreign = ResponseFuture("exec-x", "M000", "00000")
            foreign.bind(executor._storage)
            foreign._status = {"success": False}
            with pytest.raises(PyWrenError, match="cannot retry"):
                executor.retry_failed(own + [foreign])
            # the rejected batch left the finished attempt alone
            return own[0].state, own[0].done()

        assert env.run(main) == ("error", True)

    def test_retry_under_push_monitoring(self, env):
        env.storage.create_bucket("markers")

        def flaky(_):
            from repro.core.context import require_context

            store = require_context().environment.storage
            if not store.object_exists("markers", "push-tried"):
                store.put_object("markers", "push-tried", b"1")
                raise RuntimeError("first attempt fails")
            return "ok"

        def main():
            executor = pw.ibm_cf_executor(
                monitoring=MonitoringTransport.MQ_PUSH
            )
            futures = executor.map(flaky, [0])
            executor.wait(futures)
            retried = executor.retry_failed(futures)
            assert len(retried) == 1
            executor.wait(futures)
            return futures[0].result()

        assert env.run(main) == "ok"


class TestConfigFiles:
    def test_roundtrip(self, tmp_path):
        from repro.config import PyWrenConfig

        config = PyWrenConfig(runtime="me/custom:1", invoker_mode="massive")
        path = tmp_path / "pywren_config.json"
        config.save(path)
        loaded = PyWrenConfig.from_file(path)
        assert loaded == config

    def test_unknown_keys_rejected(self):
        from repro.config import PyWrenConfig

        with pytest.raises(ValueError, match="unknown config keys"):
            PyWrenConfig.from_dict({"not_a_key": 1})

    def test_invalid_json(self, tmp_path):
        from repro.config import PyWrenConfig

        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            PyWrenConfig.from_file(path)

    def test_non_object_json(self, tmp_path):
        from repro.config import PyWrenConfig

        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        with pytest.raises(ValueError, match="JSON object"):
            PyWrenConfig.from_file(path)

    def test_loaded_config_validated(self, tmp_path):
        from repro.config import PyWrenConfig

        path = tmp_path / "cfg.json"
        path.write_text('{"invoker_mode": "bogus"}')
        with pytest.raises(ValueError):
            PyWrenConfig.from_file(path)

    def test_environment_accepts_loaded_config(self, tmp_path):
        from repro.config import PyWrenConfig
        from repro.core.environment import CloudEnvironment

        path = tmp_path / "cfg.json"
        PyWrenConfig(poll_interval=0.25).save(path)
        env = CloudEnvironment.create(config=PyWrenConfig.from_file(path))

        def main():
            executor = pw.ibm_cf_executor()
            assert executor.config.poll_interval == 0.25
            return executor.call_async(lambda x: x, 5).result()

        assert env.run(main) == 5

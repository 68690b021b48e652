"""Unit tests driving the runner and remote-invoker handlers directly."""

from __future__ import annotations

import pytest

from repro.core import serializer
from repro.core.storage_client import InternalStorage
from repro.core.worker import (
    REMOTE_INVOKER_ACTION,
    remote_invoker_handler,
    runner_action_name,
    runner_handler,
)
from repro.cos import CloudObjectStorage
from repro.faas import CloudFunctions


class TestActionNames:
    def test_runner_name_stable_and_sanitized(self):
        name = runner_action_name("python-jessie:3", 256)
        assert name == "pywren_runner__python-jessie-3__256mb"

    def test_slash_sanitized(self):
        assert "/" not in runner_action_name("team/custom:1", 512)

    def test_different_memory_different_action(self):
        assert runner_action_name("r:1", 256) != runner_action_name("r:1", 512)


def setup_platform(kernel):
    """A platform with the runner deployed and a submitted call in COS."""
    from repro.core.environment import CloudEnvironment

    env = CloudEnvironment.create(kernel=kernel, seed=77)
    storage = env.internal_storage_in_cloud()
    return env, storage


class TestRunnerHandler:
    def _submit_raw(self, env, storage, fn, data):
        """Hand-write func/data objects like the client would."""
        func_key = storage.shared_func_key("e-test", "f00d")
        storage.put_blob(func_key, serializer.serialize(fn))
        blob = serializer.serialize(data)
        storage.put_agg_data("e-test", "M000", blob)
        return {
            "executor_id": "e-test",
            "callset_id": "M000",
            "call_id": "00000",
            "bucket": env.config.storage_bucket,
            "prefix": env.config.storage_prefix,
            "func_key": func_key,
            "data_range": [0, len(blob)],
        }

    def test_executes_and_stores_result(self, kernel):
        env, storage = setup_platform(kernel)
        params_holder = {}

        def main():
            params = self._submit_raw(env, storage, lambda x: x + 5, 37)
            env.platform.create_action("guest", "runner", runner_handler)
            record = env.platform.wait_activation(
                env.platform.invoke("guest", "runner", params)
            )
            assert record.result == {"call_id": "00000", "success": True}
            assert storage.get_status("e-test", "M000", "00000")["success"]
            return storage.get_result("e-test", "M000", "00000")

        assert env.kernel.run(main) == 42

    def test_status_includes_execution_metadata(self, kernel):
        env, storage = setup_platform(kernel)

        def main():
            params = self._submit_raw(env, storage, lambda x: x, 0)
            env.platform.create_action("guest", "runner", runner_handler)
            env.platform.wait_activation(
                env.platform.invoke("guest", "runner", params)
            )
            return storage.get_status("e-test", "M000", "00000")

        status = env.kernel.run(main)
        assert status["activation_id"].startswith("act-")
        assert status["container_id"].startswith("wsk-cont-")
        assert status["end_time"] >= status["start_time"]
        assert status["cold_start"] is True

    def test_user_exception_stored_not_raised(self, kernel):
        env, storage = setup_platform(kernel)

        def boom(_):
            raise KeyError("inner")

        def main():
            params = self._submit_raw(env, storage, boom, None)
            env.platform.create_action("guest", "runner", runner_handler)
            record = env.platform.wait_activation(
                env.platform.invoke("guest", "runner", params)
            )
            # the *activation* succeeded; the user error is data
            assert record.status == "success"
            assert record.result == {"call_id": "00000", "success": False}
            status = storage.get_status("e-test", "M000", "00000")
            cause, tb = storage.get_result("e-test", "M000", "00000")
            return status["success"], type(cause), tb

        success, cause_type, tb = env.kernel.run(main)
        assert success is False
        assert cause_type is KeyError
        assert "inner" in tb


class TestRemoteInvokerHandler:
    def test_sequential_group_invokes_all(self, kernel):
        env, storage = setup_platform(kernel)
        hits = []

        def target(params, ctx):
            hits.append(params["i"])
            return None

        def main():
            env.platform.create_action("guest", "target", target)
            env.platform.create_action(
                "guest", REMOTE_INVOKER_ACTION, remote_invoker_handler
            )
            record = env.platform.wait_activation(
                env.platform.invoke(
                    "guest",
                    REMOTE_INVOKER_ACTION,
                    {
                        "namespace": "guest",
                        "action": "target",
                        "calls": [{"i": i} for i in range(7)],
                        "pool_size": 1,
                    },
                )
            )
            for r in list(env.platform.activations()):
                env.platform.wait_activation(r.activation_id)
            return record.result

        result = env.kernel.run(main)
        assert result == {"invoked": 7}
        assert sorted(hits) == list(range(7))

    def test_pooled_spawning_is_faster_than_sequential(self, kernel):
        env, _storage = setup_platform(kernel)

        def target(params, ctx):
            return None

        def run(pool_size):
            record = env.platform.wait_activation(
                env.platform.invoke(
                    "guest",
                    REMOTE_INVOKER_ACTION,
                    {
                        "namespace": "guest",
                        "action": "target",
                        "calls": [{} for _ in range(20)],
                        "pool_size": pool_size,
                    },
                )
            )
            return record.duration

        def main():
            env.platform.create_action("guest", "target", target)
            env.platform.create_action(
                "guest", REMOTE_INVOKER_ACTION, remote_invoker_handler
            )
            sequential = run(1)
            pooled = run(4)
            return sequential, pooled

        sequential, pooled = env.kernel.run(main)
        assert pooled < sequential

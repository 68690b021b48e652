"""Unit tests for response futures and the wait() policies (§4.2).

These drive futures against a real internal storage, with completions
produced by background kernel tasks standing in for cloud functions.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.errors import FunctionError, ResultTimeoutError
from repro.core.futures import (
    ALL_COMPLETED,
    ALWAYS,
    ANY_COMPLETED,
    CallState,
    ResponseFuture,
)
from repro.core.storage_client import InternalStorage
from repro.core.wait import wait
from repro.cos import CloudObjectStorage, COSClient
from repro.net import LatencyModel, NetworkLink


@pytest.fixture()
def storage(kernel) -> InternalStorage:
    store = CloudObjectStorage(kernel)
    store.create_bucket("internal")
    link = NetworkLink(kernel, LatencyModel(rtt=0.001, jitter=0.0), seed=4)
    return InternalStorage(COSClient(store, link), "internal")


def complete_call(storage, future, value=None, success=True, delay=0.0, error=None):
    """Background task: write result+status like the worker does."""
    kernel = storage.cos.link.kernel

    def _complete():
        if delay:
            kernel.sleep(delay)
        payload = value if success else (error, "remote traceback")
        kernel.drive(
            storage.put_result_steps(
                future.executor_id, future.callset_id, future.call_id, payload
            )
        )
        kernel.drive(
            storage.commit_status_steps(
                future.executor_id,
                future.callset_id,
                future.call_id,
                {
                    "call_id": future.call_id,
                    "success": success,
                    "error": None if success else repr(error),
                    "start_time": 0.0,
                    "end_time": kernel.now(),
                },
            )
        )

    return kernel.spawn(_complete, name=f"complete-{future.call_id}")


def make_future(storage, call_id="00000", callset="M000"):
    return ResponseFuture("exec-1", callset, call_id).bind(storage, poll_interval=0.5)


class TestResponseFuture:
    def test_result_blocks_until_available(self, kernel, storage):
        def main():
            future = make_future(storage)
            complete_call(storage, future, value=99, delay=5.0)
            return future.result(), kernel.now() >= 5.0

        assert kernel.run(main) == (99, True)

    def test_done_is_nonblocking(self, kernel, storage):
        def main():
            future = make_future(storage)
            before = future.done()
            complete_call(storage, future, value=1).join()
            after = future.done()
            return before, after

        assert kernel.run(main) == (False, True)

    def test_state_transitions(self, kernel, storage):
        def main():
            future = make_future(storage)
            assert future.state == CallState.NEW
            future.mark_invoked("act-1")
            assert future.state == CallState.INVOKED
            complete_call(storage, future, value=1).join()
            future.result()
            return future.state, future.activation_id

        assert kernel.run(main) == (CallState.SUCCESS, "act-1")

    def test_error_raises_function_error(self, kernel, storage):
        def main():
            future = make_future(storage)
            complete_call(
                storage, future, success=False, error=ValueError("inner")
            ).join()
            with pytest.raises(FunctionError) as info:
                future.result()
            return type(info.value.cause), info.value.remote_traceback

        cause_type, tb = kernel.run(main)
        assert cause_type is ValueError
        assert "remote traceback" in tb

    def test_error_swallowed_with_throw_except_false(self, kernel, storage):
        def main():
            future = make_future(storage)
            complete_call(
                storage, future, success=False, error=ValueError("x")
            ).join()
            return future.result(throw_except=False)

        assert kernel.run(main) is None

    def test_result_timeout(self, kernel, storage):
        def main():
            future = make_future(storage)
            with pytest.raises(ResultTimeoutError):
                future.result(timeout=3)
            return kernel.now()

        assert kernel.run(main) >= 3.0

    def test_result_cached_after_first_fetch(self, kernel, storage):
        def main():
            future = make_future(storage)
            complete_call(storage, future, value=[1, 2]).join()
            first = future.result()
            requests_before = storage.cos.store.request_counts()
            second = future.result()
            return first, second, storage.cos.store.request_counts() == requests_before

        first, second, cached = kernel.run(main)
        assert first == second == [1, 2]
        assert cached

    def test_unbound_future_raises(self, kernel, storage):
        def main():
            future = ResponseFuture("e", "c", "00000")
            with pytest.raises(RuntimeError, match="not bound"):
                future.result()
            return True

        assert kernel.run(main)

    def test_pickle_drops_storage_binding(self, storage):
        future = ResponseFuture("e", "c", "00001", metadata={"k": "v"})
        future.bind(storage)
        restored = pickle.loads(pickle.dumps(future))
        assert not restored.bound
        assert restored.call_id == "00001"
        assert restored.metadata == {"k": "v"}

    def test_status_flags_cost_no_pickled_bytes_until_set(self, storage):
        """Pickled size feeds modelled transfer time: the flags are class
        defaults, present in the instance state only once set."""
        future = make_future(storage)
        assert not future.status_known
        assert not {"_status_seen", "_exhausted"} & set(future.__getstate__())
        future.mark_done()
        assert future.status_known
        assert pickle.loads(pickle.dumps(future)).status_known

    def test_status_contains_worker_fields(self, kernel, storage):
        def main():
            future = make_future(storage)
            complete_call(storage, future, value=0).join()
            return future.status()

        status = kernel.run(main)
        assert status["success"] is True
        assert "end_time" in status


class TestComposition:
    def test_nested_future_resolved(self, kernel, storage):
        def main():
            inner = make_future(storage, call_id="00001", callset="M001")
            outer = make_future(storage, call_id="00000", callset="M000")
            complete_call(storage, inner, value="deep").join()
            complete_call(storage, outer, value=inner).join()
            return outer.result()

        assert kernel.run(main) == "deep"

    def test_list_of_futures_resolved(self, kernel, storage):
        def main():
            inners = [
                make_future(storage, call_id=f"{i:05d}", callset="M001")
                for i in range(3)
            ]
            for i, future in enumerate(inners):
                complete_call(storage, future, value=i * 10).join()
            outer = make_future(storage, callset="M000")
            complete_call(storage, outer, value=inners).join()
            return outer.result()

        assert kernel.run(main) == [0, 10, 20]

    def test_plain_list_result_not_unwrapped(self, kernel, storage):
        def main():
            future = make_future(storage)
            complete_call(storage, future, value=[1, 2, 3]).join()
            return future.result()

        assert kernel.run(main) == [1, 2, 3]


class TestWait:
    def test_wait_always_returns_immediately(self, kernel, storage):
        def main():
            futures = [make_future(storage, call_id=f"{i:05d}") for i in range(3)]
            complete_call(storage, futures[0], value=1).join()
            done, not_done = wait(futures, storage, return_when=ALWAYS)
            return len(done), len(not_done), kernel.now()

        done, not_done, t = kernel.run(main)
        assert (done, not_done) == (1, 2)
        assert t < 1.0

    def test_wait_any_completed(self, kernel, storage):
        def main():
            futures = [make_future(storage, call_id=f"{i:05d}") for i in range(3)]
            complete_call(storage, futures[2], value=1, delay=4.0)
            done, not_done = wait(
                futures, storage, return_when=ANY_COMPLETED, poll_interval=0.5
            )
            return [f.call_id for f in done], len(not_done)

        done_ids, remaining = kernel.run(main)
        assert done_ids == ["00002"]
        assert remaining == 2

    def test_wait_all_completed(self, kernel, storage):
        def main():
            futures = [make_future(storage, call_id=f"{i:05d}") for i in range(4)]
            for i, future in enumerate(futures):
                complete_call(storage, future, value=i, delay=i + 1.0)
            done, not_done = wait(futures, storage, return_when=ALL_COMPLETED)
            return len(done), len(not_done), kernel.now() >= 4.0

        assert kernel.run(main) == (4, 0, True)

    def test_wait_timeout_raises(self, kernel, storage):
        def main():
            futures = [make_future(storage)]
            with pytest.raises(ResultTimeoutError):
                wait(futures, storage, timeout=2, poll_interval=0.5)
            return True

        assert kernel.run(main)

    def test_wait_empty_list(self, kernel, storage):
        def main():
            return wait([], storage)

        assert kernel.run(main) == ([], [])

    def test_wait_uses_one_list_per_callset_round(self, kernel, storage):
        def main():
            futures = [
                make_future(storage, call_id=f"{i:05d}", callset="M000")
                for i in range(50)
            ]
            for future in futures:
                complete_call(storage, future, value=0).join()
            before = storage.cos.link.requests
            wait(futures, storage, return_when=ALL_COMPLETED)
            return storage.cos.link.requests - before

        # one LIST request, not 50 HEADs
        assert kernel.run(main) <= 2

    def test_on_progress_callback(self, kernel, storage):
        calls = []

        def main():
            futures = [make_future(storage, call_id=f"{i:05d}") for i in range(2)]
            for i, f in enumerate(futures):
                complete_call(storage, f, value=0, delay=float(i)).join()
            wait(
                futures,
                storage,
                return_when=ALL_COMPLETED,
                on_progress=lambda d, t: calls.append((d, t)),
            )
            return calls

        calls = kernel.run(main)
        assert calls[-1] == (2, 2)

    def test_rounds_list_only_pending_callsets_in_first_pending_order(
        self, kernel, storage
    ):
        """Per round: one LIST per callset that still has a pending future,
        in the order of each callset's first pending future in the caller's
        list; a future found done is dropped before the next LIST;
        ``done`` / ``not_done`` keep the caller's order."""
        listed, progress = [], []
        list_done = storage.list_done_call_ids_steps

        def spy(executor_id, callset_id):
            listed.append(callset_id)
            return (yield from list_done(executor_id, callset_id))

        storage.list_done_call_ids_steps = spy

        def main():
            r0, m0, r1, m1, x0 = futures = [
                make_future(storage, call_id, callset)
                for callset, call_id in [
                    ("R000", "00000"), ("M000", "00000"), ("R000", "00001"),
                    ("M000", "00001"), ("X000", "00000"),
                ]
            ]
            for future in (m0, m1):
                complete_call(storage, future, value=0).join()
            complete_call(storage, x0, success=False, error=ValueError("x"), delay=0.2)
            complete_call(storage, r0, value=0, delay=0.7)
            complete_call(storage, r1, value=0, delay=1.2)

            done, not_done = wait(
                futures, storage, poll_interval=0.5,
                on_progress=lambda d, t: progress.append((d, t)),
            )
            return done == futures and not_done == []

        assert kernel.run(main)
        assert listed == ["R000", "M000", "X000", "R000", "X000", "R000", "R000"]
        assert progress == [(2, 5), (3, 5), (4, 5), (5, 5)]

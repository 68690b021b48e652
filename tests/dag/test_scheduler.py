"""DagScheduler end-to-end: barrier-free handoff, locality, failures."""

from __future__ import annotations

import pytest

import repro as pw
from repro.core.environment import CloudEnvironment
from repro.core.errors import FunctionError
from repro.dag import DagBuilder, DagScheduler, NodeState


def inc(x):
    return x + 1


def double(x):
    return x * 2


def total(values):
    return sum(values)


def staged_task(spec):
    pw.sleep(spec["sleep"])
    return spec["value"]


def relay(x):
    pw.sleep(2)
    return x


def boom(_x):
    raise RuntimeError("boom")


def spawn_boom(x):
    """Return the future of a nested call that fails (§4.4 composition)."""
    return pw.ibm_cf_executor().call_async(boom, x)


def flaky_once(x):
    """Fails on the first attempt, succeeds after (storage-backed marker)."""
    from repro.core import context as ambient

    environment = ambient.require_context().environment
    bucket = environment.config.storage_bucket
    if not environment.storage.object_exists(bucket, "flaky-marker"):
        environment.storage.put_object(bucket, "flaky-marker", b"1")
        raise RuntimeError("first attempt fails")
    return x + 100


def _runner_activations(env):
    return [
        r
        for r in env.platform.activations()
        if r.action_name.startswith("pywren_runner")
    ]


class TestExecution:
    def test_diamond(self, env):
        def main():
            executor = pw.ibm_cf_executor()
            builder = DagBuilder()
            src = builder.call(inc, 1)              # 2
            left = builder.call(double, src)        # 4
            right = builder.call(inc, src)          # 3
            top = builder.reduce(total, [left, right])
            run = DagScheduler(executor).submit(builder.build())
            return run.expose(top).result()

        assert env.run(main) == 7

    def test_fused_chain_is_one_activation(self, env):
        def main():
            executor = pw.ibm_cf_executor()
            builder = DagBuilder()
            node = builder.call(inc, 1).then(double).then(inc)
            run = DagScheduler(executor).submit(builder.build())
            return run.expose(node).result(), len(_runner_activations(env))

        result, n_activations = env.run(main)
        assert result == 5  # inc(1) -> double -> inc
        assert n_activations == 1

    def test_only_exposed_futures_register(self, env):
        def main():
            executor = pw.ibm_cf_executor()
            builder = DagBuilder()
            maps = builder.map(inc, [1, 2, 3])
            top = builder.reduce(total, maps)
            run = DagScheduler(executor).submit(builder.build())
            future = run.expose(top)
            return future.result(), len(executor.futures)

        result, n_registered = env.run(main)
        assert result == 2 + 3 + 4
        assert n_registered == 1

    def test_empty_dag_finishes_immediately(self, env):
        def main():
            executor = pw.ibm_cf_executor()
            run = DagScheduler(executor).submit(DagBuilder().build())
            assert run.finished
            return run.join(timeout=1.0)

        assert env.run(main) is True

    def test_barrier_free_stage_handoff(self, env):
        """A fast branch's stage 2 runs while the slow branch's stage 1
        is still executing — there is no client-side barrier per stage."""

        def main():
            executor = pw.ibm_cf_executor()
            builder = DagBuilder()
            fast1 = builder.call(staged_task, {"sleep": 2, "value": 1})
            fast2 = fast1.then(relay)
            slow1 = builder.call(staged_task, {"sleep": 40, "value": 2})
            slow2 = slow1.then(relay)
            run = DagScheduler(executor).submit(builder.build(fuse=False))
            run.expose(fast2)
            run.expose(slow2)
            executor.get_result()
            return (
                run.future(fast2).status(),
                run.future(slow1).status(),
            )

        fast2_status, slow1_status = env.run(main)
        assert fast2_status["start_time"] < slow1_status["end_time"]

    def test_locality_places_node_with_its_input(self, env):
        """A dependent lands on the invoker node whose warm container
        produced its input (the placement hint), not wherever round-robin
        points."""

        def main():
            executor = pw.ibm_cf_executor()
            builder = DagBuilder()
            a = builder.call(inc, 1)
            b = builder.call(inc, 2)  # warms a second container elsewhere
            follow = builder.reduce(total, [a])  # depends only on a
            run = DagScheduler(executor).submit(builder.build())
            run.future(follow).result()
            run.future(b).result()
            return run.future(a).status(), run.future(follow).status()

        a_status, follow_status = env.run(main)
        assert follow_status["invoker_id"] == a_status["invoker_id"]
        assert follow_status["cold_start"] is False

    def test_status_carries_invoker_id(self, env):
        def main():
            executor = pw.ibm_cf_executor()
            future = executor.call_async(inc, 1)
            future.result()
            return future.status()

        status = env.run(main)
        assert isinstance(status["invoker_id"], int)


class TestFailureSemantics:
    def test_failed_node_buries_dependents(self, env):
        def main():
            executor = pw.ibm_cf_executor()
            builder = DagBuilder()
            bad = builder.call(boom, 1, fusable=False)
            downstream = bad.then(inc, fusable=False)
            run = DagScheduler(executor).submit(builder.build(fuse=False))
            run.join()
            try:
                run.future(downstream).result()
            except FunctionError as exc:
                message = str(exc)
            else:
                message = None
            failed = {n.name for n in run.failed_nodes()}
            return message, failed, len(_runner_activations(env))

        message, failed, n_activations = env.run(main)
        assert message is not None and "upstream DAG node" in message
        assert failed == {"boom", "inc"}
        assert n_activations == 1  # the buried dependent never launched

    def test_failure_propagates_through_levels(self, env):
        def main():
            executor = pw.ibm_cf_executor()
            builder = DagBuilder()
            good = builder.call(inc, 1)
            bad = builder.call(boom, 1)
            mid = builder.reduce(total, [good, bad])
            top = mid.then(double, fusable=False)
            run = DagScheduler(executor).submit(builder.build(fuse=False))
            run.join()
            results = {}
            for name, node in [("good", good), ("mid", mid), ("top", top)]:
                try:
                    results[name] = run.future(node).result()
                except FunctionError:
                    results[name] = "error"
            return results

        results = env.run(main)
        assert results["good"] == 2
        assert results["mid"] == "error"
        assert results["top"] == "error"

    def test_failing_nested_input_fails_the_dependent(self, env):
        """A dependency that succeeded by returning a failing nested future:
        resolving the dependent's input raises, and the dependent fails
        with that error instead of running its function."""

        def main():
            executor = pw.ibm_cf_executor()
            builder = DagBuilder()
            composer = builder.call(spawn_boom, 1, fusable=False)
            dependent = composer.then(inc, fusable=False)
            run = DagScheduler(executor).submit(builder.build(fuse=False))
            run.join()
            with pytest.raises(FunctionError) as info:
                run.future(dependent).result()
            return str(info.value), {n.name for n in run.failed_nodes()}

        message, failed = env.run(main)
        assert "boom" in message
        assert failed == {"inc"}

    def test_abort_buries_a_running_node_with_a_status_and_no_blob(
        self, env, monkeypatch
    ):
        """A burial is one synthetic status and no result blob, so the
        node's own late result cannot be mistaken for the burial's:
        ``result()`` reads ``(None, error)`` off the status."""
        from repro.core.futures import ResponseFuture

        def main():
            executor = pw.ibm_cf_executor()
            storage = executor._storage
            list_done = storage.list_done_call_ids_steps
            calls = []

            def third_list_breaks(*args):
                calls.append(args)
                if len(calls) == 3:
                    raise RuntimeError("boom")
                return (yield from list_done(*args))

            monkeypatch.setattr(storage, "list_done_call_ids_steps", third_list_breaks)
            builder = DagBuilder()
            node = builder.call(staged_task, {"sleep": 30, "value": 7})
            run = DagScheduler(executor).submit(builder.build())
            assert run.join(timeout=20)  # aborted while the node still runs
            assert isinstance(run.error, RuntimeError)
            future = run.future(node)
            ids = (future.executor_id, future.callset_id, future.call_id)
            blob_after_abort = env.storage.object_exists(
                executor.config.storage_bucket, storage.result_key(*ids)
            )
            pw.sleep(60)  # the node finishes: result blob, lost status commit
            with pytest.raises(FunctionError, match="aborted.*boom"):
                ResponseFuture(*ids).bind(storage).result()
            return blob_after_abort

        assert env.run(main) is False

    def test_node_retries_rerun_failed_node(self, env):
        def main():
            executor = pw.ibm_cf_executor()
            builder = DagBuilder()
            node = builder.call(flaky_once, 1)
            scheduler = DagScheduler(executor, node_retries=2)
            run = scheduler.submit(builder.build())
            value = run.future(node).result()
            return value, node.error_attempts, executor.resilience_stats()

        value, attempts, stats = env.run(main)
        assert value == 101
        assert attempts == 1
        assert stats["invocation_retries"] >= 1

    @pytest.mark.parametrize("way", ["future", "get_result"])
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_waiter_takes_the_watchers_verdict_on_a_retried_error(self, seed, way):
        """A waiter that reads the first attempt's error before the watcher
        judged it does not raise it: the watcher retries the node, and the
        waiter returns the retry's value, through either call path."""
        env = CloudEnvironment.create(seed=seed)

        def main():
            executor = pw.ibm_cf_executor()
            builder = DagBuilder()
            node = builder.call(flaky_once, 1)
            run = DagScheduler(executor, node_retries=2).submit(builder.build())
            if way == "future":
                value = run.future(node).result()
            else:
                value = executor.get_result(run.expose(node))
            return value, node.error_attempts, run.finished

        assert env.run(main) == (101, 1, True)

    @pytest.mark.parametrize(
        "return_when", [pw.ALL_COMPLETED, pw.ANY_COMPLETED], ids=["all", "any"]
    )
    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_wait_returns_only_after_the_retry_committed(self, seed, return_when):
        """``executor.wait`` on a node with retry budget does not report the
        first attempt's error: the watcher is the only judge, so the wait
        returns once the retry's status is in, and ``result()`` reads it
        with no status GET of its own."""
        env = CloudEnvironment.create(seed=seed)

        def main():
            executor = pw.ibm_cf_executor()
            builder = DagBuilder()
            node = builder.call(flaky_once, 1)
            run = DagScheduler(executor, node_retries=2).submit(builder.build())
            future = run.expose(node)
            done, not_done = executor.wait([future], return_when=return_when)
            waited_until = pw.now()
            storage = executor._storage
            reads = []
            get_status = storage.get_status_steps

            def counted(*args):
                reads.append(args)
                return (yield from get_status(*args))

            storage.get_status_steps = counted
            value = future.result()
            status = future.status()
            return (done == [future], not_done, future.state, node.error_attempts,
                    value, reads, waited_until >= status["end_time"])

        assert env.run(main) == (True, [], "success", 1, 101, [], True)

    def test_a_final_error_still_raises_through_the_waiter(self, env):
        """With the retry budget spent the watcher's verdict is final, and
        the waiter raises the node's own error."""

        def main():
            executor = pw.ibm_cf_executor()
            builder = DagBuilder()
            node = builder.call(boom, 1)
            run = DagScheduler(executor, node_retries=1).submit(builder.build())
            with pytest.raises(FunctionError, match="boom"):
                run.future(node).result()
            return node.error_attempts, node.state

        assert env.run(main) == (1, NodeState.FAILED)

    def test_no_retries_by_default(self, env):
        def main():
            executor = pw.ibm_cf_executor()
            builder = DagBuilder()
            node = builder.call(boom, 1)
            run = DagScheduler(executor).submit(builder.build())
            run.join()
            return node.state, node.error_attempts

        state, attempts = env.run(main)
        assert state == NodeState.FAILED
        assert attempts == 0


class TestDeterminism:
    def _trace_of_run(self, seed):
        env = CloudEnvironment.create(seed=seed, trace=True)

        def main():
            executor = pw.ibm_cf_executor()
            builder = DagBuilder()
            maps = builder.map(inc, [3, 1, 2])
            top = builder.reduce(total, maps).then(double, fusable=False)
            run = DagScheduler(executor).submit(builder.build(fuse=False))
            result = run.expose(top).result()
            return result, executor.executor_id, executor.trace_jsonl()

        result, executor_id, jsonl = env.run(main)
        # the executor id comes from a process-global counter, so it is the
        # one token that differs between two same-seed runs in one process
        return result, jsonl.replace(executor_id, "EXEC")

    def test_same_seed_runs_are_byte_identical(self):
        result_a, trace_a = self._trace_of_run(seed=42)
        result_b, trace_b = self._trace_of_run(seed=42)
        assert result_a == result_b == 2 * (4 + 2 + 3)
        assert trace_a == trace_b
        assert '"dag.node"' in trace_a

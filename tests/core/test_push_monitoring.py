"""Tests for the MQ push-monitoring transport in the executor."""

from __future__ import annotations

import pytest

import repro as pw
from repro.config import MonitoringTransport
from repro.core.errors import ResultTimeoutError
from repro.core.futures import ALWAYS, ANY_COMPLETED


def push_executor(**overrides):
    return pw.ibm_cf_executor(
        monitoring=MonitoringTransport.MQ_PUSH, **overrides
    )


class TestPushCorrectness:
    def test_map_results_identical_to_polling(self, env):
        def main():
            executor = push_executor()
            futures = executor.map(lambda x: x * 2, [1, 2, 3, 4])
            return executor.get_result(futures)

        assert env.run(main) == [2, 4, 6, 8]

    def test_statuses_published_to_queue(self, env):
        def main():
            executor = push_executor()
            executor.get_result(executor.map(lambda x: x, [1, 2, 3]))
            return env.broker.published, env.broker.consumed

        published, consumed = env.run(main)
        assert published == 3
        assert consumed == 3

    def test_wait_any_via_push(self, env):
        def main():
            executor = push_executor()

            def staggered(i):
                pw.sleep(float(i) * 20)
                return i

            futures = executor.map(staggered, [0, 1, 2])
            done, not_done = executor.wait(futures, return_when=ANY_COMPLETED)
            return len(done), len(not_done)

        done, not_done = env.run(main)
        assert done >= 1
        assert done + not_done == 3

    def test_wait_always_nonblocking(self, env):
        def main():
            executor = push_executor()

            def slow(_):
                pw.sleep(100)

            futures = executor.map(slow, [0, 0])
            t0 = pw.now()
            done, not_done = executor.wait(futures, return_when=ALWAYS)
            return len(done), len(not_done), pw.now() - t0

        done, not_done, elapsed = env.run(main)
        assert (done, not_done) == (0, 2)
        assert elapsed < 5.0

    def test_messages_for_other_callsets_buffered(self, env):
        def main():
            executor = push_executor()
            first = executor.map(lambda x: x, [1])
            second = executor.map(lambda x: x * 10, [2])
            # wait on the second job first: the first job's message must be
            # buffered, not lost
            r2 = executor.get_result(second)
            r1 = executor.get_result(first)
            return r1, r2

        assert env.run(main) == ([1], [20])

    def test_failures_reported_through_push(self, env):
        from repro.core.errors import FunctionError

        def main():
            executor = push_executor()

            def bad(_):
                raise ValueError("nope")

            futures = executor.map(bad, [0])
            executor.wait(futures)
            with pytest.raises(FunctionError):
                futures[0].result()
            return futures[0].state

        assert env.run(main) == "error"

    def test_timeout(self, env):
        def main():
            executor = push_executor()

            def forever(_):
                pw.sleep(10_000)

            executor.map(forever, [0])
            with pytest.raises(ResultTimeoutError):
                executor.wait(timeout=15)
            return True

        assert env.run(main)


class TestPushLatencyAdvantage:
    def test_push_beats_coarse_polling(self, cloud):
        """With a coarse poll interval, push monitoring returns results
        sooner — the transport's raison d'être."""

        def run(monitoring, seed):
            env = cloud(seed=seed)

            def main():
                executor = pw.ibm_cf_executor(
                    monitoring=monitoring, poll_interval=10.0
                )
                t0 = pw.now()
                executor.get_result(executor.map(lambda x: x, [1, 2, 3]))
                return pw.now() - t0

            return env.run(main)

        polling = run(MonitoringTransport.COS_POLLING, seed=61)
        push = run(MonitoringTransport.MQ_PUSH, seed=61)
        assert push < polling

    def test_push_skips_status_lists(self, cloud):
        """The watcher learns flat calls *and* DAG nodes from the queue: a
        map and a two-level DAG on one executor send no client LIST."""
        env = cloud(seed=62)

        def main():
            executor = push_executor()
            storage = executor._storage
            listed = []
            list_done = storage.list_done_call_ids_steps

            def spy(executor_id, callset_id):
                listed.append(callset_id)
                return (yield from list_done(executor_id, callset_id))

            storage.list_done_call_ids_steps = spy
            values = executor.get_result(executor.map(lambda x: x, [1] * 10))
            builder = pw.DagBuilder()
            leaves = [builder.call(lambda x: x * 2, x) for x in range(3)]
            root = builder.reduce(sum, leaves)
            run = builder.submit(executor)
            total = run.expose(root).result()
            callsets = {n.future.callset_id for n in run.dag.nodes}
            return values, total, len(callsets), listed

        values, total, levels, listed = env.run(main)
        assert (values, total, levels) == ([1] * 10, 6, 2)
        assert listed == []
        # statuses still land in COS (authoritative), but the *client*
        # discovered completion via the queue
        assert env.broker.consumed == 14

"""Swarm scheduling under the fault-injection plane (slow, nightly tier).

The worker-driven handoff moves the scheduling hot path into the cloud,
so its recovery story has two new holes to cover: a worker that dies
*mid-handoff* (after its own status commit, before invoking a ready
dependent) leaves the dependent orphaned — only the supervisor's
token-aware redrive can rescue it — and a client that dies mid-run must
be able to reattach to a swarm-scheduled DAG whose workers kept driving
it while the client was gone.
"""

from __future__ import annotations

import pytest

import repro as pw
from repro.chaos import ChaosProfile
from repro.core.environment import CloudEnvironment
from repro.dag import DagBuilder

pytestmark = pytest.mark.slow


def relay(x):
    pw.sleep(2)
    return x + 1


def total(values):
    return sum(values)


def _build_tree(builder):
    """Two reduce levels over four leaves, then a short chain: exercises
    both the marker fan-in path and the token-only chain path."""
    leaves = builder.map(relay, [1, 2, 3, 4])
    mid = [
        builder.reduce(total, leaves[:2]),
        builder.reduce(total, leaves[2:]),
    ]
    top = builder.reduce(total, mid)
    return top.then(relay, fusable=False)


EXPECTED = (2 + 3) + (4 + 5) + 1


class TestWorkerCrashes:
    def _run_under(self, chaos, seed=123, trace=False):
        env = CloudEnvironment.create(seed=seed, chaos=chaos, trace=trace)

        def main():
            executor = pw.ibm_cf_executor()
            builder = DagBuilder()
            tail = _build_tree(builder)
            run = builder.submit(
                executor, fuse=False, scheduler="swarm", retries=5
            )
            value = run.expose(tail).result()
            jsonl = executor.trace_jsonl() if trace else ""
            return value, jsonl

        (value, jsonl), horizon = env.run(main), env.now()
        return value, jsonl, horizon, env

    def test_swarm_dag_survives_crashy_workers(self):
        value, _jsonl, _t, env = self._run_under(
            ChaosProfile("crashy-workers", seed=3, crash_prob=0.35)
        )
        assert value == EXPECTED
        assert any(
            key.startswith("container:") for key in env.chaos.fault_counts()
        )

    def test_orphaned_subtree_is_redriven(self):
        """With crashes hitting worker-invoked activations, at least one
        dependency-complete node loses its handoff and must be re-driven
        by the supervisor (the ``swarm.redrive`` trace point)."""
        value, jsonl, _t, env = self._run_under(
            ChaosProfile("crashy-workers", seed=1, crash_prob=0.25),
            trace=True,
        )
        assert value == EXPECTED
        assert any(
            key.startswith("container:") for key in env.chaos.fault_counts()
        )
        assert '"swarm.redrive"' in jsonl

    def test_same_seeds_reproduce_swarm_run(self):
        runs = []
        for _ in range(2):
            value, jsonl, horizon, env = self._run_under(
                ChaosProfile("crashy-workers", seed=9, crash_prob=0.2),
                trace=True,
            )
            assert value == EXPECTED
            runs.append((value, horizon, env.chaos.timeline_key(), jsonl))
        assert runs[0] == runs[1]


class TestClientCrashResume:
    def test_client_crash_then_reattach_swarm_dag(self):
        """Kill the client mid-run; workers keep driving the swarm DAG
        while it is gone, and a fresh driver reattaches to the journal
        and collects the same answer."""
        env = CloudEnvironment.create(
            seed=123,
            events=True,
            chaos=ChaosProfile("client-crash", seed=7, client_crash_at_s=6.0),
        )

        def main():
            executor = pw.ibm_cf_executor()
            job_id = executor.executor_id
            builder = DagBuilder()
            tail = _build_tree(builder)
            run = builder.submit(executor, fuse=False, scheduler="swarm")
            future = run.expose(tail)
            try:
                # collect through the executor: its watcher's rounds carry
                # the client-crash checkpoint, which wakes the waiter to
                # raise it
                return "done", executor.get_result(future)
            except pw.ClientCrashError:
                adopter = env.executor()
                job = adopter.reattach(job_id)
                return "resumed", job.get_result()

        outcome, value = env.run(main)
        assert outcome == "resumed"  # the crash instant is mid-run
        assert value == EXPECTED

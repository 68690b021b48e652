"""The journal is a replay log: it writes only what resume reads.

Every kind a journaled workload appends must be one
:meth:`JobLedger.from_records` folds (read off its source), or
``executor.created``, which marks the log's owner and seed.  A record
nobody replays is a WAN PUT on the client's clock for nothing: what a
call did is its committed COS status, and the trace spine keeps the
audit trail.
"""

from __future__ import annotations

import ast
import inspect
import textwrap

import pytest

import repro as pw
from repro.chaos import ChaosProfile
from repro.config import DagConfig, PyWrenConfig
from repro.core.environment import CloudEnvironment
from repro.dag import DagBuilder, DagScheduler
from repro.events import JobLedger
from repro.events import records as ev
from repro.vtime import vsleep


def _square(x):
    return x * x


def _total(values):
    return sum(values)


def _boom(x):
    raise ValueError(f"no {x}")


def _slow_step(x):
    """A threadless user function that outlasts several poll rounds."""
    yield vsleep(5.0)
    return x + 1


def _kinds_replay_reads() -> set[str]:
    """The ``ev.<KIND>`` constants :meth:`JobLedger.from_records` names."""
    source = textwrap.dedent(inspect.getsource(JobLedger.from_records))
    return {
        getattr(ev, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "ev"
    }


REPLAYED = _kinds_replay_reads() | {ev.EXECUTOR_CREATED}


def _journaled(workload, chaos=None, **config):
    """Run ``workload(env, executor)``; the kinds its journal holds."""
    env = CloudEnvironment.create(
        seed=11,
        events=True,
        chaos=chaos,
        config=PyWrenConfig(**config) if config else None,
    )

    def main():
        executor = pw.ibm_cf_executor()
        journal = workload(env, executor) or executor.journal
        return [r.kind for r in journal.replay()]

    return env.run(main)


def _plain_map(env, executor):
    assert executor.get_result(executor.map(_square, range(5))) == [0, 1, 4, 9, 16]


def _map_reduce(env, executor):
    executor.map_reduce(_square, [1, 2, 3], _total)
    assert executor.get_result() == [1, 4, 9, 14]


def _failing_dag_node(env, executor):
    builder = DagBuilder()
    failed = builder.call(_boom, 1)
    tail = failed.then(_square, fusable=False).then(_square, fusable=False)
    run = DagScheduler(executor).submit(builder.build())
    run.expose(tail)
    run.join()
    values, report = executor.get_result(throw_except=False)
    assert values is None and "upstream DAG node" in report.failures[0].error


def _lost_calls_buried(env, executor):
    executor.map_reduce(_square, [1, 2, 3], _total, retries=1)
    values, report = executor.get_result(throw_except=False)
    assert values == [None] * 4 and len(report) == 4


def _dead_letters(env, executor):
    executor.map(_boom, [1, 2])
    values, report = executor.get_result(throw_except=False)
    assert values == [None, None]
    key = report.failures[0].callset_id
    assert executor._cos.object_exists(
        executor.config.storage_bucket,
        executor._storage.deadletter_key(executor.executor_id, key),
    )


def _crash_and_reattach(env, executor):
    job_id = executor.executor_id
    with pytest.raises(pw.ClientCrashError):
        executor.map_reduce(_square, [1, 2, 3], _total)
        executor.get_result()
    adopter = env.executor()
    values = adopter.reattach(job_id).get_result()
    assert values == [1, 4, 9, 14][: len(values)]  # the durable prefix
    return adopter.journal


UNRECOVERABLE = ChaosProfile("crashy-workers", seed=2, crash_prob=1.0, hang_prob=0.0)

WORKLOADS = {
    "map": (_plain_map, None, {}),
    "map_reduce-centralized": (
        _map_reduce, None, {"dag": DagConfig(scheduler="centralized")}
    ),
    "map_reduce-swarm": (_map_reduce, None, {"dag": DagConfig(scheduler="swarm")}),
    "failing-dag-node": (_failing_dag_node, None, {}),
    "lost-calls-buried": (_lost_calls_buried, UNRECOVERABLE, {}),
    "dead-letters": (_dead_letters, None, {}),
    "crash-and-reattach": (
        _crash_and_reattach,
        ChaosProfile("client-crash", seed=7, client_crash_at_s=3.0),
        {},
    ),
}


class TestReplayLog:
    def test_every_defined_kind_is_replayed(self):
        defined = {getattr(ev, name) for name in ev.__all__ if name.isupper()}
        assert defined == REPLAYED

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_no_write_only_kinds(self, name):
        workload, chaos, config = WORKLOADS[name]
        kinds = _journaled(workload, chaos, **config)
        assert kinds[0] == ev.EXECUTOR_CREATED
        assert set(kinds) <= REPLAYED, sorted(set(kinds) - REPLAYED)

    def test_waiting_appends_nothing(self):
        """A 1,000-call ``map`` + ``get_result`` journals its submission —
        four records — however many poll rounds the wait takes."""
        env = CloudEnvironment.create(seed=7, events=True, trace=True)

        def main():
            executor = pw.ibm_cf_executor()
            values = executor.get_result(executor.map(_slow_step, range(1000)))
            return values, [r.kind for r in executor.journal.replay()]

        values, kinds = env.run(main)
        assert values == [x + 1 for x in range(1000)]
        rounds = [e for e in env.tracer.events() if e.name == "client.progress"]
        assert len(rounds) > 1
        assert kinds == [
            ev.EXECUTOR_CREATED, ev.JOB_SUBMITTED, ev.CALLS_INVOKED, ev.FUTURES_EXPOSED,
        ]

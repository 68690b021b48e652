"""Every call has one judge: the executor's watcher.

Counted, not timed, at one seed.  The client's LISTs and status GETs are
counted on the executor's own ``InternalStorage``: a LIST goes out only for
a callset with an invoked call whose status is unknown, a call's status is
read at most once (by the watcher for a DAG node, by ``get_result``'s
download for a flat call), and the totals are pinned exactly.  A waiter
beside the DAG watcher — ``wait()`` polling the reducers' callset before they
were invoked, ``result()`` polling a node's status every interval — fails it.
"""

from __future__ import annotations

import collections

import repro as pw
from repro.core.environment import CloudEnvironment
from repro.core.futures import CallState
from repro.dag import DagBuilder

SEED = 42


def _slow_inc(x):
    pw.sleep(3 + x % 3)
    return x + 1


def _total(values):
    return sum(values)


def _count(executor, futures_of):
    """Wrap the executor's LIST / status GET; returns (lists, gets) counters.

    ``futures_of(callset_id)`` lists the futures of a callset, checked at
    each LIST for an invoked call whose status is still unknown."""
    storage = executor._storage
    lists, gets = collections.Counter(), collections.Counter()
    list_done, get_status = storage.list_done_call_ids_steps, storage.get_status_steps

    def counted_list(executor_id, callset_id):
        assert any(
            f.state != CallState.NEW and not f.status_known for f in futures_of(callset_id)
        ), f"LIST of {callset_id}, which has no invoked call with an unknown status"
        lists[callset_id] += 1
        return (yield from list_done(executor_id, callset_id))

    def counted_get(executor_id, callset_id, call_id):
        gets[callset_id, call_id] += 1
        return (yield from get_status(executor_id, callset_id, call_id))

    storage.list_done_call_ids_steps = counted_list
    storage.get_status_steps = counted_get
    return lists, gets


class TestOneJudge:
    def test_map_reduce_get_result(self):
        env = CloudEnvironment.create(seed=SEED)

        def main():
            executor = pw.ibm_cf_executor()
            lists, gets = _count(
                executor,
                lambda cs: [f for f in executor.futures if f.callset_id == cs],
            )
            reducer = executor.map_reduce(_slow_inc, range(12), _total)
            return executor.get_result(reducer), lists, gets

        value, lists, gets = env.run(main)
        assert value == sum(range(1, 13))
        assert max(gets.values()) == 1  # each status read once
        assert (dict(lists), len(gets)) == ({"M000": 6, "R001": 1}, 13)

    def test_chain_dag_future_result(self):
        env = CloudEnvironment.create(seed=SEED)

        def main():
            executor = pw.ibm_cf_executor()
            builder = DagBuilder()
            node = builder.call(_slow_inc, 0, fusable=False)
            for _ in range(4):
                node = node.then(_slow_inc, fusable=False)
            run = builder.submit(executor)
            lists, gets = _count(
                executor,
                lambda cs: [n.future for n in run.dag.nodes if n.future.callset_id == cs],
            )
            return run.expose(node).result(), lists, gets

        value, lists, gets = env.run(main)
        assert value == 5
        assert max(gets.values()) == 1  # the watcher's read; result() adds none
        assert (dict(lists), len(gets)) == (
            {"D000": 3, "D001": 4, "D002": 5, "D003": 3, "D004": 4}, 5
        )


class TestOneWatcher:
    def test_two_dags_and_a_map_share_one_watcher(self):
        """Whatever an executor runs at once, its calls have one watcher
        task: the live watcher tasks are counted each time one starts."""
        env = CloudEnvironment.create(seed=SEED)
        kernel = env.kernel
        spawn_model = kernel.spawn_model
        live_at_spawn = []

        def counting(fn, *args, name=None, **kwargs):
            task = spawn_model(fn, *args, name=name, **kwargs)
            if "watch" in task.name:
                live_at_spawn.append(sum(
                    "watch" in t.name and not t.finished for t in kernel._tasks.values()
                ))
            return task

        kernel.spawn_model = counting

        def main():
            executor = pw.ibm_cf_executor()
            runs, roots = [], []
            for depth in (3, 4):
                builder = DagBuilder()
                node = builder.call(_slow_inc, 0, fusable=False)
                for _ in range(depth - 1):
                    node = node.then(_slow_inc, fusable=False)
                runs.append(builder.submit(executor))
                roots.append(runs[-1].expose(node))
            maps = executor.map(_slow_inc, range(5))
            done, not_done = executor.wait(roots + maps)
            return executor.get_result(roots + maps), not_done, all(r.finished for r in runs)

        values, not_done, finished = env.run(main)
        assert (values, not_done, finished) == ([3, 4, 1, 2, 3, 4, 5], [], True)
        assert live_at_spawn and max(live_at_spawn) == 1

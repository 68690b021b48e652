"""What one in-flight activation keeps alive, counted rather than timed.

Fig. 3's point is massive concurrency, and the simulator's own ceiling on it
is memory: every in-flight activation holds its platform task, its records
and an in-cloud link.  These tests map N functions that all sleep at once
and difference two sizes, so fixed costs cancel and what is left is the
per-activation footprint.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import gc
import random
import tracemalloc
import types
from typing import NamedTuple

import pytest

import repro as pw
from repro.core import context as ambient
from repro.core.worker import RUNNER_ACTION_BASENAME
from repro.faas import SystemLimits
from repro.net import LatencyModel
from repro.trace import export
from repro.vtime import vsleep

HOLD_S = 600.0  # every function sleeps this long: all N overlap
SETTLE_S = 120.0  # the client looks this long after map() returned


def _hold(x):
    yield vsleep(HOLD_S)
    return x


def _context_keys(_):
    return sorted(var.name for var in contextvars.copy_context())


#: what a mutating function writes over its ``call_info``: every key the
#: runner reads, pointed somewhere else
_FORGED_CALL_INFO = {
    "executor_id": "forged", "callset_id": "X999", "call_id": "99999",
    "bucket": "forged", "prefix": "forged", "func_key": "forged",
    "data_range": [0, 1], "swarm": {"dag_id": "forged", "slice": [0, 1]},
    "monitor_queue": "forged", "placement_hint": [0],
}


def _forge_call_info(mutate):
    if mutate:
        info = ambient.current_context().call_info
        info.clear()
        info.update(_FORGED_CALL_INFO)
    return "done"


def _forge_call_info_steps(mutate):
    yield vsleep(1.0)
    return _forge_call_info(mutate)


class Footprint(NamedTuple):
    heap_bytes: int  # tracemalloc's traced heap
    tracked: int  # objects the garbage collector tracks
    generators: int
    randoms: int  # live ``random.Random`` objects


@functools.lru_cache(maxsize=None)
def _in_flight_footprint(n: int, trace: bool = False) -> Footprint:
    """What the process holds while ``n`` mapped functions are all running."""
    limits = SystemLimits(
        max_concurrent=n + 64, invoker_count=-(-n // 400) + 2,
        invoker_memory_mb=102_400,
    )
    seen = []

    def main():
        executor = pw.ibm_cf_executor()
        futures = executor.map(_hold, range(n))
        pw.sleep(SETTLE_S)
        running = [
            r for r in env.platform.activations()
            if r.action_name.startswith(RUNNER_ACTION_BASENAME)
            and r.start_time is not None and r.end_time is None
        ]
        assert len(running) == n
        gc.collect()
        heap_bytes = tracemalloc.get_traced_memory()[0]
        objects = gc.get_objects()
        seen.append(Footprint(
            heap_bytes,
            len(objects),
            sum(1 for obj in objects if type(obj) is types.GeneratorType),
            sum(1 for obj in objects if isinstance(obj, random.Random)),
        ))
        del objects
        assert executor.get_result(futures) == list(range(n))

    gc.collect()
    tracemalloc.start()
    try:
        env = pw.CloudEnvironment.create(
            client_latency=LatencyModel.wan(), limits=limits, seed=42,
            trace=trace,
        )
        env.run(main)
    finally:
        tracemalloc.stop()
    return seen[0]


class TestInFlightFootprint:
    """Design property, no timing: an in-flight activation holds no
    Mersenne-Twister state, under 3.75 KB and 21 tracked objects in all,
    traced or not."""

    SMALL, LARGE = 300, 900
    #: heap bytes per in-flight activation, client future and params
    #: included: 3.40 KB measured (3.67 KB with a waiter per sleep, an
    #: ``array('d')`` of link draws, a log list per record and a position
    #: list per waited call; 5.03 KB before slotted per-call objects, one
    #: params copy and set-up frames that return before user code)
    MAX_BYTES_PER_ACTIVATION = 3.75 * 1024
    #: the same with the trace spine on: its ~22 emitted events included
    #: (5.66 KB measured)
    MAX_TRACED_BYTES_PER_ACTIVATION = 6.5 * 1024
    #: objects the collector tracks per in-flight activation, which every
    #: full collection walks: 20 measured (24 with the four objects above,
    #: 29 before), or 21 in a process where the ambient variable's salted
    #: hash shares a HAMT slot with another context variable (pytest's
    #: ``decimal_context``), so setting it copies one node more
    MAX_TRACKED_PER_ACTIVATION = 21

    def _per_activation(self, trace: bool) -> Footprint:
        small = _in_flight_footprint(self.SMALL, trace)
        large = _in_flight_footprint(self.LARGE, trace)
        return Footprint(*(
            (b - a) / (self.LARGE - self.SMALL) for a, b in zip(small, large)
        ))

    def test_in_flight_activations_stay_small(self):
        per_activation = self._per_activation(trace=False)
        assert per_activation.heap_bytes <= self.MAX_BYTES_PER_ACTIVATION
        # whole objects: fixed costs cancel only to a few hundredths
        assert round(per_activation.tracked) <= self.MAX_TRACKED_PER_ACTIVATION
        assert per_activation.randoms == 0

    def test_a_traced_activation_runs_the_untraced_task(self):
        """Tracing binds the activation's ids around its spawn instead of
        wrapping its task, and its events keep nothing the collector
        tracks: the in-flight heap differs only by the events' bytes."""
        traced = self._per_activation(trace=True)
        untraced = self._per_activation(trace=False)
        # whole objects: fixed costs cancel only to a few hundredths
        assert round(traced.tracked) == round(untraced.tracked)
        assert round(traced.generators) == round(untraced.generators)
        assert traced.heap_bytes <= self.MAX_TRACED_BYTES_PER_ACTIVATION


class TestWaitIndex:
    """Design property, no timing: a parked ``get_result`` indexes its
    futures by call id with no container per call, so the part of its
    index the collector walks does not grow with the futures it waits on."""

    @staticmethod
    def _tracked_in_index(n: int) -> int:
        env = pw.CloudEnvironment.create(seed=42)
        seen = []

        def look(watcher):
            yield vsleep(SETTLE_S)  # every function still holds
            (wait,) = watcher.waits
            assert len(wait.pending) == n
            seen.append(sum(
                gc.is_tracked(obj)
                for ids in wait.callsets.values()
                for obj in (ids, *ids.values())
            ))

        def main():
            executor = pw.ibm_cf_executor()
            futures = executor.map(_hold, range(n))
            env.kernel.spawn_model(look, executor._watcher)
            assert executor.get_result(futures) == list(range(n))

        env.run(main)
        return seen[0]

    def test_a_parked_wait_holds_no_list_per_call(self):
        assert self._tracked_in_index(10) == self._tracked_in_index(40)


class TestActivationContext:
    def test_a_traced_activation_sets_no_extra_context_key(self):
        """Tracing rewrites the ambient variable an untraced activation
        already sets.  A key more would cost a traced activation one more
        HAMT node whenever the keys' salted hashes collide."""
        keys = {}
        for trace in (False, True):
            env = pw.CloudEnvironment.create(seed=42, trace=trace)

            def main():
                executor = pw.ibm_cf_executor()
                return executor.get_result(executor.map(_context_keys, range(2)))

            keys[trace] = env.run(main)
        assert keys[True] == keys[False]


class TestOneParamsCopy:
    """User code's ``call_info`` is the activation's own params dict, not a
    copy of it: the runner reads everything it needs from the params
    before user code starts, so a function that rewrites its
    ``call_info`` changes nothing the platform records."""

    @staticmethod
    def _run(fn, mutate: bool):
        env = pw.CloudEnvironment.create(seed=42, trace=True)

        def main():
            executor = pw.ibm_cf_executor()
            futures = executor.map(fn, [mutate, mutate])
            result = executor.get_result(futures)
            statuses = [
                executor._storage.get_status(f.executor_id, f.callset_id, f.call_id)
                for f in futures
            ]
            return result, statuses

        result, statuses = env.run(main)
        records = sorted(
            (dataclasses.astuple(r) for r in env.platform.activations()),
            key=lambda record: record[0],
        )
        return result, statuses, records, export.to_jsonl(env.tracer.events())

    @pytest.mark.parametrize("fn", [_forge_call_info, _forge_call_info_steps])
    def test_mutating_call_info_changes_nothing_recorded(self, fn):
        # pickled True and False have one length: the runs move the same bytes
        kept = self._run(fn, False)
        forged = self._run(fn, True)
        assert forged[0] == kept[0] == ["done", "done"]
        assert forged[1] == kept[1]  # status objects, as committed
        assert forged[2] == kept[2]  # every activation record
        assert forged[3] == kept[3]  # the trace, byte for byte

"""What one in-flight activation keeps alive, counted rather than timed.

Fig. 3's point is massive concurrency, and the simulator's own ceiling on it
is memory: every in-flight activation holds its platform task, its records
and an in-cloud link.  These tests map N functions that all sleep at once
and difference two sizes, so fixed costs cancel and what is left is the
per-activation footprint.
"""

from __future__ import annotations

import contextvars
import functools
import gc
import random
import tracemalloc
import types
from typing import NamedTuple

import repro as pw
from repro.core.worker import RUNNER_ACTION_BASENAME
from repro.faas import SystemLimits
from repro.net import LatencyModel
from repro.vtime import vsleep

HOLD_S = 600.0  # every function sleeps this long: all N overlap
SETTLE_S = 120.0  # the client looks this long after map() returned


def _hold(x):
    yield vsleep(HOLD_S)
    return x


def _context_keys(_):
    return sorted(var.name for var in contextvars.copy_context())


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
    Mersenne-Twister state and a few KB in all, traced or not."""

    SMALL, LARGE = 300, 900
    #: heap bytes per in-flight activation, client future and params included
    MAX_BYTES_PER_ACTIVATION = 6 * 1024
    #: the same with the trace spine on: its ~22 emitted events included
    MAX_TRACED_BYTES_PER_ACTIVATION = 9.5 * 1024

    def _per_activation(self, trace: bool) -> Footprint:
        small = _in_flight_footprint(self.SMALL, trace)
        large = _in_flight_footprint(self.LARGE, trace)
        return Footprint(*(
            (b - a) / (self.LARGE - self.SMALL) for a, b in zip(small, large)
        ))

    def test_in_flight_activations_stay_small(self):
        per_activation = self._per_activation(trace=False)
        assert per_activation.heap_bytes <= self.MAX_BYTES_PER_ACTIVATION
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

"""What one in-flight activation keeps alive, counted rather than timed.

Fig. 3's point is massive concurrency, and the simulator's own ceiling on it
is memory: every in-flight activation holds its platform task, its records
and an in-cloud link.  These tests map N functions that all sleep at once
and difference two sizes, so fixed costs cancel and what is left is the
per-activation footprint.
"""

from __future__ import annotations

import gc
import random
import tracemalloc

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


def _in_flight_footprint(n: int) -> tuple[int, int]:
    """(traced heap bytes, live ``random.Random`` objects) while ``n``
    mapped functions are all running."""
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
        randoms = sum(
            1 for obj in gc.get_objects() if isinstance(obj, random.Random)
        )
        seen.append((tracemalloc.get_traced_memory()[0], randoms))
        assert executor.get_result(futures) == list(range(n))

    gc.collect()
    tracemalloc.start()
    try:
        env = pw.CloudEnvironment.create(
            client_latency=LatencyModel.wan(), limits=limits, seed=42
        )
        env.run(main)
    finally:
        tracemalloc.stop()
    return seen[0]


class TestInFlightFootprint:
    """Design property, no timing: an in-flight activation holds no
    Mersenne-Twister state and a few KB in all."""

    SMALL, LARGE = 300, 900
    #: heap bytes per in-flight activation, client future and params included
    MAX_BYTES_PER_ACTIVATION = 6 * 1024

    def test_in_flight_activations_stay_small(self):
        small_bytes, small_randoms = _in_flight_footprint(self.SMALL)
        large_bytes, large_randoms = _in_flight_footprint(self.LARGE)
        per_activation = (large_bytes - small_bytes) / (self.LARGE - self.SMALL)
        assert per_activation <= self.MAX_BYTES_PER_ACTIVATION
        assert large_randoms == small_randoms

"""Scale regression: one kernel runs a 10,000-function map (nightly).

Marked ``slow`` — excluded from the default run by ``-m "not slow"`` in the
pytest addopts; CI runs it on the nightly schedule and locally it's
``pytest -m slow``.  The assertions pin the hybrid scheduler's contract at
scale: the job completes, the OS-thread count stays bounded by the kernel's
pool (model tasks hold no thread while blocked), and the trace-derived
concurrency timeline actually reaches 10k simultaneous executions.
"""

from __future__ import annotations

import threading

import pytest

import repro as pw
from repro.analytics.timeline import concurrency_timeline
from repro.config import InvokerMode
from repro.core import cost
from repro.core.environment import CloudEnvironment
from repro.faas.limits import SystemLimits
from repro.net.latency import LatencyModel
from repro.trace import derive

pytestmark = pytest.mark.slow

N_FUNCTIONS = 10_000


def _scale_task(_: object):
    """The Fig. 3-style ~60 s function as a threadless steps generator."""
    from repro.vtime.kernel import vsleep

    yield vsleep(cost.FIG3_TASK_SECONDS)
    return 1


class _ThreadPeak:
    """Samples the process's OS-thread count from a plain thread."""

    def __init__(self) -> None:
        self.peak = threading.active_count()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.is_set():
            self.peak = max(self.peak, threading.active_count())
            self._stop.wait(0.02)

    def __enter__(self) -> "_ThreadPeak":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, threading.active_count())


def test_ten_thousand_function_map_on_one_kernel():
    invoker_memory_mb = 102_400
    per_node = invoker_memory_mb // 256
    limits = SystemLimits(
        max_concurrent=N_FUNCTIONS + 64,
        invoker_count=(N_FUNCTIONS + per_node - 1) // per_node + 2,
        invoker_memory_mb=invoker_memory_mb,
    )
    env = CloudEnvironment.create(
        client_latency=LatencyModel.wan(), limits=limits, seed=42, trace=True
    )

    def main():
        executor = pw.ibm_cf_executor(invoker_mode=InvokerMode.MASSIVE)
        futures = executor.map(_scale_task, [0] * N_FUNCTIONS)
        results = executor.get_result(futures)
        assert results == [1] * N_FUNCTIONS
        return executor.trace_events(futures[0].callset_id)

    with _ThreadPeak() as watcher:
        events = env.run(main)

    # the kernel never approached thread-per-function: bounded by the pool
    pool = env.kernel.thread_stats()["pool_size"]
    assert watcher.peak < 2 * pool, (
        f"peak {watcher.peak} OS threads vs pool {pool}"
    )

    # the trace stream proves all 10k really executed concurrently
    intervals = derive.execution_intervals(events)
    assert len(intervals) == N_FUNCTIONS
    timeline = concurrency_timeline(intervals)
    assert max(level for _t, level in timeline) >= N_FUNCTIONS

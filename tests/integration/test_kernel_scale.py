"""Scale regression: one kernel runs a 10,000-function map (nightly).

Marked ``slow`` — excluded from the default run by ``-m "not slow"`` in the
pytest addopts; CI runs it on the nightly schedule and locally it's
``pytest -m slow``.  The assertions pin the hybrid scheduler's contract at
scale: the job completes, the OS-thread count stays bounded by the kernel's
pool (model tasks hold no thread while blocked), and the trace-derived
concurrency timeline actually reaches 10k simultaneous executions.  The
same workload at 2,000 (the paper's Fig. 3 ceiling) and 50,000 functions
checks that host wall clock grows near-linearly with concurrency.
"""

from __future__ import annotations

import gc
import threading
import time

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


def _run_scale(n_functions, trace=False):
    """One Fig. 3-shaped map at ``n_functions``-way concurrency.

    Returns ``(env, peak OS threads, host wall s, the root's trace events)``;
    the wall clock covers building the environment through the last result.
    """
    invoker_memory_mb = 102_400
    per_node = invoker_memory_mb // 256
    limits = SystemLimits(
        max_concurrent=n_functions + 64,
        invoker_count=(n_functions + per_node - 1) // per_node + 2,
        invoker_memory_mb=invoker_memory_mb,
    )
    t0 = time.perf_counter()
    env = CloudEnvironment.create(
        client_latency=LatencyModel.wan(), limits=limits, seed=42, trace=trace
    )

    def main():
        executor = pw.ibm_cf_executor(invoker_mode=InvokerMode.MASSIVE)
        futures = executor.map(_scale_task, [0] * n_functions)
        assert executor.get_result(futures) == [1] * n_functions
        return executor.trace_events(futures[0].callset_id)

    with _ThreadPeak() as watcher:
        events = env.run(main)
    return env, watcher.peak, time.perf_counter() - t0, events


def test_ten_thousand_function_map_on_one_kernel():
    env, peak_threads, _, events = _run_scale(N_FUNCTIONS, trace=True)

    # the kernel never approached thread-per-function: bounded by the pool
    pool = env.kernel.thread_stats()["pool_size"]
    assert peak_threads < 2 * pool, f"peak {peak_threads} OS threads vs pool {pool}"

    # the trace stream proves all 10k really executed concurrently
    intervals = derive.execution_intervals(events)
    assert len(intervals) == N_FUNCTIONS
    timeline = concurrency_timeline(intervals)
    assert max(level for _t, level in timeline) >= N_FUNCTIONS


def test_wall_clock_grows_near_linearly_to_50k():
    """Per-function host wall at 50k stays within 1.5x of the 2k anchor.

    The cyclic collector is paused for the timed runs, so the figure is
    the scheduler's, not CPython's gen-2 sweeps over 50k live records.
    """
    _run_scale(200)  # warm imports and code paths
    per_function_s = {}
    gc.collect()
    gc.disable()
    try:
        for n in (2_000, 50_000):
            env, peak_threads, wall_s, _ = _run_scale(n)
            assert peak_threads < 2 * env.kernel.thread_stats()["pool_size"]
            per_function_s[n] = wall_s / n
    finally:
        gc.enable()
    assert per_function_s[50_000] / per_function_s[2_000] < 1.5

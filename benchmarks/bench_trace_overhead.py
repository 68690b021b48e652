"""Tracing overhead benchmark: the same workload with the spine off vs on.

Two acceptance criteria for the trace plane.  With tracing *disabled* the
executor adds <5% wall-clock overhead versus the pre-trace code path (the
disabled spine is the default, so this is what every existing experiment
pays).  With tracing *enabled* the same job costs <30% more: the spine is
meant to be left on.  We measure the full client flow — submit, execute,
collect — of a 1,000-call map (ROADMAP item 3's probe size; a 40-call map
is 20 ms of host time and under-reads the enabled cost by half), repeated
several times, taking the best run of each mode to suppress scheduler
noise.  The 10,000-call figure with quartiles is ``make perf-trace``.

Run via ``make bench-trace``; writes ``BENCH_trace_overhead.json``.
"""

from __future__ import annotations

import json
import os
import time

N_CALLS = 1_000
REPEATS = 5
MAX_DISABLED_PCT = 5.0
MAX_ENABLED_PCT = 30.0
OUTPUT = os.path.join(os.path.dirname(__file__), "..", "BENCH_trace_overhead.json")


def _workload(trace: bool, n_calls: int) -> tuple[float, int]:
    """One full map job; returns (wall seconds, trace events recorded)."""
    from repro.core.environment import CloudEnvironment
    from repro.faas.limits import SystemLimits

    limits = SystemLimits(max_concurrent=n_calls + 64, invoker_count=10)
    env = CloudEnvironment.create(limits=limits, trace=trace)

    def job():
        import repro

        executor = repro.ibm_cf_executor()
        futures = executor.map(lambda x: x * x, list(range(n_calls)))
        return executor.get_result(futures)

    t0 = time.perf_counter()
    result = env.run(job)
    elapsed = time.perf_counter() - t0
    assert result == [x * x for x in range(n_calls)]
    return elapsed, len(env.tracer)


def _guard_cost_s(iterations: int = 1_000_000) -> float:
    """Measured cost of one disabled emission-site guard, in seconds.

    Every instrumentation site pays exactly this when tracing is off:
    an attribute load plus an ``is not None and .enabled`` check.
    """
    from repro.trace import Tracer
    from repro.vtime import Kernel

    tracer = Tracer(Kernel(), enabled=False)
    hits = 0
    t0 = time.perf_counter()
    for _ in range(iterations):
        if tracer is not None and tracer.enabled:
            hits += 1
    elapsed = time.perf_counter() - t0
    assert hits == 0
    return elapsed / iterations


def measure(n_calls: int = N_CALLS, repeats: int = REPEATS) -> dict:
    # warm-up: imports, bytecode caches, kernel thread machinery
    _workload(False, n_calls)

    # off and on alternate, so a drift of the host hits both modes alike
    off_s = on_s = float("inf")
    on_events = 0
    for _ in range(repeats):
        off_s = min(off_s, _workload(False, n_calls)[0])
        elapsed, on_events = _workload(True, n_calls)
        on_s = min(on_s, elapsed)

    # Disabled overhead = guard cost x guarded sites actually reached.  The
    # enabled run records one event per reached site, so its event count
    # bounds how many guards the disabled run evaluates.
    guard_s = _guard_cost_s()
    overhead_disabled_pct = guard_s * on_events / off_s * 100.0
    overhead_enabled_pct = (on_s - off_s) / off_s * 100.0

    return {
        "workload": f"map(x*x, range({n_calls})) end to end",
        "repeats": repeats,
        "tracing_off_s": round(off_s, 4),
        "tracing_on_s": round(on_s, 4),
        "trace_events_recorded": on_events,
        "enabled_us_per_event": round((on_s - off_s) / on_events * 1e6, 2),
        "guard_cost_ns": round(guard_s * 1e9, 2),
        "overhead_disabled_pct": round(overhead_disabled_pct, 4),
        "overhead_enabled_vs_disabled_pct": round(overhead_enabled_pct, 2),
        "criterion": "tracing disabled adds <5% executor wall-clock overhead",
        "criterion_met": bool(overhead_disabled_pct < MAX_DISABLED_PCT),
        "criterion_enabled": "tracing enabled adds <30% over disabled",
        "criterion_enabled_met": bool(overhead_enabled_pct < MAX_ENABLED_PCT),
    }


def main() -> int:
    report = measure()
    path = os.path.abspath(OUTPUT)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))
    print(f"wrote {path}")
    return 0 if report["criterion_met"] and report["criterion_enabled_met"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

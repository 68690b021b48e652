"""Event-journal overhead and time-to-recover benchmark.

Acceptance criterion for the events plane: with the journal *enabled*
the executor adds <5% wall-clock overhead versus the default (journal
off) on a Fig. 3-shaped map workload — many uniform sleep-bound
functions, submit/execute/collect end to end.  We run a scaled-down
Fig. 3 stage (the real experiment is 500-2000 x 60 s functions; the
shape is what matters for journal pressure, not the absolute size),
best-of-N per mode to suppress host scheduler noise.

We also measure time-to-recover: kill the driver mid-wait with
client-crash chaos, then time a fresh executor's ``reattach`` — journal
replay, COS reconcile, DAG adoption — through to results.

Run via ``make bench-resume``; writes ``BENCH_resume_overhead.json``.
"""

from __future__ import annotations

import json
import os
import time

N_CALLS = 60          # Fig. 3 shape, scaled: uniform sleep-bound maps
TASK_SECONDS = 6.0    # virtual seconds per function (Fig. 3 uses 60)
REPEATS = 5
CRASH_AT_S = 4.0      # mid-wait: after submission is durable
OUTPUT = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_resume_overhead.json"
)


def _task(x):
    import repro

    repro.sleep(TASK_SECONDS)
    return x * x


def _workload(events: bool) -> tuple[float, int]:
    """One full map job; returns (wall seconds, journal records written)."""
    from repro.core.environment import CloudEnvironment

    env = CloudEnvironment.create(events=events)

    def job():
        import repro

        executor = repro.ibm_cf_executor()
        executor.map(_task, list(range(N_CALLS)))
        result = executor.get_result()
        records = len(executor.journal.replay()) if executor.journal else 0
        return result, records

    t0 = time.perf_counter()
    result, records = env.run(job)
    elapsed = time.perf_counter() - t0
    assert result == [x * x for x in range(N_CALLS)]
    return elapsed, records


def _best(events: bool) -> tuple[float, int]:
    best = float("inf")
    records = 0
    for _ in range(REPEATS):
        elapsed, records = _workload(events)
        best = min(best, elapsed)
    return best, records


def _recover() -> tuple[float, float, int]:
    """Crash the driver mid-wait; returns (recover wall s, recover
    virtual s, events replayed) for the adopter's reattach-to-results."""
    import repro
    from repro.chaos import ChaosProfile
    from repro.core.environment import CloudEnvironment

    env = CloudEnvironment.create(
        events=True,
        chaos=ChaosProfile("client-crash", seed=7, client_crash_at_s=CRASH_AT_S),
    )

    def job():
        executor = repro.ibm_cf_executor()
        job_id = executor.executor_id
        try:
            executor.map(_task, list(range(N_CALLS)))
            executor.get_result()
            raise AssertionError("driver survived the crash window")
        except repro.ClientCrashError:
            pass
        adopter = env.executor()
        t0 = time.perf_counter()
        v0 = env.kernel.now()
        job = adopter.reattach(job_id)
        result = job.get_result()
        wall = time.perf_counter() - t0
        virtual = env.kernel.now() - v0
        assert result == [x * x for x in range(N_CALLS)]
        return wall, virtual, job.stats["events_replayed"]

    return env.run(job)


def main() -> int:
    # warm-up: imports, bytecode caches, kernel thread machinery
    _workload(False)

    off_s, _ = _best(False)
    on_s, on_records = _best(True)
    overhead_pct = (on_s - off_s) / off_s * 100.0

    recover_wall_s, recover_virtual_s, replayed = _recover()

    report = {
        "workload": (
            f"map(sleep {TASK_SECONDS}s, range({N_CALLS})) end to end "
            "(Fig. 3 shape, scaled down)"
        ),
        "repeats": REPEATS,
        "journal_off_s": round(off_s, 4),
        "journal_on_s": round(on_s, 4),
        "journal_records_written": on_records,
        "overhead_enabled_pct": round(overhead_pct, 2),
        "crash_at_virtual_s": CRASH_AT_S,
        "recover_wall_s": round(recover_wall_s, 4),
        "recover_virtual_s": round(recover_virtual_s, 4),
        "events_replayed": replayed,
        "criterion": "journal enabled adds <5% executor wall-clock overhead",
        "criterion_met": bool(overhead_pct < 5.0),
    }
    path = os.path.abspath(OUTPUT)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

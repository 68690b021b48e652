"""What the event journal costs on the happy path, and what a crash costs.

Tier-1: a driver that crashes mid-wait is recovered by replaying the
journal (its record count on a 1,000-call map is pinned in
``tests/bench/test_trace_overhead_smoke.py``).  The timed criterion is
slow: on ``map(sleep 6 s, range(60))``, best of 5 per mode after a
warm-up, the journal adds <5% executor wall clock.
"""

from __future__ import annotations

import time

import pytest

import repro as pw
from repro.chaos import ChaosProfile
from repro.core.environment import CloudEnvironment

N_CALLS = 60
TASK_S = 6.0
REPEATS = 5


def sleep_square(x):
    pw.sleep(TASK_S)
    return x * x


def run_map(events):
    """One map job; returns its host wall seconds."""
    env = CloudEnvironment.create(events=events)

    def job():
        executor = pw.ibm_cf_executor()
        executor.map(sleep_square, list(range(N_CALLS)))
        return executor.get_result()

    t0 = time.perf_counter()
    result = env.run(job)
    elapsed = time.perf_counter() - t0
    assert result == [x * x for x in range(N_CALLS)]
    return elapsed


def test_crashed_driver_recovers_by_replaying_the_journal():
    """The driver dies at virtual t=4 s; a fresh executor reattaches."""
    env = CloudEnvironment.create(
        events=True,
        chaos=ChaosProfile("client-crash", seed=7, client_crash_at_s=4.0),
    )

    def job():
        executor = pw.ibm_cf_executor()
        with pytest.raises(pw.ClientCrashError):
            executor.map(sleep_square, list(range(N_CALLS)))
            executor.get_result()
        t0 = env.kernel.now()
        resumed = env.executor().reattach(executor.executor_id)
        assert resumed.get_result() == [x * x for x in range(N_CALLS)]
        return env.kernel.now() - t0, resumed.stats["events_replayed"]

    recover_s, replayed = env.run(job)
    assert (round(recover_s, 4), replayed) == (7.0505, 4)


@pytest.mark.slow
def test_journal_adds_under_5pct_wall_clock():
    run_map(events=False)  # warm-up
    off = min(run_map(events=False) for _ in range(REPEATS))
    on = min(run_map(events=True) for _ in range(REPEATS))
    assert (on - off) / off * 100.0 < 5.0

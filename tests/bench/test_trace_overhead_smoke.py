"""Trace overhead: ``map(x*x, range(1000))`` with the spine off and on.

Tier-1 counts what the timed overhead criteria rest on, on that map: the
events a traced run emits, none for an untraced one, and the records a
journaled run writes (the journal's timed criterion is
``tests/events/test_journal_overhead.py``).  The timed trace criteria
are slow-tier, each the best of 5 alternated runs after a warm-up: a
*disabled* spine adds <5% executor wall clock (guard cost x sites
reached), an *enabled* one <30%.  The 10,000-call figure with quartiles
is ``make perf-trace``.
"""

from __future__ import annotations

import time

import pytest

import repro as pw
from repro.core.environment import CloudEnvironment
from repro.faas.limits import SystemLimits
from repro.trace import Tracer
from repro.vtime import Kernel

N_CALLS = 1_000
REPEATS = 5
#: events a traced 1,000-call map emits at the default seed
TRACED_EVENTS = 21_076


def run_map(n_calls, trace, events=False):
    """One full map job; returns ``(host wall s, trace events, journal
    records, virtual makespan s)``."""
    env = CloudEnvironment.create(
        limits=SystemLimits(max_concurrent=n_calls + 64, invoker_count=10),
        trace=trace, events=events,
    )

    def job():
        executor = pw.ibm_cf_executor()
        result = executor.get_result(executor.map(lambda x: x * x, list(range(n_calls))))
        return result, len(executor.journal.replay()) if executor.journal else 0

    t0 = time.perf_counter()
    result, records = env.run(job)
    elapsed = time.perf_counter() - t0
    assert result == [x * x for x in range(n_calls)]
    return elapsed, len(env.tracer), records, env.now()


def test_tiny_map_reports_both_modes():
    assert run_map(20, trace=False)[1] == 0
    assert run_map(20, trace=True)[1] > 20  # at least one event per call


def test_traced_1000_call_map_emits_pinned_events():
    assert run_map(N_CALLS, trace=True)[1] == TRACED_EVENTS


@pytest.fixture(scope="module")
def untraced():
    return run_map(N_CALLS, trace=False)


def test_untraced_1000_call_map_records_no_events(untraced):
    assert untraced[1:3] == (0, 0)  # no events, no journal


def test_journaled_1000_call_map_writes_pinned_records(untraced):
    """The journal writes only the submission, nothing while the driver
    waits or collects, and moves the modelled makespan by under 5%."""
    _, events, records, makespan_s = run_map(N_CALLS, trace=False, events=True)
    assert (events, records) == (0, 4)
    assert abs(makespan_s - untraced[3]) <= 0.05 * untraced[3]


@pytest.mark.slow
class TestTimedOverhead:
    @pytest.fixture(scope="class")
    def best(self):
        run_map(N_CALLS, trace=False)  # warm-up
        off = on = float("inf")
        for _ in range(REPEATS):  # alternated, so host drift hits both modes
            off = min(off, run_map(N_CALLS, trace=False)[0])
            on = min(on, run_map(N_CALLS, trace=True)[0])
        return off, on

    def test_tracing_disabled_adds_under_5pct(self, best):
        """Guard cost x guards reached, over the untraced run: the enabled
        run records one event per guarded site it reached."""
        tracer, iterations, hits = Tracer(Kernel(), enabled=False), 1_000_000, 0
        t0 = time.perf_counter()
        for _ in range(iterations):
            if tracer is not None and tracer.enabled:
                hits += 1
        guard_s = (time.perf_counter() - t0) / iterations
        assert hits == 0
        assert guard_s * TRACED_EVENTS / best[0] * 100.0 < 5.0

    def test_tracing_enabled_adds_under_30pct(self, best):
        off, on = best
        assert (on - off) / off * 100.0 < 30.0

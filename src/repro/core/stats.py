"""Per-job execution statistics.

The real framework stores "some metadata about the status of the
invocations, such as execution times" in COS (§4.2); this module turns a
job's futures into the summary numbers the paper's evaluation narrates:
invocation phase, execution spread (the fast/slow functions visible in
Fig. 3), and total makespan.

The aggregation itself works on plain :class:`CallRecord` values so the
same derivation serves both sources of truth: future statuses
(:func:`collect_job_stats`) and the trace spine
(:func:`repro.trace.derive.job_stats_from_events`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.core.futures import ResponseFuture


@dataclass(frozen=True)
class JobStats:
    """Summary of one finished job (all futures must be done)."""

    n_calls: int
    #: virtual time the first function started
    first_start: float
    #: virtual time the last function started (end of the invocation ramp)
    last_start: float
    #: virtual time the last function finished
    last_end: float
    mean_duration: float
    p50_duration: float
    p95_duration: float
    max_duration: float
    #: re-invocations spent recovering lost calls across the job
    retries_total: int = 0
    #: calls that ended in error (including buried lost calls)
    failed_calls: int = 0

    @property
    def spawn_spread(self) -> float:
        """Length of the invocation ramp (Fig. 2's invocation phase)."""
        return self.last_start - self.first_start

    @property
    def makespan(self) -> float:
        """First start to last finish."""
        return self.last_end - self.first_start


@dataclass(frozen=True)
class CallRecord:
    """Outcome of one call, independent of where it was observed.

    ``start``/``end`` are ``None`` for buried (lost) calls that never
    reported execution timestamps; ``attempts`` counts invocations
    (1 = no retries).
    """

    start: Optional[float]
    end: Optional[float]
    success: bool
    attempts: int = 1


def _percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of pre-sorted values.

    ``q`` is a fraction in [0, 1].  For a rank that falls between two
    samples the value is interpolated between them, so e.g. the p95 of
    ``[1, 2, 3, 4]`` is 3.85 rather than snapping to a neighbour the way
    nearest-rank rounding does on small samples.
    """
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = q * (len(sorted_values) - 1)
    lo = math.floor(position)
    hi = math.ceil(position)
    if lo == hi:
        return sorted_values[int(position)]
    fraction = position - lo
    return sorted_values[lo] * (1.0 - fraction) + sorted_values[hi] * fraction


def stats_from_call_records(records: Sequence[CallRecord]) -> JobStats:
    """Aggregate :class:`CallRecord` values into a :class:`JobStats`."""
    records = list(records)
    if not records:
        raise ValueError("stats_from_call_records needs at least one record")
    starts: list[float] = []
    ends: list[float] = []
    durations: list[float] = []
    retries_total = 0
    failed_calls = 0
    for record in records:
        retries_total += max(0, record.attempts - 1)
        if not record.success:
            failed_calls += 1
        # buried (lost) calls may lack execution timestamps
        if record.start is None or record.end is None:
            continue
        starts.append(record.start)
        ends.append(record.end)
        durations.append(record.end - record.start)
    durations.sort()
    if not durations:
        return JobStats(
            n_calls=len(records),
            first_start=0.0,
            last_start=0.0,
            last_end=0.0,
            mean_duration=0.0,
            p50_duration=0.0,
            p95_duration=0.0,
            max_duration=0.0,
            retries_total=retries_total,
            failed_calls=failed_calls,
        )
    return JobStats(
        n_calls=len(records),
        first_start=min(starts),
        last_start=max(starts),
        last_end=max(ends),
        mean_duration=sum(durations) / len(durations),
        p50_duration=_percentile(durations, 0.5),
        p95_duration=_percentile(durations, 0.95),
        max_duration=durations[-1],
        retries_total=retries_total,
        failed_calls=failed_calls,
    )


def collect_job_stats(futures: Sequence[ResponseFuture]) -> JobStats:
    """Aggregate statuses of finished futures into a :class:`JobStats`.

    Each future's status is fetched (cached after the first read), so call
    this after ``get_result``/``wait`` to avoid extra polling.
    """
    futures = list(futures)
    if not futures:
        raise ValueError("collect_job_stats needs at least one future")
    records = []
    for future in futures:
        status = future.status()
        records.append(
            CallRecord(
                start=status.get("start_time"),
                end=status.get("end_time"),
                success=bool(status.get("success")),
                attempts=max(1, future.invoke_count),
            )
        )
    return stats_from_call_records(records)

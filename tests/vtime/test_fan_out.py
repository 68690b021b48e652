"""``fan_out``: the client's bounded fan-out on model-task lanes.

IBM-PyWren's client spawns calls and downloads results "leveraging
threading"; here those pools are ``width`` model-task lanes draining one
shared iterator.  The cases pin a pool's contract (input order, bounded
concurrency, work stealing, the exception after every lane joined) and
the property a host thread pool lacks: which lane takes which item is
decided by the kernel's ``(vtime, seq)`` order, never by host timing.
"""

from __future__ import annotations

import pytest

from repro.vtime import current_task, fan_out, vsleep


def _steps(fn):
    """A steps function from a plain one (no op yielded)."""

    def steps(item):
        return fn(item)
        yield  # pragma: no cover - makes this a generator

    return steps


class TestFanOut:
    def test_results_in_input_order(self, kernel):
        def main():
            return fan_out(kernel, _steps(lambda x: x * 2), [3, 1, 2], width=2)

        assert kernel.run(main) == [6, 2, 4]

    def test_concurrency_bounded(self, kernel):
        def job(_):
            yield vsleep(10)

        def main():
            fan_out(kernel, job, list(range(8)), width=2)
            return kernel.now()

        # 8 jobs, 2 at a time, 10 s each = 40 s
        assert kernel.run(main) == 40.0

    def test_pool_larger_than_items(self, kernel):
        def job(x):
            yield vsleep(5)
            return x

        def main():
            results = fan_out(kernel, job, [1, 2], width=100)
            return results, kernel.now()

        assert kernel.run(main) == ([1, 2], 5.0)

    def test_empty_items(self, kernel):
        def main():
            return fan_out(kernel, _steps(lambda x: x), [], width=4)

        assert kernel.run(main) == []

    def test_exception_raised_after_every_lane_joined(self, kernel):
        done = []

        def job(x):
            if x == 2:
                raise RuntimeError("job 2")
            yield vsleep(10)
            done.append((x, kernel.now()))

        def main():
            try:
                fan_out(kernel, job, [1, 2, 3], width=2)
            except RuntimeError:
                return kernel.now()

        # lane A runs 1 (0-10 s) then 3 (10-20 s); lane B dies on 2 at 0 s;
        # the error surfaces once lane A is joined
        assert kernel.run(main) == 20.0
        assert done == [(1, 10.0), (3, 20.0)]

    def test_exception_propagates(self, kernel):
        def main():
            fan_out(kernel, _steps(lambda x: 1 // (x - 2)), [1, 2, 3], width=2)

        with pytest.raises(ZeroDivisionError):
            kernel.run(main)

    def test_work_stealing(self, kernel):
        """A slow item does not block the other lane from draining."""

        def job(x):
            yield vsleep(100 if x == 0 else 1)
            return x

        def main():
            fan_out(kernel, job, [0, 1, 2, 3, 4], width=2)
            return kernel.now()

        # lane A takes item 0 (100 s); lane B does 1..4 (4 s)
        assert kernel.run(main) == 100.0

    def test_lone_lane_runs_on_the_callers_thread(self, kernel):
        def job(x):
            yield vsleep(1)
            return current_task()

        def main():
            spawned = kernel.spawned_total
            tasks = fan_out(kernel, job, [0, 1], width=1)
            return tasks, current_task(), kernel.spawned_total - spawned

        tasks, caller, spawned = kernel.run(main)
        assert tasks == [caller, caller]
        assert spawned == 0


class TestHandOutOrder:
    def test_lanes_woken_together_take_items_in_vtime_seq_order(self, kernel):
        """Both lanes wake at t=10 and t=15; the lane whose timer was set
        first takes the next item, every time."""
        taken = []

        def job(x):
            taken.append((kernel.now(), x, current_task().task_id))
            yield vsleep(10 if x < 2 else 5)

        def main():
            fan_out(kernel, job, range(6), width=2)

        kernel.run(main)
        lane_a, lane_b = taken[0][2], taken[1][2]
        assert lane_a < lane_b  # spawned first
        assert taken == [
            (0.0, 0, lane_a), (0.0, 1, lane_b),
            (10.0, 2, lane_a), (10.0, 3, lane_b),
            (15.0, 4, lane_a), (15.0, 5, lane_b),
        ]

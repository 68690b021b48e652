"""A sleep's timer names its task: it wakes that task only for that sleep.

A sleeping task has no waiter; its heap entry is ``(when, seq, task)``
and stays live while the task's ``_timer_seq`` is that seq.  A task woken
some other way while the timer is pending — an exception thrown at its
wait point (``Kernel._throw_locked``, as shutdown does) — must not be
woken again by the old timer once it blocks on something else.
"""

from __future__ import annotations

import pytest

from repro.vtime import (
    Waiter,
    current_task,
    sleep,
    vsleep,
    vwait,
)


class Poke(Exception):
    """Thrown at a sleeping task's wait point by the test."""


class TestStaleSleepTimer:
    @pytest.mark.parametrize("kind", ["model", "thread"])
    def test_a_thrown_task_is_not_woken_by_its_old_timer(self, kernel, kind):
        """t=0 the task sleeps 10 s; t=1 an exception is thrown at its wait
        point, it catches it and waits on a waiter; t=21 the waiter is
        woken.  Its old timer (t=10) must not resume the wait."""
        parked: list[Waiter] = []
        outcome: list = []

        def model_sleeper():
            try:
                yield vsleep(10.0)
            except Poke:
                pass
            waiter = Waiter(current_task())
            parked.append(waiter)
            yield vwait(waiter)
            outcome.append((kernel.now(), waiter.done, waiter.payload))

        def thread_sleeper():
            try:
                sleep(10.0)
            except Poke:
                pass
            waiter = Waiter(current_task())
            parked.append(waiter)
            kernel.block_on(waiter)
            outcome.append((kernel.now(), waiter.done, waiter.payload))

        def main():
            if kind == "model":
                task = kernel.spawn_model(model_sleeper)
            else:
                task = kernel.spawn(thread_sleeper)
            sleep(1.0)
            with kernel._lock:
                kernel._throw_locked(task, Poke())
            sleep(20.0)
            kernel.wake(parked[0], "woken")
            task.join()

        kernel.run(main)
        assert outcome == [(21.0, True, "woken")]

    def test_sleeping_again_after_a_throw_wakes_once(self, kernel):
        """The thrown task sleeps again: only the new timer wakes it."""
        wakes: list[float] = []

        def sleeper():
            try:
                yield vsleep(10.0)
            except Poke:
                pass
            yield vsleep(12.0)  # due at t=13, after the old t=10 timer
            wakes.append(kernel.now())
            yield vsleep(100.0)
            wakes.append(kernel.now())

        def main():
            task = kernel.spawn_model(sleeper)
            sleep(1.0)
            with kernel._lock:
                kernel._throw_locked(task, Poke())
            task.join()

        kernel.run(main)
        assert wakes == [13.0, 113.0]

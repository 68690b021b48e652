"""Unit tests for the virtual-time kernel."""

from __future__ import annotations

import gc
import sys
import threading
import time

import pytest

from repro.vtime import (
    DeadlockError,
    Kernel,
    KernelShutdownError,
    ModelTask,
    NotInKernelError,
    VEvent,
    Waiter,
    current_kernel,
    current_task,
    gather,
    now,
    sleep,
    vsleep,
    vwait,
)


class TestBasics:
    def test_time_starts_at_zero(self, kernel):
        assert kernel.now() == 0.0

    def test_custom_start_time(self):
        assert Kernel(start_time=100.0).now() == 100.0

    def test_run_returns_result(self, kernel):
        assert kernel.run(lambda: 42) == 42

    def test_run_propagates_exception(self, kernel):
        def boom():
            raise ValueError("boom")

        with pytest.raises(ValueError, match="boom"):
            kernel.run(boom)

    def test_sleep_advances_virtual_time(self, kernel):
        def main():
            sleep(12.5)
            return kernel.now()

        assert kernel.run(main) == 12.5

    def test_sleep_zero_is_noop_in_time(self, kernel):
        def main():
            sleep(0)
            return kernel.now()

        assert kernel.run(main) == 0.0

    def test_negative_sleep_clamps_to_zero(self, kernel):
        def main():
            sleep(-5)
            return kernel.now()

        assert kernel.run(main) == 0.0

    def test_sequential_sleeps_accumulate(self, kernel):
        def main():
            for _ in range(10):
                sleep(1)
            return kernel.now()

        assert kernel.run(main) == 10.0

    def test_wall_clock_far_smaller_than_virtual(self, kernel):
        import time

        t0 = time.monotonic()

        def main():
            sleep(3600.0)

        kernel.run(main)
        assert time.monotonic() - t0 < 5.0
        assert kernel.now() == 3600.0


class TestSpawn:
    def test_spawn_runs_concurrently_in_virtual_time(self, kernel):
        def worker():
            sleep(10)
            return kernel.now()

        def main():
            tasks = [kernel.spawn(worker) for _ in range(5)]
            return gather(tasks)

        assert kernel.run(main) == [10.0] * 5
        assert kernel.now() == 10.0

    def test_spawn_results_in_order(self, kernel):
        def worker(i):
            sleep(10 - i)
            return i

        def main():
            return gather([kernel.spawn(worker, i) for i in range(5)])

        assert kernel.run(main) == [0, 1, 2, 3, 4]

    def test_spawn_exception_surfaces_via_gather(self, kernel):
        def bad():
            sleep(1)
            raise RuntimeError("task failed")

        def main():
            gather([kernel.spawn(bad)])

        with pytest.raises(RuntimeError, match="task failed"):
            kernel.run(main)

    def test_join_returns_true_when_finished(self, kernel):
        def worker():
            sleep(5)
            return "done"

        def main():
            task = kernel.spawn(worker)
            assert task.join() is True
            return task.result()

        assert kernel.run(main) == "done"

    def test_join_timeout_expires(self, kernel):
        def worker():
            sleep(100)

        def main():
            task = kernel.spawn(worker)
            finished = task.join(timeout=10)
            return finished, kernel.now()

        finished, t = kernel.run(main)
        assert finished is False
        assert t == 10.0

    def test_task_result_before_finish_raises(self, kernel):
        def worker():
            sleep(50)

        def main():
            task = kernel.spawn(worker)
            with pytest.raises(NotInKernelError):
                task.result()
            task.join()

        kernel.run(main)

    def test_spawned_total_counts(self, kernel):
        def main():
            gather([kernel.spawn(lambda: None) for _ in range(7)])

        kernel.run(main)
        assert kernel.spawned_total == 8  # 7 workers + main

    def test_nested_spawn(self, kernel):
        def leaf():
            sleep(3)
            return 1

        def mid():
            return sum(gather([kernel.spawn(leaf) for _ in range(2)]))

        def main():
            return sum(gather([kernel.spawn(mid) for _ in range(2)]))

        assert kernel.run(main) == 4
        assert kernel.now() == 3.0

    def test_many_tasks_scale(self, kernel):
        def worker():
            sleep(60)

        def main():
            gather([kernel.spawn(worker) for _ in range(500)])
            return kernel.now()

        assert kernel.run(main) == 60.0


class TestAmbient:
    def test_current_kernel_inside(self, kernel):
        def main():
            return current_kernel() is kernel

        assert kernel.run(main) is True

    def test_current_kernel_outside_is_none(self):
        assert current_kernel() is None
        assert current_task() is None

    def test_now_outside_kernel_is_wall_clock(self):
        import time

        assert abs(now() - time.monotonic()) < 1.0

    def test_sleep_primitive_requires_kernel(self, kernel):
        with pytest.raises(NotInKernelError):
            kernel.sleep(1)

    def test_task_names(self, kernel):
        def main():
            task = kernel.spawn(lambda: None, name="my-task")
            task.join()
            return task.name

        assert kernel.run(main) == "my-task"


class TestDeadlock:
    def test_wait_without_timer_deadlocks(self, kernel):
        def main():
            VEvent(kernel).wait()

        with pytest.raises(DeadlockError):
            kernel.run(main)

    def test_deadlock_message_names_tasks(self, kernel):
        def main():
            VEvent(kernel).wait()

        with pytest.raises(DeadlockError, match="main"):
            kernel.run(main)

    def test_two_tasks_waiting_on_each_other(self, kernel):
        ev1, ev2 = None, None

        def main():
            nonlocal ev1, ev2
            ev1, ev2 = VEvent(kernel), VEvent(kernel)

            def a():
                ev1.wait()
                ev2.set()

            task = kernel.spawn(a)
            ev2.wait()  # deadlock: nobody sets ev1
            task.join()

        with pytest.raises(DeadlockError):
            kernel.run(main)


class TestDeterminism:
    def test_same_seeded_run_is_reproducible(self):
        def experiment() -> float:
            kernel = Kernel()

            def worker(i):
                sleep(i * 0.7)
                sleep((i * 31 % 7) * 0.3)
                return kernel.now()

            def main():
                return tuple(gather([kernel.spawn(worker, i) for i in range(20)]))

            return kernel.run(main)

        assert experiment() == experiment()

    def test_timer_ordering_is_fifo_for_equal_times(self, kernel):
        order = []

        def worker(i):
            sleep(5)
            order.append(i)

        def main():
            gather([kernel.spawn(worker, i) for i in range(10)])

        kernel.run(main)
        assert order == list(range(10))

    def test_negative_join_timeout_keeps_time_seq_order(self, kernel):
        """A thread task's join(timeout=-1) times out at ``now``, after the
        timers already registered for ``now`` — never ahead of them."""
        order = []

        def target():
            sleep(10)

        def early():  # registers its t=1 timer at t=0.5, before main joins
            sleep(0.5)
            sleep(0.5)
            order.append(("early", kernel.now()))

        def main():
            task = kernel.spawn(target)
            kernel.spawn(early)
            sleep(1)  # registered at t=0: fires before early's t=1 timer
            order.append(("join", task.join(timeout=-1), kernel.now()))
            task.join()

        kernel.run(main)
        assert order == [("early", 1.0), ("join", False, 1.0)]


def _wait_until(predicate, what: str) -> None:
    deadline = time.monotonic() + 5.0
    while not predicate():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.001)


class TestOutcomeEvent:
    """A model task's outcome event is created only when an outside (non-
    kernel) thread waits on it; every other join goes through a waiter."""

    def test_outside_join_and_result_before_and_after_finish(self, kernel):
        gate = threading.Event()

        def body():
            yield vsleep(5)
            return "done"

        # a running thread task: the clock cannot pass t=0 until gate opens
        holder = kernel.spawn(gate.wait)
        task = kernel.spawn_model(body)
        _wait_until(lambda: task._state == ModelTask._BLOCKED, "the model step")
        with pytest.raises(NotInKernelError, match="has not finished"):
            task.result()
        assert task._outcome_ready is None

        joined = []
        joiner = threading.Thread(target=lambda: joined.append(task.join()))
        joiner.start()
        _wait_until(lambda: task._outcome_ready is not None, "the outside join")
        assert not task.finished
        gate.set()
        joiner.join(timeout=5.0)
        assert joined == [True]
        assert task.result() == "done"
        assert task.join() is True  # after the finish: no wait at all
        assert holder.join() is True
        kernel.shutdown()
        assert kernel.now() == 5.0

    def test_join_after_finish_creates_no_event(self, kernel):
        def body():
            yield vsleep(1)
            return 7

        def main():
            tasks = [kernel.spawn_model(body) for _ in range(3)]
            return tasks, gather(tasks)  # kernel-task joins: waiters only

        tasks, results = kernel.run(main)
        assert results == [7, 7, 7]
        assert [t.join() for t in tasks] == [True, True, True]
        assert [t.result() for t in tasks] == [7, 7, 7]
        assert all(t._outcome_ready is None for t in tasks)

    def test_shutdown_finishes_blocked_model_tasks(self):
        kernel = Kernel()
        gate = threading.Event()
        caught = []

        def body(i):
            try:
                yield vsleep(100)
            except KernelShutdownError:
                caught.append(i)
                raise

        holder = kernel.spawn(gate.wait)
        tasks = [kernel.spawn_model(body, i) for i in range(3)]
        _wait_until(
            lambda: all(t._state == ModelTask._BLOCKED for t in tasks),
            "the model tasks to block",
        )
        stopper = threading.Thread(target=kernel.shutdown)
        stopper.start()
        assert [t.join() for t in tasks] == [True, True, True]
        assert caught == [0, 1, 2]
        for task in tasks:
            with pytest.raises(KernelShutdownError):
                task.result()
        gate.set()  # shutdown waits for the running holder, then returns
        stopper.join(timeout=10.0)
        assert not stopper.is_alive()
        assert holder.result() is True
        assert kernel.thread_stats()["live_threads"] == 0


class TestOutsideJoinTimeout:
    """An outside (non-kernel) thread's ``join(timeout=)`` gives up after
    ``timeout`` real seconds instead of blocking until the task finishes."""

    @pytest.mark.parametrize("kind", ["thread", "model"])
    def test_outside_join_of_an_unfinished_task_times_out(self, kind):
        kernel = Kernel()
        gate = threading.Event()

        def body():
            yield vsleep(5)

        # a running thread task: the clock cannot pass t=0 until gate opens
        holder = kernel.spawn(gate.wait)
        if kind == "model":
            task = kernel.spawn_model(body)
        else:
            task = kernel.spawn(sleep, 5)
        joined = []
        joiner = threading.Thread(
            target=lambda: joined.append(task.join(timeout=0.05)), daemon=True
        )
        joiner.start()
        joiner.join(timeout=5.0)  # watchdog: the join must not block
        try:
            assert not joiner.is_alive(), "an outside join ignored its timeout"
            assert joined == [False]
            assert not task.finished
        finally:
            gate.set()
            assert holder.join(timeout=5.0) is True
            assert task.join(timeout=5.0) is True
            kernel.shutdown()
        assert kernel.now() == 5.0


class TestLoopWakeStress:
    """Thread tasks waking model tasks while the model loop parks and
    unparks: a lost loop wake-up leaves a ready task unstepped and the run
    hangs, so the run is bounded in real time."""

    PAIRS, ROUNDS = 8, 200  # more thread tasks than cores

    def test_ping_pong_between_thread_and_model_tasks(self):
        kernel = Kernel()
        pings = [[VEvent(kernel) for _ in range(self.ROUNDS)] for _ in range(self.PAIRS)]
        pongs = [[VEvent(kernel) for _ in range(self.ROUNDS)] for _ in range(self.PAIRS)]
        done = []

        def model_side(pair):
            for i in range(self.ROUNDS):
                yield from pings[pair][i].wait_steps()
                pongs[pair][i].set()
            done.append(pair)

        def thread_side(pair):
            for i in range(self.ROUNDS):
                pings[pair][i].set()
                pongs[pair][i].wait()

        def main():
            models = [kernel.spawn_model(model_side, p) for p in range(self.PAIRS)]
            gather([kernel.spawn(thread_side, p) for p in range(self.PAIRS)] + models)
            return kernel.now()

        result = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runner = threading.Thread(target=lambda: result.append(kernel.run(main)))
            runner.start()
            runner.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive(), "a model task was made ready but never stepped"
        assert result == [0.0]
        assert sorted(done) == list(range(self.PAIRS))


class TestModelTaskFootprint:
    """Design property, no timing: a blocked model task is its frame, its
    context and one waiter — no threading objects."""

    # 4 per task (the task, its generator, its context and the waiter)
    # plus one of slack for the first kernel run's one-off objects; with a
    # threading.Event per task: 12, with the current task set in each
    # task's context: 6, or 8 when that variable's hash shared a slot
    MAX_TRACKED_PER_TASK = 5

    @staticmethod
    def _tracked_objects_added(n: int) -> int:
        kernel = Kernel()
        waiters: list[Waiter] = []
        added = []

        def body():
            waiter = Waiter(current_task())
            waiters.append(waiter)
            yield vwait(waiter)

        def main():
            gc.collect()
            before = len(gc.get_objects())
            tasks = [kernel.spawn_model(body) for _ in range(n)]
            sleep(1.0)  # every model task has stepped once and is blocked
            gc.collect()
            added.append(len(gc.get_objects()) - before)
            del tasks
            for waiter in waiters:
                kernel.wake(waiter)

        kernel.run(main)
        return added[0]

    def test_a_blocked_model_task_adds_few_tracked_objects(self):
        small = self._tracked_objects_added(500)
        large = self._tracked_objects_added(1500)
        assert (large - small) / 1000 <= self.MAX_TRACKED_PER_TASK

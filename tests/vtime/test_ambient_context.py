"""Ambient state follows the task, not the OS thread.

Every kernel task owns one ``contextvars.Context`` copied from its spawner;
the environment stack (``repro.core.context``) and the trace ids
(``Tracer.bind``) live in it.  ``current_task()`` does not: the kernel
keeps it in a per-OS-thread slot that it sets before each step.  These
tests pin the semantics across steps, spawns, recycled pool workers and
shutdown, and the design property that makes a model-task step cheap:
stepping a task calls nothing outside the kernel.
"""

from __future__ import annotations

import collections
import gc
import os
import threading
import time

import pytest

from repro import vtime
from repro.core.context import current_context, pop_context, push_context
from repro.trace import Tracer
from repro.vtime import (
    Kernel,
    KernelShutdownError,
    current_task,
    gather,
    sleep,
    vsleep,
)

WAIT_S = 30.0  # real-time bound on every wait for another OS thread


def _environment() -> object:
    """The environment on top of the calling code's stack, or ``None``."""
    ctx = current_context()
    return None if ctx is None else ctx.environment


class TestEnvironmentStackAcrossSteps:
    def test_pushes_held_across_yields_stay_with_their_task(self, kernel):
        seen = collections.defaultdict(list)

        def holder(label, delay):
            seen[label].append(_environment())
            push_context(label, in_cloud=False)
            yield vsleep(delay)
            seen[label].append(_environment())
            push_context(label + "/inner", in_cloud=True)
            yield vsleep(delay)
            seen[label].append(_environment())
            pop_context()
            yield vsleep(delay)
            seen[label].append(_environment())
            pop_context()
            seen[label].append(_environment())

        def bystander():
            for _ in range(12):  # stepped between the holders' steps
                seen["bystander"].append(_environment())
                yield vsleep(0.5)

        def main():
            idle = kernel.spawn_model(bystander)
            push_context("client", in_cloud=False)
            tasks = [
                kernel.spawn_model(holder, "a", 1.0),
                kernel.spawn_model(holder, "b", 1.5),
            ]
            gather(tasks + [idle])
            top = _environment()
            pop_context()
            return top

        push_context("test-thread", in_cloud=False)
        try:
            assert kernel.run(main) == "client"
            assert _environment() == "test-thread"
        finally:
            pop_context()
        assert current_context() is None
        for label in ("a", "b"):
            assert seen[label] == [
                "client", label, label + "/inner", label, "client",
            ]
        # spawned before the client's push: it keeps the root's view
        assert seen["bystander"] == ["test-thread"] * 12

    def test_unbalanced_pop_reports_itself(self, kernel):
        def main():
            with pytest.raises(RuntimeError, match="no pushed context"):
                pop_context()

        kernel.run(main)


class TestSpawnSnapshot:
    @pytest.mark.parametrize("kind", ["thread", "model"])
    def test_child_sees_the_spawners_state_as_of_spawn(self, kernel, kind):
        tracer = Tracer(kernel, enabled=True)
        seen = {}

        def observe(tag):
            seen[tag] = _environment()
            tracer.point("client.invoke", "client", tag=tag)

        def thread_child():
            observe("child@0")
            sleep(2.0)  # the parent pushes and binds at t=1
            observe("child@2")
            push_context("child-env", in_cloud=True)
            with tracer.bind(child=1):
                sleep(2.0)  # the parent looks at t=3
                observe("child@4")
            pop_context()

        def model_child():
            observe("child@0")
            yield vsleep(2.0)
            observe("child@2")
            push_context("child-env", in_cloud=True)
            with tracer.bind(child=1):
                yield vsleep(2.0)
                observe("child@4")
            pop_context()

        def main():
            push_context("at-spawn", in_cloud=False)
            with tracer.bind(job="J1"):
                if kind == "thread":
                    child = kernel.spawn(thread_child)
                else:
                    child = kernel.spawn_model(model_child)
            sleep(1.0)
            push_context("parent-late", in_cloud=False)
            with tracer.bind(late=1):
                sleep(2.0)
                observe("parent@3")
                child.join()
            pop_context()
            observe("parent@end")
            pop_context()

        kernel.run(main)
        assert seen == {
            "child@0": "at-spawn",
            "child@2": "at-spawn",
            "child@4": "child-env",
            "parent@3": "parent-late",
            "parent@end": "at-spawn",
        }
        ids = {e.get_attr("tag"): e.id_dict() for e in tracer.events()}
        assert ids == {
            "child@0": {"job": "J1"},
            "child@2": {"job": "J1"},
            "child@4": {"job": "J1", "child": 1},
            "parent@3": {"late": 1},
            "parent@end": {},
        }


class TestThreadsAndTasks:
    def test_recycled_worker_starts_clean(self):
        """A task that exits without popping leaves nothing on its OS thread
        for the next task the pool runs there."""
        kernel = Kernel(pool_size=1)

        def leaky():
            before = (_environment(), current_task())
            push_context("leaked", in_cloud=False)  # never popped
            return before

        try:
            for _ in range(200):
                task = kernel.spawn(leaky)
                task.join()
                environment, me = task.result()
                assert environment is None
                assert me is task
                if kernel.thread_stats()["threads_recycled"] >= 3:
                    break
                time.sleep(0.005)  # let the finished worker park itself
            assert kernel.thread_stats()["threads_recycled"] >= 3
        finally:
            kernel.shutdown()
        assert current_context() is None

    def test_current_task_is_none_off_the_kernel(self, kernel):
        assert current_task() is None
        assert vtime.current_kernel() is None
        inside = {}

        def plain_thread():
            inside["plain"] = (current_task(), _environment())

        def main():
            push_context("client", in_cloud=False)
            inside["task"] = current_task()
            helper = threading.Thread(target=plain_thread)
            helper.start()
            helper.join(timeout=WAIT_S)
            assert not helper.is_alive()
            pop_context()

        root = kernel.spawn(main)
        root.join()
        root.result()
        kernel.shutdown()
        assert inside["task"] is root
        assert inside["plain"] == (None, None)
        assert current_task() is None

    def test_finished_tasks_drop_their_context(self, kernel):
        """A finished task lets go of its context, so the ambient state it
        ran with (environment stack, trace ids) does not live on for as
        long as somebody holds the task handle."""
        def model():
            yield vsleep(1.0)

        def main():
            tasks = [kernel.spawn(sleep, 1.0), kernel.spawn_model(model)]
            assert all(t._context is not None for t in tasks)
            gather(tasks)
            return tasks

        for task in kernel.run(main):
            assert task._context is None


class TestShutdown:
    def test_shutdown_throws_inside_the_tasks_own_context(self):
        kernel = Kernel()
        tracer = Tracer(kernel, enabled=True)
        holder_blocked, holder_killed = threading.Event(), threading.Event()
        killed_as = []

        def holder():
            with tracer.bind(call_id="00001"):
                try:
                    yield vsleep(10_000.0)
                except KernelShutdownError:
                    killed_as.append(current_task())
                    tracer.point("worker.killed", "worker")
                    holder_killed.set()
                    raise

        def main():
            task = kernel.spawn_model(holder, daemon=True)
            sleep(1.0)  # virtual time moved, so the holder is blocked
            holder_blocked.set()
            # stay RUNNING in real time: the clock must not reach the
            # holder's timer before shutdown() finds it blocked
            assert holder_killed.wait(timeout=WAIT_S)
            return task

        root = kernel.spawn(main)
        assert holder_blocked.wait(timeout=WAIT_S)
        with tracer.bind(phase="shutdown"):
            kernel.shutdown()
            tracer.point("client.after_shutdown", "client")
        task = root.result()
        assert task.finished
        assert isinstance(task._exception, KernelShutdownError)
        assert killed_as == [task]
        ids = {e.name: e.id_dict() for e in tracer.events()}
        assert ids == {
            "worker.killed": {"call_id": "00001"},
            "client.after_shutdown": {"phase": "shutdown"},
        }


class TestStepCost:
    """Design property, no timing: stepping a model task makes zero calls
    out of the kernel — no per-step capture/install/uninstall of ambient
    state, no process-global lock.  Steps run on whichever kernel thread
    holds the run (``vloop`` or a ``vpool-`` worker), so every kernel
    thread is counted from the moment the tasks are spawned."""

    TASKS, SLEEPS = 200, 10
    # hand-rolled propagators: 18.75; contextvars: 11.75; one-lock step: 6.65
    MAX_CALLS_PER_STEP = 7

    def test_a_step_calls_nothing_outside_the_kernel(self):
        calls: collections.Counter = collections.Counter()
        armed: list[bool] = []

        def profiler(frame, event, _arg):
            if (
                event == "call"
                and armed
                and threading.current_thread().name.startswith(("vloop", "vpool-"))
            ):
                code = frame.f_code
                calls[(code.co_filename, code.co_name)] += 1

        def body():
            for _ in range(self.SLEEPS):
                yield vsleep(1.0)

        # gc.callbacks (hypothesis installs one) run on whichever thread
        # happens to trigger a collection
        gc.disable()
        threading.setprofile(profiler)  # inherited by threads started later
        try:
            kernel = Kernel()

            def main():  # run() drains the non-daemon tasks it leaves behind
                for _ in range(self.TASKS):
                    kernel.spawn_model(body)
                armed.append(True)

            kernel.run(main)
        finally:
            threading.setprofile(None)
            gc.enable()

        total = sum(calls.values())
        by_file: collections.Counter = collections.Counter()
        for (filename, name), count in calls.items():
            by_file[(os.path.abspath(filename), name)] += count
        bodies = by_file.pop((os.path.abspath(__file__), "body"))
        assert bodies == self.TASKS * (self.SLEEPS + 1)
        vtime_dir = os.path.dirname(os.path.abspath(vtime.__file__)) + os.sep
        outside = sorted(
            key for key in by_file
            if not key[0].startswith(vtime_dir)
            and key[0] != os.path.abspath(threading.__file__)
        )
        assert outside == []
        steps = by_file[(vtime_dir + "kernel.py", "_step_model")]
        assert steps == bodies
        assert total / steps <= self.MAX_CALLS_PER_STEP

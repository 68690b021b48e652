"""Property-based tests of the virtual-time kernel's core invariants."""

from __future__ import annotations

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.vtime import Kernel, VSemaphore, gather, now, sleep, vjoin, vsleep

# schedules: each task gets a list of sleep durations
schedules = st.lists(
    st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False), max_size=5
    ),
    min_size=1,
    max_size=8,
)


class TestScheduleProperties:
    @settings(max_examples=40, deadline=None)
    @given(schedule=schedules)
    def test_final_time_is_longest_chain(self, schedule):
        """With all tasks spawned at t=0, the kernel ends at the max of the
        per-task sleep sums."""
        kernel = Kernel()

        def worker(durations):
            for duration in durations:
                sleep(duration)
            return now()

        def main():
            return gather([kernel.spawn(worker, d) for d in schedule])

        finish_times = kernel.run(main)
        for finish, durations in zip(finish_times, schedule):
            assert finish == sum(durations)
        expected = max(sum(d) for d in schedule)
        assert kernel.now() == expected

    @settings(max_examples=30, deadline=None)
    @given(schedule=schedules)
    def test_time_is_monotonic_per_task(self, schedule):
        kernel = Kernel()
        violations = []

        def worker(durations):
            last = now()
            for duration in durations:
                sleep(duration)
                current = now()
                if current < last:
                    violations.append((last, current))
                last = current

        def main():
            gather([kernel.spawn(worker, d) for d in schedule])

        kernel.run(main)
        assert violations == []

    @settings(max_examples=25, deadline=None)
    @given(
        n_tasks=st.integers(min_value=1, max_value=12),
        permits=st.integers(min_value=1, max_value=12),
        duration=st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
    )
    def test_semaphore_batching_law(self, n_tasks, permits, duration):
        """n tasks through a k-semaphore, each holding for d, finish at
        ceil(n/k) * d — the law the FaaS concurrency limit relies on."""
        kernel = Kernel()

        def main():
            sem = VSemaphore(kernel, permits)

            def job():
                with sem:
                    sleep(duration)

            gather([kernel.spawn(job) for _ in range(n_tasks)])
            return now()

        import pytest

        batches = -(-n_tasks // permits)
        assert kernel.run(main) == pytest.approx(batches * duration)

    @settings(max_examples=20, deadline=None)
    @given(
        seed_durations=st.lists(
            st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
            min_size=2,
            max_size=10,
        )
    )
    def test_reproducibility(self, seed_durations):
        """The same schedule yields byte-identical timing twice."""

        def experiment():
            kernel = Kernel()

            def worker(duration):
                sleep(duration)
                return now()

            def main():
                return tuple(
                    gather([kernel.spawn(worker, d) for d in seed_durations])
                )

            return kernel.run(main)

        assert experiment() == experiment()


# -------------------------------------------------------------------------
# Hybrid-scheduler properties: model tasks (generator coroutines on the
# kernel's event loop) interleaved with thread tasks.  Random programs of
# sleeps / spawns / joins across both task kinds must (a) fire timers in
# (time, seq) order, (b) never deadlock while runnable work exists, and
# (c) replay to identical event sequences for identical programs.
# -------------------------------------------------------------------------

# A random task tree: task 0 is the root; every task i > 0 names a parent
# p(i) < i that spawns it.  Each task is independently a model task or a
# thread task, sleeps a random amount before and after spawning each child,
# and either joins each child explicitly or leaves it to the kernel's
# non-daemon drain.
@st.composite
def task_trees(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    dur = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)
    tree = []
    for i in range(n):
        tree.append(
            {
                "parent": 0 if i == 0 else draw(st.integers(0, i - 1)),
                "model": draw(st.booleans()),
                "pre_sleep": draw(dur),
                "post_sleep": draw(dur),
                "join_children": draw(st.booleans()),
            }
        )
    return tree


def _interpret_tree(tree):
    """Run one task tree; returns ({task_index: [times...]}, final_now).

    Each task appends kernel.now() to its own log after every blocking op,
    so the logs are race-free regardless of which OS threads run what.
    """
    kernel = Kernel()
    children = {i: [j for j in range(len(tree)) if j > i and tree[j]["parent"] == i]
                for i in range(len(tree))}
    logs = {i: [] for i in range(len(tree))}

    def spawn(i):
        spec = tree[i]
        if spec["model"]:
            return kernel.spawn_model(model_body, i)
        return kernel.spawn(thread_body, i)

    def model_body(i):
        spec = tree[i]
        log = logs[i]
        log.append(now())
        yield vsleep(spec["pre_sleep"])
        log.append(now())
        handles = [spawn(j) for j in children[i]]
        if spec["join_children"]:
            for handle in handles:
                yield vjoin(handle)
                log.append(now())
        yield vsleep(spec["post_sleep"])
        log.append(now())

    def thread_body(i):
        spec = tree[i]
        log = logs[i]
        log.append(now())
        sleep(spec["pre_sleep"])
        log.append(now())
        handles = [spawn(j) for j in children[i]]
        if spec["join_children"]:
            for handle in handles:
                handle.join()
                log.append(now())
        sleep(spec["post_sleep"])
        log.append(now())

    def main():
        root = spawn(0)
        root.join()

    kernel.run(main)
    return logs, kernel.now()


class TestHybridScheduleProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        durations=st.lists(
            st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
            min_size=1,
            max_size=30,
        )
    )
    def test_model_timers_fire_in_time_seq_order(self, durations):
        """Model-task wakeups happen in (time, spawn-seq) order.

        All model tasks step on the kernel's single loop thread, so the
        append order below *is* the firing order — ties on time must break
        by registration sequence.
        """
        kernel = Kernel()
        fired = []

        def sleeper(idx, duration):
            yield vsleep(duration)
            fired.append((duration, idx))

        def main():
            tasks = [
                kernel.spawn_model(sleeper, i, d)
                for i, d in enumerate(durations)
            ]
            for task in tasks:
                task.join()

        kernel.run(main)
        assert fired == sorted(fired)

    @settings(max_examples=30, deadline=None)
    @given(tree=task_trees())
    def test_mixed_tree_completes_with_monotonic_time(self, tree):
        """Random model/thread trees finish (no deadlock) and every task
        observes monotonically non-decreasing virtual time."""
        logs, final = _interpret_tree(tree)
        for log in logs.values():
            assert log, "every spawned task ran to completion"
            assert log == sorted(log)
        # run() drains all non-daemon tasks: the clock ends at the last
        # event any task observed
        assert final == max(max(log) for log in logs.values())

    @settings(max_examples=15, deadline=None)
    @given(tree=task_trees())
    def test_mixed_tree_replays_identically(self, tree):
        """The same program produces the same event sequence every time,
        independent of OS-thread scheduling."""
        assert _interpret_tree(tree) == _interpret_tree(tree)

    @settings(max_examples=20, deadline=None)
    @given(
        n_model=st.integers(min_value=0, max_value=10),
        n_thread=st.integers(min_value=0, max_value=6),
        duration=st.floats(min_value=0.1, max_value=30.0, allow_nan=False),
    )
    def test_blocked_model_tasks_hold_no_threads(self, n_model, n_thread, duration):
        """While every task is blocked in vsleep, the OS-thread count is
        bounded by the thread tasks plus kernel overhead — model tasks
        contribute nothing.  This is the hybrid scheduler's core claim."""
        kernel = Kernel()
        observed = []

        def model_job():
            yield vsleep(duration)

        def thread_job():
            sleep(duration)

        def probe():
            # runs while all n_model + n_thread tasks are mid-sleep
            yield vsleep(duration / 2)
            observed.append(threading.active_count())

        def main():
            tasks = [kernel.spawn_model(model_job) for _ in range(n_model)]
            tasks += [kernel.spawn(thread_job) for _ in range(n_thread)]
            tasks.append(kernel.spawn_model(probe))
            for task in tasks:
                task.join()

        before = threading.active_count()
        kernel.run(main)
        # main's thread task + each thread_job holds a thread; the loop
        # thread and a little pool slack is all the kernel may add
        assert observed[0] <= before + n_thread + 4


#: non-negative finite virtual durations, down to subnormals
durations = st.floats(
    min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False
)


class TestTwoLegSleep:
    """``vsleep(first, then)`` books one timer where two back-to-back
    sleeps book two, and wakes at the very same float instant."""

    @pytest.mark.parametrize("kind", ["model", "thread"])
    @settings(max_examples=60, deadline=None)
    @given(start=durations, first=durations, then=durations)
    def test_one_timer_wakes_where_two_sleeps_wake(self, kind, start, first, then):
        kernel = Kernel()
        woke = {}

        def legs(one_timer):
            yield vsleep(start)
            if one_timer:
                yield vsleep(first, then)
            else:
                yield vsleep(first)
                yield vsleep(then)
            woke[one_timer] = now()

        def main():
            for one_timer in (True, False):
                if kind == "model":
                    kernel.spawn_model(legs, one_timer)
                else:
                    kernel.spawn(kernel.drive, legs(one_timer))

        kernel.run(main)
        assert woke[True].hex() == woke[False].hex()

"""Same-instant order guard: the kernel's ``(time, seq)`` + FIFO contract.

Everything below happens at one virtual instant (t = 1.0): model tasks'
``vsleep`` timers, a thread task's ``sleep``, a ``VEvent.set`` from inside
a model step and a ``vjoin`` on a task that finishes in that same instant.
Timers fire in ``(time, seq)`` order, one at a time, whenever no task is
running; tasks made ready inside a step are stepped first-in first-out.
The expected sequence is pinned, so any change to how the kernel books an
op, advances the clock or picks the next task shows up here as a diff.

Every registration whose ``seq`` decides an order is made while its task
is the only one running, so the pinned order does not depend on host
thread timing.
"""

from __future__ import annotations

import hashlib

from repro.vtime import Kernel, VEvent, vjoin, vsleep

# (virtual time, who) in the order the kernel ran them
EXPECTED_ORDER = [
    (1.0, "A slept"),
    (1.0, "B slept"),
    (1.0, "F finishes"),
    (1.0, "J joined True"),
    (1.0, "T slept"),
    (1.0, "C slept"),
    (1.0, "D sets"),
    (1.0, "D set"),
    (1.0, "A woke"),
    (1.0, "B woke"),
    (1.0, "T slept again"),
    (1.0, "D slept again"),
    (2.0, "main"),
]


def _same_instant_order() -> list[tuple[float, str]]:
    kernel = Kernel()
    event = VEvent(kernel)
    log: list[tuple[float, str]] = []

    def note(who: str) -> None:
        log.append((kernel.now(), who))

    def waiter(name):  # A, B: timer at t=1 registered at t=0, then the event
        yield vsleep(1.0)
        note(f"{name} slept")
        yield from event.wait_steps()
        note(f"{name} woke")

    def late_sleeper():  # C: its t=1 timer is registered at t=0.75
        yield vsleep(0.75)
        yield vsleep(0.25)
        note("C slept")

    def setter():  # D: registered at t=0.875; sets the event in its step
        yield vsleep(0.875)
        yield vsleep(0.125)
        note("D sets")
        event.set()
        note("D set")
        yield vsleep(0)
        note("D slept again")

    def finisher():  # F: finishes at t=1, inside a timer-fired step
        yield vsleep(1.0)
        note("F finishes")
        return "done"

    def joiner(target):  # J: woken by F's finish, not by a timer
        ok = yield vjoin(target)
        note(f"J joined {ok}")

    def thread_task():  # T: its t=1 timer is registered at t=0.5
        kernel.sleep(0.5)
        kernel.sleep(0.5)
        note("T slept")
        kernel.sleep(0)
        note("T slept again")

    def main():
        kernel.spawn_model(waiter, "A")
        kernel.spawn_model(waiter, "B")
        finished = kernel.spawn_model(finisher)
        kernel.spawn_model(joiner, finished)
        kernel.spawn_model(late_sleeper)
        kernel.spawn_model(setter)
        kernel.spawn(thread_task)
        kernel.sleep(2.0)
        note("main")

    kernel.run(main)
    return log


class TestSameInstantOrder:
    def test_mixed_ops_at_one_instant_run_in_pinned_order(self):
        assert _same_instant_order() == EXPECTED_ORDER

    def test_order_is_stable_across_runs(self):
        for _ in range(5):
            assert _same_instant_order() == EXPECTED_ORDER


class TestGoldenRepeatable:
    """ROADMAP 1(c): one golden workload, 20 runs in one process, one hash."""

    RUNS = 20

    def test_exchange_golden_hashes_identically_20_times(self):
        from tests.exchange.golden_workload import run_traced

        digests = {
            hashlib.sha256(run_traced().encode("utf-8")).hexdigest()
            for _ in range(self.RUNS)
        }
        assert len(digests) == 1

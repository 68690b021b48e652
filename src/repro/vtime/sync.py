"""Synchronization primitives that block in virtual time.

These mirror the ``threading`` module's condition/event/semaphore/queue
surface, but a blocked task parks inside the :class:`~repro.vtime.Kernel`
so virtual time keeps advancing.  Real ``threading`` locks are still used to
guard shared state — they are only ever held for short critical sections,
never across a virtual-time block.
"""

from __future__ import annotations

import collections
import threading
from typing import Any, Callable, Iterable, Optional

from repro.vtime.kernel import Kernel, Waiter, current_task, vjoin, vwait

__all__ = [
    "VCondition", "VEvent", "VSemaphore", "VQueue", "QueueEmpty", "gather",
    "fan_out", "fan_out_steps",
]


class QueueEmpty(Exception):
    """Raised by :meth:`VQueue.get` on timeout."""


class VCondition:
    """A condition variable whose ``wait`` blocks in virtual time.

    Follows the ``threading.Condition`` contract: the underlying lock must be
    held around ``wait``/``notify`` calls.  Use as a context manager.
    """

    def __init__(self, kernel: Kernel, lock: Optional[threading.Lock] = None) -> None:
        self._kernel = kernel
        self._lock = lock if lock is not None else threading.Lock()
        self._waiters: list[Waiter] = []

    # -- lock protocol -------------------------------------------------
    def acquire(self) -> bool:
        return self._lock.acquire()

    def release(self) -> None:
        self._lock.release()

    def __enter__(self) -> "VCondition":
        self.acquire()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()

    # -- condition protocol --------------------------------------------
    def wait(self, timeout: Optional[float] = None) -> bool:
        """Release the lock, block until notified or timed out, re-acquire.

        Returns ``False`` on timeout, like ``threading.Condition.wait``.
        """
        kernel = self._kernel
        task = kernel._require_current_task()
        waiter = Waiter(task)
        with kernel._lock:
            self._waiters.append(waiter)
            waiter.on_consume = self._unlink
        self._lock.release()
        try:
            kernel.block_on(waiter, timeout)
        finally:
            self._lock.acquire()
        return not waiter.timed_out

    def wait_for(self, predicate, timeout: Optional[float] = None) -> bool:
        """Wait until ``predicate()`` is true; returns its final value."""
        if timeout is None:
            while not predicate():
                self.wait()
            return True
        kernel = self._kernel
        deadline = kernel.now() + timeout
        result = predicate()
        while not result:
            remaining = deadline - kernel.now()
            if remaining <= 0:
                return bool(predicate())
            self.wait(remaining)
            result = predicate()
        return bool(result)

    def acquire_when_steps(self, predicate, timeout: Optional[float] = None):
        """Acquire the lock once ``predicate()`` holds or ``timeout`` passed,
        from a model task; returns its final value, the lock still held."""
        deadline = None if timeout is None else self._kernel.now() + timeout
        while True:
            self.acquire()
            result = predicate()
            remaining = None if deadline is None else deadline - self._kernel.now()
            if result or (remaining is not None and remaining <= 0):
                return bool(result)
            waiter = Waiter(current_task())
            self.register_waiter(waiter)
            self.release()
            yield vwait(waiter, remaining)

    def register_waiter(self, waiter: Waiter) -> None:
        """Register an externally created waiter for ``notify`` delivery.

        This is the model-task half of :meth:`wait`: a model task cannot
        block here (that would wedge the thread stepping it), so it
        registers a waiter — *without* holding the condition's user lock
        across the block — and then yields ``vwait(waiter, timeout)``.
        Spurious wakeups are possible (the predicate must be re-checked),
        exactly like a timed :meth:`wait`.
        """
        with self._kernel._lock:
            self._waiters.append(waiter)
            waiter.on_consume = self._unlink

    def notify(self, n: int = 1) -> None:
        kernel = self._kernel
        with kernel._lock:
            woken = 0
            # _consume_waiter unlinks via on_consume, so iterate a snapshot.
            for waiter in list(self._waiters):
                if woken >= n:
                    break
                if kernel._consume_waiter(waiter):
                    woken += 1

    def notify_all(self) -> None:
        self.notify(n=len(self._waiters) + 1_000_000)

    def _unlink(self, waiter: Waiter) -> None:
        # Called under the kernel lock when a waiter is consumed (either by
        # notify or by its timeout timer firing).
        try:
            self._waiters.remove(waiter)
        except ValueError:  # pragma: no cover - already unlinked
            pass


class VEvent:
    """A one-way flag; ``wait`` blocks in virtual time until ``set``."""

    def __init__(self, kernel: Kernel) -> None:
        self._cond = VCondition(kernel)
        self._flag = False

    def is_set(self) -> bool:
        with self._cond:
            return self._flag

    def set(self) -> None:
        with self._cond:
            self._flag = True
            self._cond.notify_all()

    def clear(self) -> None:
        with self._cond:
            self._flag = False

    def wait(self, timeout: Optional[float] = None) -> bool:
        with self._cond:
            return self._cond.wait_for(lambda: self._flag, timeout)

    def wait_steps(self, timeout: Optional[float] = None):
        """Wait for the flag from a model task (``yield from``)."""
        flag = yield from self._cond.acquire_when_steps(lambda: self._flag, timeout)
        self._cond.release()
        return flag


class VSemaphore:
    """A counting semaphore blocking in virtual time."""

    def __init__(self, kernel: Kernel, value: int = 1) -> None:
        if value < 0:
            raise ValueError("semaphore initial value must be >= 0")
        self._cond = VCondition(kernel)
        self._value = value

    @property
    def value(self) -> int:
        with self._cond:
            return self._value

    def acquire(self, timeout: Optional[float] = None) -> bool:
        with self._cond:
            ok = self._cond.wait_for(lambda: self._value > 0, timeout)
            if not ok:
                return False
            self._value -= 1
            return True

    def release(self, n: int = 1) -> None:
        with self._cond:
            self._value += n
            self._cond.notify(n)

    def __enter__(self) -> "VSemaphore":
        self.acquire()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()


class VQueue:
    """An unbounded-or-bounded FIFO queue blocking in virtual time."""

    def __init__(self, kernel: Kernel, maxsize: int = 0) -> None:
        self._cond = VCondition(kernel)
        self._items: collections.deque[Any] = collections.deque()
        self._maxsize = maxsize

    def __len__(self) -> int:
        with self._cond:
            return len(self._items)

    def put(self, item: Any, timeout: Optional[float] = None) -> bool:
        with self._cond:
            if self._maxsize > 0:
                ok = self._cond.wait_for(
                    lambda: len(self._items) < self._maxsize, timeout
                )
                if not ok:
                    return False
            self._items.append(item)
            self._cond.notify_all()
            return True

    def get(self, timeout: Optional[float] = None) -> Any:
        return self._cond._kernel.drive(self.get_steps(timeout))

    def get_steps(self, timeout: Optional[float] = None):
        """Take the next item, waiting up to ``timeout``; raises
        :class:`QueueEmpty` then (``yield from`` it in a model task)."""
        ready = yield from self._cond.acquire_when_steps(lambda: self._items, timeout)
        item = self._items.popleft() if ready else None
        self._cond.release()
        if not ready:
            raise QueueEmpty("VQueue.get timed out")
        self._cond.notify_all()
        return item


def gather(tasks: Iterable[Any]) -> list[Any]:
    """Join every task and return their results in order.

    Accepts thread tasks and model tasks (anything with ``join()`` and the
    kernel outcome attributes).  Raises the first task exception encountered
    (after joining all, so no task is left running unobserved).  Not callable
    from inside a model task — yield ``vjoin`` per task instead, as
    :func:`fan_out_steps` does.
    """
    tasks = list(tasks)
    for task in tasks:
        task.join()
    for task in tasks:
        if task._exception is not None:
            raise task._exception
    return [task._result for task in tasks]


def fan_out_steps(
    kernel: Kernel,
    steps_fn: Callable[[Any], Any],
    items: Iterable[Any],
    width: int,
    name: str = "fan-out",
):
    """``yield from steps_fn(item)`` for every item; results in input order.

    At most ``width`` model-task lanes pull ``(index, item)`` from one
    shared iterator (work stealing, like a client thread pool draining its
    queue), stepped in ``(vtime, seq)`` order: which lane takes which item
    never depends on host thread timing.  A lone lane runs on the calling
    task itself.  The first lane exception is raised once every lane has
    been joined.  A steps generator: a model task ``yield from``s it, a
    thread task calls :func:`fan_out`.
    """
    items = list(items)
    results: list[Any] = [None] * len(items)
    todo = enumerate(items)

    def lane():
        for index, item in todo:
            results[index] = yield from steps_fn(item)

    width = min(width, len(items))
    if width <= 1:
        yield from lane()
        return results
    lanes = [kernel.spawn_model(lane, name=name) for _ in range(width)]
    for task in lanes:
        yield vjoin(task)
    for task in lanes:
        if task._exception is not None:
            raise task._exception
    return results


def fan_out(
    kernel: Kernel,
    steps_fn: Callable[[Any], Any],
    items: Iterable[Any],
    width: int,
    name: str = "fan-out",
) -> list[Any]:
    """:func:`fan_out_steps` from a thread task (or an outside thread)."""
    return kernel.drive(fan_out_steps(kernel, steps_fn, items, width, name))

"""A virtual-time kernel: model tasks plus pooled threads, one at a time.

Every simulated activity (a client, an invoker node, a running cloud
function) is registered with the :class:`Kernel`.  Time is virtual: a task
that sleeps does not consume wall-clock time.  When **every** registered
task is blocked, the kernel advances the virtual clock to the earliest
pending timer and wakes exactly one task.  This gives three properties the
paper's experiments need:

* user code stays *plain blocking Python* — a function running inside an
  emulated container can create a nested executor and block on its results,
  exactly like IBM-PyWren functions do in the real cloud;
* experiments that span 88 seconds or 86 minutes of modelled time complete in
  milliseconds of CPU time;
* timer firings are serialized in ``(time, seq)`` order, so runs are
  reproducible.

Tasks come in two kinds, sharing one ``(time, seq)`` timer wheel, one
blocked/running accounting and one FIFO ready queue:

* **Thread tasks** (:class:`Task`, via :meth:`Kernel.spawn`) execute on real
  OS threads drawn from a recycling pool, so arbitrary third-party blocking
  code can participate.  A finished task's thread parks and is reused by the
  next spawn instead of being torn down.
* **Model tasks** (:class:`ModelTask`, via :meth:`Kernel.spawn_model`) are
  generator-based coroutines.  They carry *no* OS thread while blocked, which
  is what lets a single process model tens of thousands of concurrent
  activities (timers, net transfers, cold-start delays, invoker
  bookkeeping).  A model task yields kernel *ops* — :func:`vsleep`,
  :func:`vwait`, :func:`vjoin` — instead of calling the blocking primitives.

**One holder.**  During a simulation exactly one kernel thread runs task
code: the *holder*.  A thread task that blocks (``sleep``, ``block_on``, a
join) books its waiter, advances the clock if it was the last runner, and
then serves the ready queue on its own stack: it steps model tasks inline,
returns to its caller when it pops itself, and when it pops another thread
task it releases that task's park lock and parks on its own.  A finishing
pool worker serves the same way and runs the next not-yet-started thread
task itself.  So same-instant work runs in one ``(time, seq)`` + FIFO order,
never in a host-timing race.  The ``vloop`` thread only serves work queued
from outside the simulation — :meth:`Kernel.run`'s root spawn,
:meth:`Kernel.shutdown`, or a test thread spawning or waking tasks — and
may then run beside a busy holder.  Hence the rule: a thread task must not
wait on a real-time primitive (a ``threading`` lock, event or queue) for
another kernel task; while it waits it holds the holder role, and the task
it waits for cannot run.

The same "steps" generator can serve both worlds: a thread task runs it to
completion with :meth:`Kernel.drive` (blocking at each op), while a model
task delegates with ``yield from``.

Ambient state (trace ids, the active cloud environment) lives in one
context variable, :data:`AMBIENT`.  Every task owns one
:class:`contextvars.Context`, copied from its spawner at spawn — a child
sees the spawner's state as it was then, and later changes on either side
stay invisible to the other.  A thread task's function runs inside
``context.run``; every resume and throw of a model task's generator is
one ``context.run`` too, so a binding held across a yield follows its
task and is never seen by the next task stepped on the same thread or by
a recycled pool worker.  The current task itself is not in the context:
the kernel records, per OS thread, which task's code that thread runs, so
a task's context is a plain copy that shares its spawner's storage.
"""

from __future__ import annotations

import _thread
import collections
import contextvars
import heapq
import itertools
import threading
import weakref
from typing import Any, Callable, Generator, Optional

from repro.vtime.errors import (
    DeadlockError,
    KernelShutdownError,
    NotInKernelError,
)

__all__ = [
    "Kernel",
    "Task",
    "ModelTask",
    "Waiter",
    "SleepOp",
    "WaitOp",
    "JoinOp",
    "vsleep",
    "vwait",
    "vjoin",
    "current_kernel",
    "current_task",
    "live_kernels",
]


class _ThisThread(threading.local):
    """The kernel task whose code the calling OS thread runs, if any, so
    ambient helpers like ``repro.sleep`` can find their kernel.

    The kernel sets it before a thread task's function starts, before each
    model-task step, and when a blocked thread task returns from serving
    the ready queue.  Between steps a serving thread's slot may still name
    the last task it stepped; the kernel code running there reads nothing
    of it.  Outside threads never set it and read ``None``.
    """

    task: Optional[Any] = None


_THIS_THREAD = _ThisThread()

# Every kernel constructed in this process (weakly referenced): the test
# suite's thread-hygiene fixture uses this to shut down kernels a test
# created but never ran to completion.
_LIVE_KERNELS: "weakref.WeakSet[Kernel]" = weakref.WeakSet()


#: The task-local ambient state of the layers above, as one tuple:
#: ``(trace ids or None, *environment bindings)`` — ``repro.trace.tracer``
#: owns slot 0, ``repro.core.context`` the rest.  One variable, so a
#: function activation that binds its trace ids and pushes its environment
#: rewrites one key of its context whether it is traced or not.
AMBIENT: contextvars.ContextVar[tuple] = contextvars.ContextVar(
    "repro.ambient", default=(None,)
)


def current_task() -> Optional[Any]:
    """Return the kernel task the calling code runs as, or ``None``."""
    return _THIS_THREAD.task


def current_kernel() -> Optional["Kernel"]:
    """Return the kernel owning the calling thread, or ``None``."""
    task = current_task()
    return task.kernel if task is not None else None


def live_kernels() -> list["Kernel"]:
    """Every kernel object still alive in this process (weakly tracked)."""
    return list(_LIVE_KERNELS)


# ---------------------------------------------------------------------------
# Kernel ops: what a model task (or a steps generator) yields to block.
# ---------------------------------------------------------------------------
class SleepOp:
    """Block for ``duration`` and then ``then`` more virtual seconds.

    The two legs are booked as one timer at ``now + duration + then``
    (each clamped at zero), the instant two back-to-back sleeps would wake
    at, bit for bit, at the cost of one step instead of two.  Only the
    order among timers due at that same instant can differ: the timer
    takes its place in that order when the op is booked, where a second
    sleep would take it when the first leg ends.
    """

    __slots__ = ("duration", "then")

    def __init__(self, duration: float, then: float = 0.0) -> None:
        self.duration = float(duration)
        self.then = float(then)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SleepOp({self.duration!r}, then={self.then!r})"


class WaitOp:
    """Block until ``waiter`` is consumed (or ``timeout`` virtual seconds).

    The waiter must belong to the yielding task and already be reachable
    from whatever will wake it.  After resumption, inspect
    ``waiter.timed_out`` / ``waiter.payload``.
    """

    __slots__ = ("waiter", "timeout")

    def __init__(self, waiter: "Waiter", timeout: Optional[float] = None) -> None:
        self.waiter = waiter
        self.timeout = timeout

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WaitOp({self.waiter!r}, timeout={self.timeout!r})"


class JoinOp:
    """Block until ``task`` (thread or model) finishes.

    Resumes with ``True`` if the task finished, ``False`` on timeout —
    the same contract as :meth:`Task.join`.
    """

    __slots__ = ("task", "timeout")

    def __init__(self, task: Any, timeout: Optional[float] = None) -> None:
        self.task = task
        self.timeout = timeout

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"JoinOp({self.task!r}, timeout={self.timeout!r})"


def vsleep(duration: float, then: float = 0.0) -> SleepOp:
    """Op: sleep ``duration`` virtual seconds (``yield vsleep(5)``), then
    ``then`` more on the same timer (``yield vsleep(rtt, transfer)``)."""
    return SleepOp(duration, then)


def vwait(waiter: "Waiter", timeout: Optional[float] = None) -> WaitOp:
    """Op: wait for ``waiter`` to be consumed (``yield vwait(w, 1.0)``)."""
    return WaitOp(waiter, timeout)


def vjoin(task: Any, timeout: Optional[float] = None) -> JoinOp:
    """Op: join a task (``ok = yield vjoin(child)``)."""
    return JoinOp(task, timeout)


class Task:
    """A pooled-thread task registered with a :class:`Kernel`.

    The public surface is intentionally small: ``name``, ``result()`` and
    ``join()``.  State transitions are owned by the kernel.
    """

    _RUNNING = "running"
    _BLOCKED = "blocked"
    _FINISHED = "finished"

    def __init__(self, kernel: "Kernel", name: str, task_id: int) -> None:
        self.kernel = kernel
        self.name = name
        self.task_id = task_id
        self.daemon = False
        self._state = Task._RUNNING
        # the spawner's ambient state, snapshotted now; dropped at finish
        self._context: Optional[contextvars.Context] = contextvars.copy_context()
        # (fn, args, kwargs) until a pool thread starts the task
        self._job: Optional[tuple] = None
        # held while the task is parked; whoever resumes it releases it
        self._park = _thread.allocate_lock()
        self._park.acquire()
        self._wake_exc: Optional[BaseException] = None
        # created only for an outside thread's join(); see Kernel._await_finish
        self._outcome_ready: Optional[threading.Event] = None
        self._join_waiters: Optional[list[Waiter]] = None  # kernel tasks' join()s
        self._result: Any = None
        self._exception: Optional[BaseException] = None
        # the seq of its pending sleep timer (None when it is not sleeping)
        self._timer_seq: Optional[int] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Task {self.task_id} {self.name!r} {self._state}>"

    @property
    def finished(self) -> bool:
        return self._state == Task._FINISHED

    def result(self) -> Any:
        """Return the task function's return value (task must be finished)."""
        if self._state != Task._FINISHED:
            raise VTimeUsageError(
                f"task {self.name!r} has not finished; join() it first"
            )
        if self._exception is not None:
            raise self._exception
        return self._result

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for this task to finish.

        When called from another kernel task, the wait blocks in *virtual*
        time.  When called from an outside (unregistered) thread — typically
        the pytest main thread driving :meth:`Kernel.run` — it blocks in real
        time, which is correct because outside threads are not part of the
        simulation.  Returns ``True`` if the task finished.
        """
        return self.kernel._join_any(self, timeout)


class ModelTask:
    """A generator-based coroutine stepped by whichever kernel thread holds the run.

    Shares the observable surface of :class:`Task` (``name``, ``finished``,
    ``result()``, ``join()``) but holds no OS thread: while blocked it is
    just a heap entry + a suspended generator frame.  It advances by
    yielding ops (:func:`vsleep` / :func:`vwait` / :func:`vjoin`); calling
    the blocking kernel primitives from inside one raises
    :class:`VTimeUsageError`.
    """

    # state constants shared with Task so kernel bookkeeping treats both
    # kinds uniformly
    _RUNNING = Task._RUNNING
    _BLOCKED = Task._BLOCKED
    _FINISHED = Task._FINISHED

    # one per in-flight activation: no per-instance dict
    __slots__ = (
        "kernel", "name", "task_id", "daemon", "_state", "_gen",
        "_pending_exc", "_resume_value_fn", "_context", "_outcome_ready",
        "_join_waiters", "_result", "_exception", "_timer_seq",
    )

    def __init__(self, kernel: "Kernel", name: str, task_id: int) -> None:
        self.kernel = kernel
        self.name = name
        self.task_id = task_id
        self.daemon = False
        self._state = ModelTask._RUNNING
        self._gen: Optional[Generator[Any, Any, Any]] = None
        self._pending_exc: Optional[BaseException] = None
        self._resume_value_fn: Optional[Callable[[], Any]] = None
        # as Task._context: snapshot at spawn, dropped at finish
        self._context: Optional[contextvars.Context] = contextvars.copy_context()
        self._outcome_ready: Optional[threading.Event] = None  # as Task
        self._join_waiters: Optional[list[Waiter]] = None
        self._result: Any = None
        self._exception: Optional[BaseException] = None
        self._timer_seq: Optional[int] = None  # as Task

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ModelTask {self.task_id} {self.name!r} {self._state}>"

    @property
    def finished(self) -> bool:
        return self._state == ModelTask._FINISHED

    def result(self) -> Any:
        """Return the task generator's return value (task must be finished)."""
        if self._state != ModelTask._FINISHED:
            raise VTimeUsageError(
                f"model task {self.name!r} has not finished; join() it first"
            )
        if self._exception is not None:
            raise self._exception
        return self._result

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for this model task to finish (see :meth:`Task.join`).

        From inside another *model* task, use ``yield vjoin(task)`` instead.
        """
        return self.kernel._join_any(self, timeout)


class VTimeUsageError(NotInKernelError):
    """Misuse of the kernel API (kept as a NotInKernelError subclass)."""


class Waiter:
    """One pending reason a task is blocked in a wait or a join (timer
    and/or condition slot).  A sleep needs none: its timer names the task.

    A waiter is *consumed* exactly once: either its timer fires, or the thing
    it waits on notifies it, whichever happens first.  ``payload`` carries an
    arbitrary wake reason to the woken task (used by queues/conditions).
    ``task`` may be a thread task or a model task.
    """

    __slots__ = ("task", "done", "timed_out", "payload", "on_consume")

    def __init__(self, task: Any) -> None:
        self.task = task
        self.done = False
        self.timed_out = False
        self.payload: Any = None
        # Optional callback run (under the kernel lock) when the waiter is
        # consumed; conditions use it to unlink themselves from wait queues.
        self.on_consume: Optional[Callable[["Waiter"], None]] = None


class _PoolWorker:
    """One recycled OS thread of the kernel's spawn pool."""

    __slots__ = ("thread", "park", "job")

    def __init__(self, job: Optional[Task]) -> None:
        self.thread: Optional[threading.Thread] = None
        # held while the worker idles; released to hand it a job
        self.park = _thread.allocate_lock()
        self.park.acquire()
        # the not-yet-started task to run; None = stop signal
        self.job = job


class Kernel:
    """The virtual-time scheduler.  See module docstring.

    ``pool_size`` bounds how many *idle* worker threads are retained for
    reuse; it is not a concurrency cap — when more thread tasks are
    simultaneously alive than the pool holds, extra threads are created and
    retired once the pool is full again.  (A hard cap would deadlock nested
    executors, which block a thread task on children that need threads.)
    """

    def __init__(self, start_time: float = 0.0, pool_size: int = 32) -> None:
        if pool_size < 0:
            raise ValueError("pool_size must be >= 0")
        self._lock = threading.Lock()
        self._now = float(start_time)
        self._seq = itertools.count()
        self._task_ids = itertools.count(1)
        self._tasks: dict[int, Any] = {}
        self._running = 0  # tasks currently in RUNNING state
        self._nondaemon_alive = 0
        # (when, seq, waiter) for waits and joins with a timeout, and
        # (when, seq, task) for a sleep: the task is its own timer, live
        # while its ``_timer_seq`` is that seq
        self._timers: list[tuple[float, int, Any]] = []
        # RUNNING tasks of both kinds waiting for the holder, FIFO
        self._ready: collections.deque[Any] = collections.deque()
        self._handoffs = 0  # times the holder role passed between OS threads
        self._dead = False
        self._shutdown_complete = False
        self._spawned_total = 0
        self._nondaemon_done = threading.Event()
        self._nondaemon_done.set()
        # --- recycling thread pool ---
        self._pool_size = int(pool_size)
        self._pool_idle: list[_PoolWorker] = []
        self._pool_workers: set[_PoolWorker] = set()
        self._worker_ids = itertools.count(1)
        self._threads_created = 0
        self._threads_recycled = 0
        self._live_worker_threads = 0
        self._peak_threads = 0
        # --- the loop thread: serves what outside threads queue ---
        self._loop_wake = threading.Event()
        self._loop_thread: Optional[threading.Thread] = None
        self._loop_due = 0  # outside queueings the loop has yet to serve
        self._loop_stop = False
        _LIVE_KERNELS.add(self)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Current virtual time in seconds.  One attribute load, atomic
        under the interpreter lock: readers (every trace span endpoint)
        never contend with the scheduler for ``_lock``."""
        return self._now

    @property
    def spawned_total(self) -> int:
        """Total number of tasks ever spawned on this kernel."""
        with self._lock:
            return self._spawned_total

    @property
    def pool_size(self) -> int:
        return self._pool_size

    def thread_stats(self) -> dict[str, int]:
        """Worker/loop thread accounting (for scale benches and tests).

        ``handoffs`` counts how often the holder role passed from one OS
        thread to another: deterministic under a seed, unlike the thread
        counts, which follow host timing."""
        with self._lock:
            loop_alive = (
                1
                if self._loop_thread is not None and self._loop_thread.is_alive()
                else 0
            )
            return {
                "pool_size": self._pool_size,
                "threads_created": self._threads_created,
                "threads_recycled": self._threads_recycled,
                "live_threads": self._live_worker_threads + loop_alive,
                "peak_threads": self._peak_threads,
                "handoffs": self._handoffs,
            }

    # ------------------------------------------------------------------
    # Task lifecycle: thread tasks
    # ------------------------------------------------------------------
    def spawn(
        self,
        fn: Callable[..., Any],
        *args: Any,
        name: Optional[str] = None,
        daemon: bool = False,
        **kwargs: Any,
    ) -> Task:
        """Start ``fn(*args, **kwargs)`` as a new thread task.

        ``daemon`` tasks do not keep :meth:`run` alive; they are killed with
        :class:`KernelShutdownError` at shutdown.  The task counts as RUNNING
        from birth, so virtual time cannot slip past the spawn point.  It
        joins the ready queue and starts when the holder reaches it, on a
        thread from the kernel's recycling pool when one is idle.
        """
        outside = self._outside()
        with self._lock:
            task = self._register_locked(Task, name or fn.__name__, daemon)
            task._job = (fn, args, kwargs)
            self._ready.append(task)
            if outside:
                self._kick_loop_locked()
        return task

    def _outside(self) -> bool:
        """Whether the caller is no task of this kernel: then no holder is
        bound to reach what it queues, and the loop thread must."""
        task = _THIS_THREAD.task
        return task is None or task.kernel is not self

    def _kick_loop_locked(self) -> None:
        self._loop_due += 1
        self._loop_wake.set()
        if self._loop_thread is None and not self._loop_stop:
            self._loop_thread = threading.Thread(
                target=self._loop_main, name="vloop", daemon=True
            )
            self._note_peak_locked()
            self._loop_thread.start()

    def _loop_main(self) -> None:
        """Serve one ready-queue pop per outside queueing: model tasks step
        here until a thread task comes up, which gets the holder role."""
        while True:
            self._loop_wake.wait()
            with self._lock:
                self._loop_wake.clear()
                due, self._loop_due = self._loop_due, 0
                stop = self._loop_stop
            for _ in range(due):
                with self._lock:
                    task = self._ready.popleft() if self._ready else None
                while task.__class__ is ModelTask:
                    task = self._step_model(task)
                if task is not None:
                    self._hand_off(task)
            if stop:
                return

    def _hand_off(self, task: Task) -> None:
        """Pass the holder role to thread task ``task``: release its park
        lock, or start it on an idle pool worker (a new thread if none)."""
        self._handoffs += 1
        if task._job is None:
            task._park.release()
            return
        with self._lock:
            worker = self._pool_idle.pop() if self._pool_idle else None
            if worker is not None:
                self._threads_recycled += 1
        if worker is None:
            self._start_worker(task)
        else:
            worker.job = task
            worker.park.release()

    def _register_locked(self, cls: type, name: str, daemon: bool) -> Any:
        """A new task of either kind, RUNNING from birth."""
        if self._dead:
            raise KernelShutdownError("kernel has been shut down")
        task = cls(self, name, next(self._task_ids))
        task.daemon = daemon
        self._tasks[task.task_id] = task
        self._running += 1
        self._spawned_total += 1
        if not daemon:
            if self._nondaemon_alive == 0:
                self._nondaemon_done.clear()
            self._nondaemon_alive += 1
        return task

    def _start_worker(self, task: Task) -> None:
        worker = _PoolWorker(task)
        thread = threading.Thread(
            target=self._worker_main,
            args=(worker,),
            name=f"vpool-{next(self._worker_ids)}",
            daemon=True,
        )
        worker.thread = thread
        with self._lock:
            self._pool_workers.add(worker)
            self._threads_created += 1
            self._live_worker_threads += 1
            self._note_peak_locked()
        thread.start()

    def _note_peak_locked(self) -> None:
        loop_alive = 1 if self._loop_thread is not None else 0
        self._peak_threads = max(
            self._peak_threads, self._live_worker_threads + loop_alive
        )

    def _worker_main(self, worker: _PoolWorker) -> None:
        """Run thread tasks on one pooled OS thread.

        After each task finishes, the worker serves the ready queue like a
        blocked thread task: it steps model tasks inline and runs the next
        not-yet-started thread task itself.  Before it resumes a parked
        thread task it idles (or retires), so that task finds it in the pool.
        """
        task, worker.job = worker.job, None
        while task is not None:
            fn, args, kwargs = task._job
            task._job = None
            _THIS_THREAD.task = task
            try:
                task._result = task._context.run(fn, *args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - recorded, re-raised at join
                task._exception = exc
            task._context = None
            with self._lock:
                self._finish_locked(task)
                if self._running == 0:
                    self._advance_locked()
                task = self._ready.popleft() if self._ready else None
            while task.__class__ is ModelTask:
                task = self._step_model(task)
            if task is not None and task._job is not None:
                continue  # not yet started: run it on this thread
            with self._lock:
                retire = self._dead or len(self._pool_idle) >= self._pool_size
                if not retire:
                    self._pool_idle.append(worker)
            if task is not None:
                self._hand_off(task)
            task = None
            if not retire:
                worker.park.acquire()
                task, worker.job = worker.job, None  # None: stop signal
        with self._lock:
            self._pool_workers.discard(worker)
            self._live_worker_threads -= 1

    # ------------------------------------------------------------------
    # Task lifecycle: model tasks
    # ------------------------------------------------------------------
    def spawn_model(
        self,
        fn: Callable[..., Generator[Any, Any, Any]],
        *args: Any,
        name: Optional[str] = None,
        daemon: bool = False,
        **kwargs: Any,
    ) -> ModelTask:
        """Start generator function ``fn(*args, **kwargs)`` as a model task.

        The generator yields kernel ops (:func:`vsleep`, :func:`vwait`,
        :func:`vjoin`) to block in virtual time; its ``return`` value becomes
        the task result.  No OS thread is held while the task is blocked.
        """
        gen = fn(*args, **kwargs)
        if not (hasattr(gen, "send") and hasattr(gen, "throw")):
            raise VTimeUsageError(
                f"spawn_model() needs a generator function; {fn!r} returned "
                f"{type(gen).__name__}"
            )
        outside = self._outside()
        with self._lock:
            task = self._register_locked(ModelTask, name or fn.__name__, daemon)
            task._gen = gen
            self._ready.append(task)
            if outside:
                self._kick_loop_locked()
        return task

    def _step_model(self, task: ModelTask) -> Any:
        """Run one step of ``task`` on the holder's thread; return the next
        ready task of either kind.

        The resume (or throw) runs outside the kernel lock, inside the
        task's own context, so ambient state changed *during* the step (e.g.
        a ``tracer.bind`` held across a yield) stays with the task; the
        stepping thread's own context is never touched.  Then one critical
        section books what the step produced — the yielded op, or the task's
        finish — advances the clock if no task is left running, and pops the
        next ready task (FIFO); ``None`` when the queue is empty.
        """
        op: Any = None
        finished = False
        run = task._context.run
        _THIS_THREAD.task = task
        try:
            if task._pending_exc is not None:
                exc, task._pending_exc = task._pending_exc, None
                op = run(task._gen.throw, exc)
            elif task._resume_value_fn is None:
                op = run(task._gen.send, None)
            else:
                fn, task._resume_value_fn = task._resume_value_fn, None
                op = run(task._gen.send, fn())
        except StopIteration as stop:
            task._result = stop.value
            finished = True
        except BaseException as exc:  # noqa: BLE001 - recorded, re-raised at join
            task._exception = exc
            finished = True
        if finished:
            task._gen = task._context = None
        with self._lock:
            if finished:
                self._finish_locked(task)
            else:
                # a waiter to block on (its timer, if any, after `timeout`
                # seconds), or None: the task runs again, still RUNNING —
                # unless it sleeps, on a timer entry naming the task itself
                waiter: Optional[Waiter] = None
                timeout: Optional[float] = None
                blocked = False
                if isinstance(op, SleepOp):
                    # both legs on one timer, added left to right: the
                    # instant two back-to-back sleeps would wake at
                    self._add_sleep_locked(
                        task, self._now + max(0.0, op.duration) + max(0.0, op.then)
                    )
                    blocked = True
                elif isinstance(op, WaitOp):
                    if op.waiter.task is not task:
                        task._pending_exc = VTimeUsageError(
                            f"model task {task.name!r} yielded a WaitOp whose "
                            f"waiter belongs to {op.waiter.task!r}"
                        )
                    elif not op.waiter.done:  # else consumed before the yield
                        waiter, timeout = op.waiter, op.timeout
                elif isinstance(op, JoinOp):
                    if op.task._state == ModelTask._FINISHED:
                        task._resume_value_fn = lambda: True
                    else:
                        waiter, timeout = Waiter(task), op.timeout
                        self._add_join_waiter_locked(op.task, waiter)
                        task._resume_value_fn = lambda w=waiter: not w.timed_out
                else:
                    task._pending_exc = VTimeUsageError(
                        f"model task {task.name!r} yielded {op!r}; expected "
                        "vsleep()/vwait()/vjoin()"
                    )
                if waiter is not None:
                    if timeout is not None:
                        heapq.heappush(
                            self._timers,
                            (self._now + max(0.0, timeout), next(self._seq), waiter),
                        )
                    blocked = True
                if blocked:
                    task._state = ModelTask._BLOCKED
                    self._running -= 1
                else:
                    self._ready.append(task)
            if self._running == 0:
                self._advance_locked()
            if self._ready:
                return self._ready.popleft()
        return None

    def _finish_locked(self, task: Any) -> None:
        """Retire a finished task of either kind and wake its joiners."""
        task._state = Task._FINISHED
        self._tasks.pop(task.task_id, None)
        self._running -= 1
        if not task.daemon:
            self._nondaemon_alive -= 1
            if self._nondaemon_alive == 0:
                self._nondaemon_done.set()
        waiters, task._join_waiters = task._join_waiters, None
        for waiter in waiters or ():
            self._consume_waiter(waiter)
        if task._outcome_ready is not None:
            task._outcome_ready.set()

    # ------------------------------------------------------------------
    # Steps interpreter: one generator, both task kinds
    # ------------------------------------------------------------------
    def drive(self, gen: Generator[Any, Any, Any]) -> Any:
        """Run a steps generator to completion, blocking at each op.

        This is the thread-task twin of ``yield from``: code written once as
        a generator of kernel ops serves model tasks (which delegate to it)
        and thread tasks (which ``drive`` it).  Returns the generator's
        return value; exceptions raised by ops are thrown into the generator
        so its ``try``/``finally`` blocks run.
        """
        value: Any = None
        exc: Optional[BaseException] = None
        while True:
            try:
                op = gen.throw(exc) if exc is not None else gen.send(value)
            except StopIteration as stop:
                return stop.value
            value = None
            exc = None
            try:
                if isinstance(op, SleepOp):
                    self.sleep(op.duration, op.then)
                elif isinstance(op, WaitOp):
                    self.block_on(op.waiter, op.timeout)
                elif isinstance(op, JoinOp):
                    value = self._join_any(op.task, op.timeout)
                else:
                    raise VTimeUsageError(
                        f"steps generator yielded {op!r}; expected "
                        "vsleep()/vwait()/vjoin()"
                    )
            except BaseException as caught:  # noqa: BLE001 - rethrown into gen
                exc = caught

    def _join_any(self, task: Any, timeout: Optional[float]) -> bool:
        if current_task() is None:
            return self._await_finish(task, timeout)
        return self._join_task(task, timeout)

    def _await_finish(self, task: Any, timeout: Optional[float] = None) -> bool:
        """Block an outside (non-kernel) thread in real time until ``task``
        finishes.  The task's outcome event is created here, under the lock,
        so only a task someone waits on this way ever carries one."""
        with self._lock:
            if task._state == Task._FINISHED:
                return True
            if task._outcome_ready is None:
                task._outcome_ready = threading.Event()
            event = task._outcome_ready
        return event.wait(timeout)

    # ------------------------------------------------------------------
    # Run / shutdown
    # ------------------------------------------------------------------
    def run(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` as the root task and return its result.

        Called from an outside thread (e.g. a test).  Blocks in real time
        until the root task and every non-daemon task it spawned finish, then
        shuts the kernel down.  Exceptions from the root task propagate.
        """
        root = self.spawn(fn, *args, name=kwargs.pop("name", "main"), **kwargs)
        self._await_finish(root)
        # Let non-daemon descendants drain before declaring the run over.
        self._nondaemon_done.wait()
        self.shutdown()
        if root._exception is not None:
            raise root._exception
        return root._result

    def _join_task(self, task: Any, timeout: Optional[float]) -> bool:
        with self._lock:
            if task._state == Task._FINISHED:
                return True
            waiter = self._make_waiter()
            self._add_join_waiter_locked(task, waiter)
            if timeout is not None:
                self._add_timer_locked(self._now + max(0.0, timeout), waiter)
            nxt = self._block_current_locked(waiter.task)
        self._serve(waiter.task, nxt)
        return not waiter.timed_out

    def shutdown(self) -> None:
        """Kill remaining (daemon) tasks and reclaim pooled/loop threads.

        Blocked tasks get :class:`KernelShutdownError` raised at their wait
        point, served by the loop thread; idle pool workers are stopped; the
        loop exits once the ready queue drains.  Idempotent.
        """
        with self._lock:
            if self._shutdown_complete:
                return
            self._dead = True
            for task in list(self._tasks.values()):
                if task._state != Task._BLOCKED:
                    continue
                self._throw_locked(task, KernelShutdownError(
                    f"kernel shut down while task {task.name!r} was blocked"
                ))
            if self._ready:
                self._kick_loop_locked()
            remaining = list(self._tasks.values())
        for task in remaining:
            self._await_finish(task, timeout=5.0)
        # stop the loop thread (after the tasks drained)
        with self._lock:
            self._loop_stop = True
            self._loop_wake.set()
            loop = self._loop_thread
        if loop is not None:
            loop.join(timeout=5.0)
        # stop idle pool workers; busy ones self-retire after their task
        while True:
            with self._lock:
                worker = self._pool_idle.pop() if self._pool_idle else None
            if worker is None:
                break
            worker.job = None
            worker.park.release()
        with self._lock:
            threads = [
                w.thread for w in self._pool_workers if w.thread is not None
            ]
        for thread in threads:
            thread.join(timeout=5.0)
        with self._lock:
            self._shutdown_complete = True

    # ------------------------------------------------------------------
    # Blocking primitives (used by repro.vtime.sync and sleep)
    # ------------------------------------------------------------------
    def sleep(self, duration: float, then: float = 0.0) -> None:
        """Block the calling thread task for ``duration`` virtual seconds,
        then ``then`` more on the same timer (see :class:`SleepOp`)."""
        task = self._require_current_task()
        with self._lock:
            self._add_sleep_locked(
                task, self._now + max(0.0, float(duration)) + max(0.0, float(then))
            )
            nxt = self._block_current_locked(task)
        self._serve(task, nxt)

    def _make_waiter(self) -> Waiter:
        return Waiter(self._require_current_task())

    def _require_current_task(self) -> Task:
        task = current_task()
        if task is None or task.kernel is not self:
            raise NotInKernelError(
                "this operation must run inside a task of this kernel "
                "(use Kernel.run()/Kernel.spawn())"
            )
        if isinstance(task, ModelTask):
            raise VTimeUsageError(
                f"model task {task.name!r} called a blocking kernel "
                "primitive; model tasks must yield "
                "vsleep()/vwait()/vjoin() instead"
            )
        return task

    def _add_timer_locked(self, when: float, waiter: Waiter) -> None:
        heapq.heappush(self._timers, (when, next(self._seq), waiter))

    def _add_sleep_locked(self, task: Any, when: float) -> None:
        """Book ``task``'s sleep: a timer entry naming the task itself, live
        while ``task._timer_seq`` is its seq (see :meth:`_advance_locked`)."""
        seq = task._timer_seq = next(self._seq)
        heapq.heappush(self._timers, (when, seq, task))

    def _add_join_waiter_locked(self, target: Any, waiter: Waiter) -> None:
        if target._join_waiters is None:
            target._join_waiters = []
        target._join_waiters.append(waiter)

        def _unlink(w: Waiter) -> None:
            lst = target._join_waiters or ()
            if w in lst:
                lst.remove(w)

        waiter.on_consume = _unlink

    def _block_current_locked(self, task: Task) -> Any:
        """Mark the calling task blocked, advance time if it was the last
        runner, and pop the next ready task (``None`` if there is none).

        Caller holds the kernel lock, and must pass the popped task to
        :meth:`_serve` (outside the lock) immediately after this returns.
        """
        task._state = Task._BLOCKED
        self._running -= 1
        if self._running == 0:
            self._advance_locked()
        return self._ready.popleft() if self._ready else None

    def _serve(self, task: Task, nxt: Any) -> None:
        """Serve the ready queue on blocked thread task ``task``'s own
        stack, from ``nxt`` on, until ``task`` is resumed.

        Model tasks step inline; popping ``task`` itself returns at once;
        any other thread task gets the holder role while ``task`` parks.
        An exception thrown at the wait point (shutdown, deadlock) is
        raised here.
        """
        while nxt.__class__ is ModelTask:
            nxt = self._step_model(nxt)
        if nxt is not task:
            if nxt is not None:
                self._hand_off(nxt)
            task._park.acquire()
        _THIS_THREAD.task = task
        exc = task._wake_exc
        if exc is not None:
            task._wake_exc = None
            raise exc

    def block_on(self, waiter: Waiter, timeout: Optional[float] = None) -> None:
        """Block the current thread task until ``waiter`` is consumed.

        The caller must have created ``waiter`` for the current task and made
        it reachable from whatever will eventually wake it.  Must *not* hold
        the kernel lock.  (Model tasks ``yield vwait(waiter)`` instead.)
        """
        task = waiter.task
        if isinstance(task, ModelTask):
            raise VTimeUsageError(
                f"block_on() called with a model-task waiter "
                f"({task.name!r}); yield vwait() instead"
            )
        with self._lock:
            if waiter.done:
                # Consumed between registration and blocking: do not block.
                return
            if timeout is not None:
                self._add_timer_locked(self._now + max(0.0, timeout), waiter)
            nxt = self._block_current_locked(task)
        self._serve(task, nxt)

    def wake(self, waiter: Waiter, payload: Any = None) -> bool:
        """Consume ``waiter`` (from any thread) and wake its task.

        Returns ``False`` if the waiter was already consumed (e.g. timed out).
        """
        outside = self._outside()
        with self._lock:
            woke = self._consume_waiter(waiter, payload)
            if woke and outside:
                self._kick_loop_locked()
            return woke

    def _consume_waiter(self, waiter: Waiter, payload: Any = None) -> bool:
        if waiter.done:
            return False
        waiter.done = True
        waiter.payload = payload
        if waiter.on_consume is not None:
            waiter.on_consume(waiter)
        task = waiter.task
        if task._state == Task._BLOCKED:
            task._state = Task._RUNNING
            self._running += 1
            self._ready.append(task)
        return True

    def _throw_locked(self, task: Any, exc: BaseException) -> None:
        """Wake blocked ``task`` with ``exc`` raised at its wait point."""
        if isinstance(task, ModelTask):
            task._pending_exc = exc
        else:
            task._wake_exc = exc
        task._timer_seq = None  # a pending sleep timer must not wake it again
        self._consume_waiter(Waiter(task))

    # ------------------------------------------------------------------
    # The clock advance
    # ------------------------------------------------------------------
    def _advance_locked(self) -> None:
        """All tasks are blocked: move time forward and wake one task.

        Consumed (cancelled) timers are skipped, and so is a sleep timer
        whose task was since woken another way (its ``_timer_seq`` moved
        on).  If no live timer remains, the simulation is deadlocked; every
        blocked task gets a :class:`DeadlockError` so the failure is
        diagnosable.
        """
        while self._timers:
            when, seq, entry = heapq.heappop(self._timers)
            if entry.__class__ is Waiter:
                if entry.done:
                    continue
            elif entry._timer_seq != seq:
                continue
            if when < self._now:  # pragma: no cover - defensive
                when = self._now
            self._now = when
            if entry.__class__ is Waiter:
                entry.timed_out = True
                self._consume_waiter(entry)
            else:
                # a sleep ends: its task runs again
                entry._timer_seq = None
                entry._state = Task._RUNNING
                self._running += 1
                self._ready.append(entry)
            return
        blocked = [t for t in self._tasks.values() if t._state == Task._BLOCKED]
        if not blocked:
            return
        names = ", ".join(sorted(t.name for t in blocked))
        for task in blocked:
            self._throw_locked(task, DeadlockError(
                f"virtual-time deadlock: all tasks blocked with no pending "
                f"timer (blocked tasks: {names})"
            ))

"""The ``wait()`` API method (§4.2) and the one watcher that answers it.

Three unlock policies, verbatim from the paper:

1. ``ALWAYS`` — check once whether results are available and return
   immediately either way;
2. ``ANY_COMPLETED`` — resume as soon as at least one invocation finished;
3. ``ALL_COMPLETED`` — resume when every result is available in COS.

Every executor has one :class:`Watcher`, one model task whose round is the
only judge of its calls: it discovers completions through the executor's
completion source, has each live DAG run judge its nodes (fire, retry,
bury), runs lost-call recovery and the client-crash check once, and wakes
the waiters whose policy now holds.  ``wait()``, ``get_result()``,
``ResponseFuture.result()`` / ``done()`` and ``DagRun.join()`` send no LIST
or status GET of their own for a watched future: they park until a round
judged it.  Rounds run only while a DAG run is live or a waiter is parked;
a waiter that finds the watcher idle gets a round at once.

The completion source, built from ``config.monitoring``, has two operations:

``discover_steps(keys)``
    for each ``(executor_id, callset_id)`` key, the calls finished so far,
    as ``call_id -> status`` (``None``: seen, not read);
``idle_steps(seconds, arrived)``
    let up to ``seconds`` pass; a source that hears completions meanwhile
    returns once ``arrived(key, call_id)`` says a waiter can be woken.
"""

from __future__ import annotations

import contextlib
import weakref
from typing import Any, Callable, Collection, Iterable, Optional, Sequence

from repro import vtime
from repro.core.errors import ResultTimeoutError
from repro.core.futures import ALL_COMPLETED, ALWAYS, ANY_COMPLETED, CallState, ResponseFuture
from repro.core.storage_client import InternalStorage
from repro.vtime import VEvent, vsleep

__all__ = ["wait", "ALWAYS", "ANY_COMPLETED", "ALL_COMPLETED"]

Key = tuple[str, str]


def _key(future: ResponseFuture) -> Key:
    return future.executor_id, future.callset_id


class ListSource:
    """``cos_polling``, the paper's design: the status object is the signal.

    One LIST request per callset per round, not one HEAD per future, is
    what makes waiting on thousands of futures cheap.
    """

    #: the queue workers must publish their status to (``None``: none)
    queue: Optional[str] = None

    def __init__(self, storage: InternalStorage) -> None:
        self.storage = storage

    def discover_steps(self, keys: Iterable[Key]):
        found = {}
        for key in keys:
            found[key] = dict.fromkeys((yield from self.storage.list_done_call_ids_steps(*key)))
        return found

    def idle_steps(self, seconds: float, arrived: Callable[[Key, str], bool]):
        yield vsleep(seconds)

    def forget(self, future: ResponseFuture) -> None:
        """Drop anything learned about ``future``'s discarded attempt."""


class QueueSource(ListSource):
    """``mq_push``: workers publish their committed status to ``queue``.

    One queue per executor, consumed by its watcher alone; every status
    consumed is kept per callset, so a later waiter (or DAG node) finds it
    as a LIST would.  Calls of another executor are never announced here:
    they are LISTed.
    """

    def __init__(self, storage: InternalStorage, mq, executor_id: str) -> None:
        super().__init__(storage)
        self.queue = f"pywren-monitor-{executor_id}"
        self._mq = mq
        self._executor_id = executor_id
        mq.declare_queue(self.queue)
        #: consumed statuses: ``callset_id -> call_id -> status``
        self._delivered: dict[str, dict[str, dict[str, Any]]] = {}

    def _receive_steps(self, timeout: Optional[float]):
        """Consume one message (charges no request); raises ``QueueEmpty``."""
        status = yield from self._mq.consume_steps(self.queue, timeout)
        self._delivered.setdefault(status["callset_id"], {})[status["call_id"]] = status
        return (self._executor_id, status["callset_id"]), status["call_id"]

    def discover_steps(self, keys: Collection[Key]):
        own = [key for key in keys if key[0] == self._executor_id]
        if own:
            # drain what has been delivered since (ALWAYS must see it)
            with contextlib.suppress(vtime.QueueEmpty):
                while True:
                    yield from self._receive_steps(0)
        found = yield from super().discover_steps(key for key in keys if key not in own)
        for key in own:
            found[key] = self._delivered.get(key[1], {})
        return found

    def idle_steps(self, seconds: float, arrived: Callable[[Key, str], bool]):
        """Block on the queue until ``arrived`` says so, or ``seconds`` pass."""
        end = vtime.now() + seconds
        with contextlib.suppress(vtime.QueueEmpty):
            while (remaining := end - vtime.now()) > 0:
                if arrived(*(yield from self._receive_steps(remaining))):
                    return

    def forget(self, future: ResponseFuture) -> None:
        self._delivered.get(future.callset_id, {}).pop(future.call_id, None)


def _positions(index: Any) -> tuple[int, ...]:
    """The input positions a ``_Wait`` index entry names."""
    return index if type(index) is tuple else (index,)


class _Wait:
    """One parked wait: its futures indexed by input position and, per
    callset, by call id, so a round costs O(callsets + completions).

    A call id maps to its position, or to a tuple of positions for a call
    listed more than once, so the index holds no list per call."""

    def __init__(self, kernel, futures: list[ResponseFuture], return_when: int,
                 on_progress) -> None:
        self.futures, self.return_when, self.on_progress = futures, return_when, on_progress
        self._event = VEvent(kernel)
        self.error: Optional[BaseException] = None
        self.refresh()

    def refresh(self) -> None:
        """Index the unknown futures by position, and per callset by call id."""
        self.pending = {p: f for p, f in enumerate(self.futures) if not f.status_known}
        self.callsets: dict[Key, dict[str, Any]] = {}
        for position, future in self.pending.items():
            ids = self.callsets.setdefault(_key(future), {})
            first = ids.setdefault(future.call_id, position)
            if first != position:
                ids[future.call_id] = (*_positions(first), position)

    def keys(self) -> list[Key]:
        """The callsets with a pending future, by their first one."""
        return sorted(
            self.callsets, key=lambda key: _positions(next(iter(self.callsets[key].values())))
        )

    def take(self, key: Key, found: dict[str, Any], judged: set) -> None:
        """Take out what discovery found of ``key`` (a DAG node once judged)."""
        ids = self.callsets[key]
        for call_id in ids.keys() & found.keys():
            kept = ()
            for position in _positions(ids[call_id]):
                future = self.pending[position]
                if future in judged:
                    if not future.status_known:
                        kept += (position,)
                        continue
                elif found[call_id] is None:
                    future.mark_done()
                else:
                    future._ingest_status(found[call_id])
                del self.pending[position]
            if kept:
                ids[call_id] = kept[0] if len(kept) == 1 else kept
            else:
                del ids[call_id]
        if not ids:
            del self.callsets[key]

    def settled(self) -> bool:
        return not self.pending or (
            self.return_when == ANY_COMPLETED and len(self.pending) < len(self.futures)
        )

    def progress(self) -> None:
        if self.on_progress is not None:
            self.on_progress(len(self.futures) - len(self.pending), len(self.futures))


class Watcher:
    """The one judge of an executor's calls (see the module docstring);
    without an ``executor`` (:func:`wait` on unwatched futures) it neither
    recovers lost calls nor checks for a client crash."""

    def __init__(self, kernel, source: ListSource, poll_interval: float,
                 executor=None) -> None:
        self.kernel, self.source, self.poll_interval = kernel, source, poll_interval
        #: both weak: the executor holds its watcher, and futures outlive both
        self._executor = (lambda: None) if executor is None else weakref.ref(executor)
        self.ref = weakref.ref(self)
        #: live DAG runs in submission order, and the parked waits
        self.runs: list = []
        self.waits: list[_Wait] = []
        self.task = None

    # -- entry points ----------------------------------------------------------
    def wait_steps(self, futures: Sequence[ResponseFuture], return_when: int = ALL_COMPLETED,
                   timeout: Optional[float] = None, on_progress=None):
        """Park until the rounds settle ``futures`` under ``return_when``;
        returns ``(done, not_done)``.  ``ALWAYS`` parks for one round unless
        every status is already known."""
        futures = list(futures)
        if not futures:
            return [], []
        for future in (f for f in futures if not f.bound):
            future.bind(self.source.storage, self.poll_interval)
        wait = _Wait(self.kernel, futures, return_when, on_progress)
        woke = True
        if wait.settled():
            wait.progress()
        else:
            self.waits.append(wait)
            self._start(round_now=True)
            woke = yield from wait._event.wait_steps(timeout)
            if not woke:
                self.waits.remove(wait)
        if (executor := self._executor()) is not None:
            executor._check_client()
        if wait.error is not None:
            raise wait.error
        if not woke:
            raise ResultTimeoutError(
                f"wait() timed out with {len(wait.pending)} of "
                f"{len(futures)} futures unfinished"
            )
        return [f for f in futures if f.status_known], list(wait.pending.values())

    def watch(self, run) -> None:
        """Judge ``run``'s nodes from the next round on, until it finishes."""
        self.runs.append(run)
        self._start(round_now=False)

    def _start(self, round_now: bool) -> None:
        executor = self._executor()
        if self.task is None:
            with executor._trace_scope() if executor else contextlib.nullcontext():
                self.task = self.kernel.spawn_model(self._watch_steps, round_now, executor)

    # -- the task --------------------------------------------------------------
    def _watch_steps(self, round_now: bool, executor):
        """Model task: a round, then one poll interval of idle, while anything
        is live, holding the executor meanwhile and no OS thread at all."""
        try:
            while self.runs or self.waits:
                if round_now:
                    yield from self._round_steps(executor)
                round_now = True
                if self.runs or self.waits:
                    yield from self._idle_steps()
        finally:
            self.task = None

    def _idle_steps(self):
        # a pushed completion ends the idle once a waiter has all it needs
        need = {w: 1 if w.return_when == ANY_COMPLETED else len(w.pending) for w in self.waits}

        def arrived(key: Key, call_id: str) -> bool:
            for wait in need:
                need[wait] -= call_id in wait.callsets.get(key, ())
            return min(need.values(), default=1) <= 0

        yield from self.source.idle_steps(self.poll_interval, arrived)

    def _round_steps(self, executor):
        if executor is not None and executor._client_dead():
            # the driver died (client-crash chaos): the watcher dies with it,
            # orphaning its DAGs for reattach(), and wakes everyone parked
            self._release(None)
            return
        try:
            yield from self._drive_steps(executor)
        except Exception as exc:  # noqa: BLE001 - surfaced on runs and waits
            # A broken round must not leave anyone pending forever in
            # virtual time: surface it, then fail every unfinished node.
            runs = self.runs
            self._release(exc)
            for run in runs:
                yield from run._scheduler._abort_steps(run, exc)

    def judge_steps(self, runs: list, waits: Sequence[_Wait] = ()):
        """Discover and judge: the callsets of ``runs``' DAG nodes in flight,
        then those of ``waits``' calls not known to be unfired (prepared, not
        invoked), one LIST each; returns the node futures judged."""
        flights = [(run, sorted(run.in_flight(), key=lambda n: _key(n.future))) for run in runs]
        nodes = [node.future for _, flight in flights for node in flight]
        judged = set(nodes)
        keys = {_key(f): None for f in nodes if not f.status_known}
        for wait in waits:
            for key in wait.keys():
                invoked = (f.state != CallState.NEW or not hasattr(f, "_call_params")
                           for ps in wait.callsets[key].values()
                           for f in map(wait.pending.get, _positions(ps)))
                if key not in keys and any(invoked):
                    keys[key] = None
        found = yield from self.source.discover_steps(keys)
        for run, flight in flights:
            hits = []
            for node in flight:
                future, ids = node.future, found.get(_key(node.future), {})
                if future.status_known or future.call_id in ids:
                    hits.append((node, future._status or ids.get(future.call_id)))
            yield from run._scheduler._judge_steps(run, hits)
        for wait in waits:
            for key in wait.keys():
                if key in found:
                    wait.take(key, found[key], judged)
        return nodes

    def _drive_steps(self, executor):
        runs = list(self.runs)
        nodes = yield from self.judge_steps(runs, self.waits)
        if executor is not None and executor._recovery:
            pending = [f for wait in self.waits for f in wait.pending.values()]
            yield from executor._reinvoke_lost_steps(pending + nodes)
        for run in runs:
            yield from run._scheduler._fire_steps(run)
            if run._finished:
                self.runs.remove(run)
        for wait in list(self.waits):
            if runs or (executor is not None and executor._recovery):
                # statuses judged outside discovery: nodes, burials
                wait.refresh()
            wait.progress()
            if wait.return_when == ALWAYS or wait.settled():
                self.waits.remove(wait)
                wait._event.set()

    def _release(self, error: Optional[BaseException]) -> None:
        """Stop watching: wake every joiner and waiter (with ``error``)."""
        for wait in self.waits:
            wait.error = error
        for parked in self.runs + self.waits:  # DAG joiners and waiters
            parked._event.set()
        self.runs, self.waits = [], []


def wait(
    futures: Iterable[ResponseFuture],
    storage: Optional[InternalStorage] = None,
    return_when: int = ALL_COMPLETED,
    poll_interval: float = 1.0,
    timeout: Optional[float] = None,
    on_progress=None,
) -> tuple[list[ResponseFuture], list[ResponseFuture]]:
    """Wait on futures; returns the 2-tuple ``(done, not_done)`` of §4.2.

    Futures an executor prepared are judged by that executor's watcher
    (``executor.wait`` is the same call); others by a watcher of their own
    that polls COS every ``poll_interval``.  ``storage`` defaults to the
    binding of the first future.  ``timeout`` bounds the blocking policies
    and raises :class:`ResultTimeoutError` at the deadline.
    ``on_progress(done_count, total)`` is called once per round —
    ``get_result`` drives its progress bar with it.
    """
    futures = list(futures)
    watcher = next((w for w in map(ResponseFuture._judge, futures) if w is not None), None)
    if watcher is None and futures:
        if storage is None:
            bound = next((f for f in futures if f.bound), None)
            if bound is None:
                raise RuntimeError("wait() needs bound futures or an explicit storage")
            storage = bound._storage
        watcher = Watcher(storage.cos.link.kernel, ListSource(storage), poll_interval)
    if not futures:
        return [], []
    return watcher.kernel.drive(watcher.wait_steps(futures, return_when, timeout, on_progress))

"""The ``wait()`` API method (§4.2): one loop over one completion source.

Three unlock policies, verbatim from the paper:

1. ``ALWAYS`` — check once whether results are available and return
   immediately either way;
2. ``ANY_COMPLETED`` — resume as soon as at least one invocation finished;
3. ``ALL_COMPLETED`` — resume when every result is available in COS.

The loop (:func:`_wait`) owns everything that defines *when a call is
over*: binding, the policies, the deadline, progress, the executor's
per-round journal hook and its lost-call scan.  *How* completions are
learned sits behind a completion source with two operations, built once
per executor from ``config.monitoring``:

``discover(pending)``
    yield ``(future, status_or_None)`` for each pending future whose status
    exists by now.  The loop records a pair the moment it is yielded, so a
    future found by one LIST is marked before the next LIST goes out —
    futures are shared (a ``map_reduce`` reducer future also belongs to its
    DAG watcher, which skips its own LIST once the status is known).
``idle(seconds, pending, need)``
    let up to ``seconds`` pass; a source that hears completions meanwhile
    may return once ``need`` of ``pending`` have finished.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Sequence

from repro import vtime
from repro.core.errors import ResultTimeoutError
from repro.core.futures import ALL_COMPLETED, ALWAYS, ANY_COMPLETED, LEARNED, ResponseFuture
from repro.core.storage_client import InternalStorage

__all__ = ["wait", "ALWAYS", "ANY_COMPLETED", "ALL_COMPLETED"]

Discovery = Iterator[tuple[ResponseFuture, Optional[dict[str, Any]]]]


class Pending:
    """The futures one wait still waits on, indexed so that a round costs
    O(callsets + completions): by input position, and per callset by call
    id.  :meth:`listed` takes out what a LIST revealed; what anyone else
    learned meanwhile (another waiter, a DAG watcher sharing the futures,
    a burial) is swept out by :meth:`sync`, which re-reads every future
    only when :data:`~repro.core.futures.LEARNED` moved by more than this
    wait's own discoveries.
    """

    def __init__(self, futures: Sequence[ResponseFuture]) -> None:
        self._index(enumerate(futures))
        self._tick, self._own = next(LEARNED), 0

    def _index(self, items: Iterable[tuple[int, ResponseFuture]]) -> None:
        #: position -> future, and (executor_id, callset_id) -> call_id ->
        #: positions; a callset's first call id holds its first position
        self.order: dict[int, ResponseFuture] = {}
        self.callsets: dict[tuple[str, str], dict[str, list[int]]] = {}
        for position, future in items:
            if not future.status_known:
                self.order[position] = future
                ids = self.callsets.setdefault((future.executor_id, future.callset_id), {})
                ids.setdefault(future.call_id, []).append(position)

    def sync(self) -> None:
        tick = next(LEARNED)
        if tick != self._tick + 1 + self._own:
            self._index(list(self.order.items()))
        self._tick, self._own = tick, 0

    def futures(self) -> list[ResponseFuture]:
        return list(self.order.values())

    def keys(self) -> list[tuple[str, str]]:
        """The callsets with a pending future, by their first one."""
        return sorted(self.callsets, key=lambda key: next(iter(self.callsets[key].values())))

    def listed(self, key: tuple[str, str], done_ids: set[str]) -> list[ResponseFuture]:
        """Take out (in input order) ``key``'s futures a LIST found done."""
        ids = self.callsets[key]
        hits = sorted(p for call_id in ids.keys() & done_ids for p in ids.pop(call_id))
        if not ids:
            del self.callsets[key]
        self._own += len(hits)
        return [self.order.pop(position) for position in hits]


class ListSource:
    """``cos_polling``, the paper's design: the status object is the signal.

    One LIST request per callset per round, not one HEAD per future, is
    what makes waiting on thousands of futures cheap.
    """

    #: the queue workers must publish their status to (``None``: none)
    queue: Optional[str] = None

    def __init__(self, storage: InternalStorage) -> None:
        self.storage = storage

    def discover(self, pending: Pending, keys: Optional[list] = None) -> Discovery:
        """One LIST per callset (of ``keys``) that has a pending future."""
        for key in pending.keys() if keys is None else keys:
            done_ids = self.storage.list_done_call_ids(*key)
            if done_ids:
                for future in pending.listed(key, done_ids):
                    yield future, None

    def idle(self, seconds: float, pending: Pending, need: int) -> None:
        vtime.sleep(seconds)

    def forget(self, future: ResponseFuture) -> None:
        """Drop anything learned about ``future``'s discarded attempt."""


class QueueSource(ListSource):
    """``mq_push``: workers publish their committed status to ``queue``.

    One queue per executor, shared by every waiter on it: a consumed
    message nobody in *this* waited set asked for is kept in ``_delivered``
    for the waiter that does (a later callset, another client thread).
    Futures of another executor are never announced here: they are LISTed.
    """

    def __init__(self, storage: InternalStorage, mq, executor_id: str) -> None:
        super().__init__(storage)
        self.queue = f"pywren-monitor-{executor_id}"
        self._mq = mq
        self._executor_id = executor_id
        mq.declare_queue(self.queue)
        #: consumed, not yet claimed: ``(callset_id, call_id) -> status``
        self._delivered: dict[tuple[str, str], dict[str, Any]] = {}

    def _receive(self, timeout: Optional[float]):
        """Consume one message (charges no request); raises ``QueueEmpty``."""
        status = self._mq.consume(self.queue, timeout=timeout)
        return (status["callset_id"], status["call_id"]), status

    def discover(self, pending: Pending) -> Discovery:
        waiting: dict[tuple[str, str], ResponseFuture] = {}
        for future in pending.futures():
            if future.status_known or future.executor_id != self._executor_id:
                continue
            key = (future.callset_id, future.call_id)
            status = self._delivered.pop(key, None)
            if status is not None:
                yield future, status
            else:
                waiting[key] = future
        # drain what has been delivered since (ALWAYS must see it)
        while waiting:
            try:
                key, status = self._receive(0)
            except vtime.QueueEmpty:
                break
            future = waiting.pop(key, None)
            if future is not None:
                yield future, status
            else:
                self._delivered[key] = status
        yield from super().discover(
            pending, [key for key in pending.keys() if key[0] != self._executor_id]
        )

    def idle(self, seconds: float, pending: Pending, need: int) -> None:
        """Block on the queue; return once ``need`` of ``pending`` arrived."""
        waiting = {
            (future.callset_id, future.call_id)
            for future in pending.order.values()
            if future.executor_id == self._executor_id
        }
        end = vtime.now() + seconds
        while need > 0:
            remaining = end - vtime.now()
            if remaining <= 0:
                return
            try:
                key, status = self._receive(remaining)
            except vtime.QueueEmpty:
                return
            self._delivered[key] = status
            if key in waiting:
                waiting.discard(key)
                need -= 1

    def forget(self, future: ResponseFuture) -> None:
        self._delivered.pop((future.callset_id, future.call_id), None)


def _wait(
    futures: list[ResponseFuture],
    source: ListSource,
    return_when: int = ALL_COMPLETED,
    poll_interval: float = 1.0,
    timeout: Optional[float] = None,
    on_progress=None,
    lost_detector=None,
    on_round=None,
) -> tuple[list[ResponseFuture], list[ResponseFuture]]:
    """The one wait loop; :func:`wait` documents the hooks.

    A round is: discover (recording each completion as it is found) →
    ``on_round`` → policy → deadline → ``lost_detector`` → idle.
    """
    if not futures:
        return [], []
    for future in futures:
        if not future.bound:
            future.bind(source.storage, poll_interval)

    deadline = None if timeout is None else vtime.now() + timeout
    # carried from round to round, so a round costs O(callsets + completions)
    pending = Pending(futures)
    while True:
        pending.sync()
        for future, status in source.discover(pending):
            if status is None:
                future.mark_done()
            else:
                future._ingest_status(status)
        if on_round is not None:
            on_round(futures)
        pending.sync()
        done_count = len(futures) - len(pending.order)
        if on_progress is not None:
            on_progress(done_count, len(futures))
        if (
            return_when == ALWAYS
            or (return_when == ANY_COMPLETED and done_count)
            or (return_when == ALL_COMPLETED and not pending.order)
        ):
            return [f for f in futures if f.status_known], pending.futures()
        if deadline is not None and vtime.now() >= deadline:
            raise ResultTimeoutError(
                f"wait() timed out with {len(pending.order)} of "
                f"{len(futures)} futures unfinished"
            )
        if lost_detector is not None:
            lost_detector(pending.futures())
            # an exhausted call got its synthetic status ingested directly
            pending.sync()
        step = poll_interval
        if deadline is not None:
            # the last idle before the deadline is clipped to it
            step = min(step, max(0.0, deadline - vtime.now()))
        need = 1 if return_when == ANY_COMPLETED else len(pending.order)
        source.idle(step, pending, need)


def wait(
    futures: Iterable[ResponseFuture],
    storage: Optional[InternalStorage] = None,
    return_when: int = ALL_COMPLETED,
    poll_interval: float = 1.0,
    timeout: Optional[float] = None,
    on_progress=None,
    lost_detector=None,
    on_round=None,
) -> tuple[list[ResponseFuture], list[ResponseFuture]]:
    """Wait on futures; returns the 2-tuple ``(done, not_done)`` of §4.2.

    Completion is polled from COS (``executor.wait`` runs the same loop
    over the executor's own completion source).  ``storage`` defaults to
    the binding of the first future.  ``timeout`` bounds the blocking
    policies and raises :class:`ResultTimeoutError` at the deadline.
    ``on_progress(done_count, total)`` is called once per round —
    ``get_result`` drives its progress bar with it.

    ``lost_detector(not_done)`` is called once per round with the
    still-pending futures.  The executor hooks its lost-call recovery in
    here: activations that died without writing a status object get
    re-invoked (or declared dead), otherwise ``ALL_COMPLETED`` would block
    forever on a crashed container.

    ``on_round(futures)`` is called right after each round's discovery,
    before the unlock policy is evaluated.  The executor hooks its
    client-crash chaos check in here (it may raise).
    """
    futures = list(futures)
    if storage is None and futures:
        bound = next((f for f in futures if f.bound), None)
        if bound is None:
            raise RuntimeError("wait() needs bound futures or an explicit storage")
        storage = bound._storage
    return _wait(
        futures, ListSource(storage), return_when, poll_interval, timeout,
        on_progress, lost_detector, on_round,
    )

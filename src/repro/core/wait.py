"""The ``wait()`` API method (§4.2).

Three unlock policies, verbatim from the paper:

1. ``ALWAYS`` — check once whether results are available and return
   immediately either way;
2. ``ANY_COMPLETED`` — resume as soon as at least one invocation finished;
3. ``ALL_COMPLETED`` — resume when every result is available in COS.

Completion is discovered with one LIST request per callset per polling
round, not one HEAD per future, which is what makes waiting on thousands of
futures cheap.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro import vtime
from repro.core.errors import ResultTimeoutError
from repro.core.futures import ALL_COMPLETED, ALWAYS, ANY_COMPLETED, ResponseFuture
from repro.core.storage_client import InternalStorage

__all__ = ["wait", "ALWAYS", "ANY_COMPLETED", "ALL_COMPLETED"]


def _poll_round(
    pending: Sequence[ResponseFuture], storage: InternalStorage
) -> None:
    """Mark futures whose status objects now exist (one LIST per callset)."""
    pending_by_callset: dict[tuple[str, str], list[ResponseFuture]] = {}
    for future in pending:
        if not future.status_known:  # a hook may have buried or ingested it
            key = (future.executor_id, future.callset_id)
            pending_by_callset.setdefault(key, []).append(future)
    for (executor_id, callset_id), group in pending_by_callset.items():
        done_ids = storage.list_done_call_ids(executor_id, callset_id)
        if done_ids:
            for future in group:
                if future.call_id in done_ids:
                    future.mark_done()


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

    ``storage`` defaults to the binding of the first future.  ``timeout``
    bounds the blocking policies and raises :class:`ResultTimeoutError`.
    ``on_progress(done_count, total)`` is called once per polling round —
    ``get_result`` drives its progress bar with it.

    ``lost_detector(not_done)`` is called once per polling round with the
    still-pending futures.  The executor hooks its lost-call recovery in
    here: activations that died without writing a status object get
    re-invoked (or declared dead), otherwise ``ALL_COMPLETED`` would block
    forever on a crashed container.

    ``on_round(futures)`` is called right after each polling round, before
    the unlock policy is evaluated.  The executor hooks client-crash chaos
    checks (it may raise) and event-journal status observation in here.
    """
    futures = list(futures)
    if not futures:
        return [], []
    if storage is None:
        bound = next((f for f in futures if f.bound), None)
        if bound is None:
            raise RuntimeError("wait() needs bound futures or an explicit storage")
        storage = bound._storage
    for future in futures:
        if not future.bound:
            future.bind(storage, poll_interval)

    deadline = None if timeout is None else vtime.now() + timeout
    # carried from round to round in the original order, so a round costs
    # O(pending) and callsets are LISTed in the order of their first
    # still-pending future
    not_done = futures
    while True:
        _poll_round(not_done, storage)
        if on_round is not None:
            on_round(futures)
        not_done = [f for f in not_done if not f.status_known]
        done_count = len(futures) - len(not_done)
        if on_progress is not None:
            on_progress(done_count, len(futures))
        if (
            return_when == ALWAYS
            or (return_when == ANY_COMPLETED and done_count)
            or (return_when == ALL_COMPLETED and not not_done)
        ):
            return [f for f in futures if f.status_known], not_done
        if deadline is not None and vtime.now() >= deadline:
            raise ResultTimeoutError(
                f"wait() timed out with {len(not_done)} of "
                f"{len(futures)} futures unfinished"
            )
        if lost_detector is not None:
            lost_detector(not_done)
        vtime.sleep(poll_interval)

"""The durable event journal: an append-once COS log + the client-side writer.

One COS object per record at ``{prefix}/{executor_id}/journal/
{seq:08d}.json``, written with a conditional PUT (``If-None-Match: *``) —
the same at-most-once primitive status commits use — so the log is
append-once: a second driver racing for a slot loses loudly
(:class:`JournalConflictError`) instead of corrupting history.  Replay
is one LIST plus one GET per record.

The :class:`EventJournal` assigns contiguous sequence numbers under a
lock and stamps each record with the virtual time of the append.  All
appends happen from client-side driver code at points that are
serialized by the virtual-time kernel, which is what makes two
same-seed runs produce byte-identical logs (the property the resume
tests pin).
"""

from __future__ import annotations

import threading
from typing import Any, Optional

from repro.core.errors import PyWrenError
from repro.events.records import EventRecord


class JournalConflictError(PyWrenError):
    """Two writers raced for the same journal slot; this append lost.

    Seeing this means another driver owns (or owned) the journal —
    e.g. a presumed-dead client came back while its replacement was
    already appending.  The loser must stop writing and re-read the log.
    """


class EventJournal:
    """The driver's handle on its orchestration log.

    Owns the sequence counter, stamps virtual time and traces every
    append on the ``events`` layer.  One journal per (external) executor;
    in-cloud executors never journal — the client is the single writer.
    """

    def __init__(
        self,
        storage: Any,
        executor_id: str,
        kernel: Any,
        tracer: Any = None,
        start_seq: int = 0,
        alive: Any = None,
    ) -> None:
        self.storage = storage
        self.executor_id = executor_id
        self.kernel = kernel
        self.tracer = tracer
        self._seq = start_seq
        self._lock = threading.Lock()
        #: liveness predicate — a driver killed by client-crash chaos stops
        #: writing: a dead process's appends simply never happen, they must
        #: not race the adopter for journal slots
        self.alive = alive
        #: records appended by *this* process, in order (replay reads the
        #: log instead and also sees a predecessor's records)
        self.appended: list[EventRecord] = []

    def append(self, kind: str, **data: Any) -> Optional[EventRecord]:
        return self.kernel.drive(self.append_steps(kind, **data))

    def append_steps(self, kind: str, **data: Any):
        """Durably append one event; returns the stored record.

        Returns ``None`` without writing when this driver is already dead
        (client-crash chaos): whatever the doomed process was about to log
        is exactly the state the resume protocol must live without.
        """
        if self.alive is not None and not self.alive():
            return None
        with self._lock:
            seq = self._seq
            self._seq += 1
            record = EventRecord(seq=seq, t=self.kernel.now(), kind=kind, data=data)
        # The COS PUT spends *virtual* time; it must happen outside the
        # slot lock.  The kernel only advances the clock when every task
        # is parked in a kernel-aware wait — a second writer stuck on
        # this (real) lock would freeze the very clock the PUT needs.
        text = record.to_json()
        if not (yield from self.storage.append_journal_record_steps(self.executor_id, seq, text)):
            raise JournalConflictError(
                f"journal slot {seq} of {self.executor_id} is already "
                "written — another driver owns this log"
            )
        with self._lock:
            self.appended.append(record)
            self.appended.sort(key=lambda r: r.seq)
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.point(
                "events.append", layer="events", kind=kind, seq=seq, bytes=len(text)
            )
        return record

    def replay(self) -> list[EventRecord]:
        """Re-read the whole log from COS (one LIST, one GET per record)."""
        records = []
        for seq in self.storage.list_journal_seqs(self.executor_id):
            text = self.storage.get_journal_record(self.executor_id, seq)
            if text is not None:
                records.append(EventRecord.from_json(text))
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.point(
                "events.replay", layer="events", n=len(records)
            )
        return records

    # -- construction --------------------------------------------------------
    @classmethod
    def for_executor(cls, executor: Any, start_seq: int = 0) -> "EventJournal":
        """The journal of ``executor``'s id; it stops writing once the
        driver is dead (read through the executor, so a journal built
        before reattach sees the adopter's new chaos epoch)."""
        return cls(
            executor._storage,
            executor.executor_id,
            executor.kernel,
            tracer=getattr(executor.environment, "tracer", None),
            start_seq=start_seq,
            alive=lambda: not executor._client_dead(),
        )

    @classmethod
    def replay_for(cls, executor: Any) -> list[EventRecord]:
        """Replay an executor id's log through a throwaway untraced handle."""
        return cls(executor._storage, executor.executor_id, executor.kernel).replay()

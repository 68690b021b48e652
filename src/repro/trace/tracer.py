"""The :class:`Tracer`: event collection on the virtual clock, cheap enough
to leave on.

One tracer per :class:`~repro.core.environment.CloudEnvironment`; every
layer holds a reference and guards emission with ``tracer is not None and
tracer.enabled`` so a disabled spine costs two attribute loads per site.

An enabled one costs one flat append per event: the seven raw fields
``(t, name, layer, kind, dur, ids, attrs)`` go onto one list in a single
``list.extend`` — atomic under the interpreter lock, so emitters take no
lock — and nothing kept is a container the collector counts: ``attrs``
and explicit ``ids=`` are kept as ``marshal.dumps`` bytes, ambient ids as
the shared dict.  Reading (:meth:`Tracer.events`, :meth:`Tracer.
raw_events`) folds the pending records into :class:`TraceEvent` objects
and keeps the sorted snapshot until the next emission, so the canonical
form is paid for once, by the reader.

Causal ids flow *ambiently*: :meth:`Tracer.bind` sets the head of the
kernel's one ambient context variable (:data:`repro.vtime.kernel.AMBIENT`)
to a new id mapping for the enclosed block.  Every kernel task runs in its
own copy of its spawner's context (:mod:`repro.vtime.kernel`; the same
mechanism ``repro.core.context`` uses), so a spawned task starts with the
ids bound at its spawn, a bind held across a yield follows its task, and a
COS request issued deep inside a running cloud function is automatically
stamped with the job/call/activation ids the controller bound around the
handler.  **An ambient ids dict is never mutated**: ``bind`` builds a new
one, and tasks and events share the one they were handed.
"""

from __future__ import annotations

import contextlib
import marshal
import threading
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional

from repro.trace import events as ev
from repro.vtime.kernel import AMBIENT, Kernel


#: fields of one raw record in ``Tracer._pending``
_FIELDS = 7


def _pack(name: str, values: dict[str, Any]) -> bytes:
    try:
        return marshal.dumps(values)
    except ValueError:
        for key, value in values.items():
            try:
                marshal.dumps(value)
            except ValueError:
                raise TypeError(
                    f"trace event {name!r}: {key}={value!r} is not marshal-encodable"
                ) from None
        raise


class Tracer:
    """Append-only collector of trace events; emission is lock-free.

    Id and attr values are what ``marshal`` encodes (``None``, ``bool``,
    ``int``, ``float``, ``str`` and lists, tuples and dicts of them); an
    emission that packs any other value raises :class:`TypeError`, naming
    the key.
    """

    def __init__(self, kernel: Kernel, enabled: bool = False) -> None:
        self.kernel = kernel
        #: the master switch every emission site checks first
        self.enabled = bool(enabled)
        #: raw records not read yet, ``_FIELDS`` slots each: floats, strings,
        #: bytes and shared dicts — nothing the collector counts
        self._pending: list[Any] = []
        self._lock = threading.Lock()  # readers and subscribe(); never emitters
        self._seen: list[ev.TraceEvent] = []    # materialised, append order
        self._sorted: list[ev.TraceEvent] = []  # the same events, sort_key order
        #: copy-on-write ``(callback, names or None)`` pairs
        self._subscribers: tuple[tuple[Callable, Optional[frozenset]], ...] = ()

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def _record(
        self, t: float, name: str, layer: str, kind: str, dur: Optional[float],
        ids: Optional[Mapping[str, Any]], attrs: dict[str, Any],
    ) -> None:
        ambient = AMBIENT.get()[0]  # the calling code's ids: a shared dict, or None
        if ids:
            ids = _pack(name, {**ambient, **ids} if ambient else ids)
        else:
            ids = ambient
        attrs = _pack(name, attrs) if attrs else None
        self._pending.extend((t, name, layer, kind, dur, ids, attrs))
        for callback, names in self._subscribers:
            if names is None or name in names:
                callback(ev.TraceEvent(t, name, layer, kind, dur, ids, attrs))

    def point(
        self,
        name: str,
        layer: str,
        t: Optional[float] = None,
        ids: Optional[Mapping[str, Any]] = None,
        **attrs: Any,
    ) -> None:
        """Record an instantaneous event (no-op when disabled)."""
        if not self.enabled:
            return
        when = self.kernel.now() if t is None else t
        self._record(when, name, layer, ev.KIND_POINT, None, ids, attrs)

    def span_at(
        self,
        name: str,
        layer: str,
        t0: float,
        t1: float,
        ids: Optional[Mapping[str, Any]] = None,
        **attrs: Any,
    ) -> None:
        """Record a span with explicit endpoints (no-op when disabled)."""
        if not self.enabled:
            return
        self._record(t0, name, layer, ev.KIND_SPAN, max(0.0, t1 - t0), ids, attrs)

    @contextlib.contextmanager
    def span(
        self,
        name: str,
        layer: str,
        ids: Optional[Mapping[str, Any]] = None,
        **attrs: Any,
    ) -> Iterator[None]:
        """Measure the enclosed block as a span on the virtual clock."""
        if not self.enabled:
            yield
            return
        t0 = self.kernel.now()
        try:
            yield
        finally:
            self.span_at(name, layer, t0, self.kernel.now(), ids, **attrs)

    @contextlib.contextmanager
    def bind(self, **ids: Any) -> Iterator[None]:
        """Push ambient causal ids for the current task (and its spawns)."""
        if not self.enabled or not ids:
            yield
            return
        state = AMBIENT.get()
        previous = state[0]
        AMBIENT.set(({**previous, **ids} if previous else dict(ids),) + state[1:])
        try:
            yield
        finally:
            AMBIENT.set((previous,) + AMBIENT.get()[1:])

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------
    def subscribe(
        self,
        callback: Callable[[ev.TraceEvent], None],
        names: Optional[Iterable[str]] = None,
    ) -> Callable[[], None]:
        """Register a live listener; returns an unsubscribe function.

        ``names`` limits it to events of those names: an event is built for
        a listener only when one wants it, so say which.  Listeners run
        synchronously on the emitting task — keep them cheap (the progress
        bar is the canonical subscriber).
        """
        if isinstance(names, str):
            names = (names,)
        entry = (callback, None if names is None else frozenset(names))
        with self._lock:
            self._subscribers += (entry,)

        def _unsubscribe() -> None:
            with self._lock:
                self._subscribers = tuple(
                    e for e in self._subscribers if e is not entry
                )

        return _unsubscribe

    def _fold_pending(self) -> None:
        """Materialise the records emitted since the last read (lock held).
        Emitters may append meanwhile: only the slots copied are dropped."""
        fields = iter(self._pending[:])
        fresh = list(map(ev.TraceEvent, *[fields] * _FIELDS))
        del self._pending[: len(fresh) * _FIELDS]
        self._seen += fresh

    def events(self) -> list[ev.TraceEvent]:
        """All events in deterministic (time, content) order.  The sorted
        snapshot is kept: a read with nothing new emitted sorts nothing."""
        with self._lock:
            self._fold_pending()
            unsorted = self._seen[len(self._sorted):]
            if unsorted:
                self._sorted = ev.sort_events(self._sorted + unsorted)
            return list(self._sorted)

    def raw_events(self) -> list[ev.TraceEvent]:
        """All events in append order (interleaving-dependent)."""
        with self._lock:
            self._fold_pending()
            return list(self._seen)

    def __len__(self) -> int:
        with self._lock:
            return len(self._seen) + len(self._pending) // _FIELDS

    def clear(self) -> None:
        with self._lock:
            del self._pending[:]
            self._seen, self._sorted = [], []

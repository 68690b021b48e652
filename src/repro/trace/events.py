"""The trace event model: structured spans and points on the virtual clock.

Emission is raw and the canonical form is built on read: the tracer records
an event's seven fields with ``ids`` and ``attrs`` as a shared dict or
``marshal`` bytes, and a :class:`TraceEvent` is materialised from them only
when the stream is read.  An event decodes them on first use, holds dicts
and sorts them into ``(key, value)`` tuples whenever they are asked for, so
two runs that produce the same causal history produce *equal* events, and a
deterministically sorted stream is byte-stable across runs of the same seed.
"""

from __future__ import annotations

import marshal
from itertools import groupby
from typing import Any, Iterable, Mapping, Optional, Union

#: the layers of the emulated cloud that emit onto the spine, in stack order
LAYERS = (
    "dag",         # DagScheduler: graph submissions, node spans, burials, retries
    "swarm",       # worker-driven scheduling: counter commits, in-cloud handoffs
    "events",      # event journal: appends, replays, resume reconciliation
    "scan",        # pushdown scans: plans, per-partition selectivity, merges
    "stream",      # micro-batch streaming: ingests, window fires, late events
    "client",      # FunctionExecutor: submissions, invocations, burials, progress
    "gateway",     # CloudFunctionsClient: invoke round trips, 429 throttles
    "controller",  # CloudFunctions: accepted activations, placement, image pulls
    "container",   # cold starts, user-code execution windows, injected fates
    "worker",      # runner phases: deserialize / run / commit
    "cache",       # memory-tier exchange: hits, peer transfers, misses, evicts
    "exchange",    # exchange backends: VM-plane puts/hits/misses, crashes
    "cos",         # object-storage requests with byte counts
    "net",         # raw link round trips
    "chaos",       # injected faults mirrored from the chaos plane
)

#: span/point identity of an event
KIND_SPAN = "span"
KIND_POINT = "point"


_Items = tuple[tuple[str, Any], ...]
_Raw = Union[Mapping[str, Any], _Items, bytes, None]
_KEPT = frozenset((dict, bytes, type(None)))  # kept as given, decoded on use


class TraceEvent:
    """One span or point event on the trace spine.

    ``ids`` carries the causal hierarchy (``executor_id``, ``callset_id``,
    ``call_id``, ``activation_id``, ``attempt`` — whichever the emitting
    layer knows); ``attrs`` carries layer-specific payload (byte counts,
    action names, success flags).  Both read as sorted ``(key, value)``
    tuples so events hash, compare and serialize deterministically.  They
    are held as dicts and sorted when read; a dict passed in is kept, not
    copied (the tracer shares one ambient-ids dict between events), so
    neither it nor the event may be mutated afterwards.  ``marshal`` bytes
    of a dict (what the tracer records) are decoded on first use.
    """

    __slots__ = ("t", "name", "layer", "kind", "dur", "_ids", "_attrs")

    def __init__(
        self, t: float, name: str, layer: str, kind: str = KIND_POINT,
        dur: Optional[float] = None, ids: _Raw = None, attrs: _Raw = None,
    ) -> None:
        self.t = t
        self.name = name
        self.layer = layer
        self.kind = kind
        self.dur = dur
        self._ids = ids if type(ids) in _KEPT else dict(ids)
        self._attrs = attrs if type(attrs) in _KEPT else dict(attrs)

    def _id_map(self) -> dict[str, Any]:
        if type(self._ids) is not dict:
            self._ids = {} if self._ids is None else marshal.loads(self._ids)
        return self._ids

    def _attr_map(self) -> dict[str, Any]:
        if type(self._attrs) is not dict:
            self._attrs = {} if self._attrs is None else marshal.loads(self._attrs)
        return self._attrs

    @property
    def ids(self) -> _Items:
        return tuple(sorted(self._id_map().items()))

    @property
    def attrs(self) -> _Items:
        return tuple(sorted(self._attr_map().items()))

    def _content(self) -> tuple:
        return (self.t, self.name, self.layer, self.kind, self.dur,
                self.ids, self.attrs)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not TraceEvent:
            return NotImplemented
        return self._content() == other._content()

    def __hash__(self) -> int:
        return hash(self._content())

    def __repr__(self) -> str:
        return (
            "TraceEvent(t={!r}, name={!r}, layer={!r}, kind={!r}, dur={!r}, "
            "ids={!r}, attrs={!r})".format(*self._content())
        )

    @property
    def end(self) -> float:
        """Span end time (== ``t`` for points)."""
        return self.t + (self.dur or 0.0)

    def id_dict(self) -> dict[str, Any]:
        return dict(self._id_map())

    def attr_dict(self) -> dict[str, Any]:
        return dict(self._attr_map())

    def get_id(self, key: str, default: Any = None) -> Any:
        return self._id_map().get(key, default)

    def get_attr(self, key: str, default: Any = None) -> Any:
        return self._attr_map().get(key, default)

    def _sort_prefix(self) -> tuple:
        return (
            self.t,
            self.layer,
            self.name,
            self.kind,
            self.dur if self.dur is not None else -1.0,
        )

    def sort_key(self) -> tuple:
        """Deterministic total order independent of emission interleaving.

        Ties on time are broken by content, so an event multiset sorts to
        the same sequence no matter which thread appended first.
        """
        return self._sort_prefix() + (repr(self.ids), repr(self.attrs))


def sort_events(events: Iterable[TraceEvent]) -> list[TraceEvent]:
    """``sorted(events, key=TraceEvent.sort_key)``, paying the key's two
    ``repr`` only among events that tie on everything before them."""
    prefix = TraceEvent._sort_prefix
    ordered: list[TraceEvent] = []
    for _, ties in groupby(sorted(events, key=prefix), prefix):
        run = list(ties)
        if len(run) > 1:
            run.sort(key=lambda e: (repr(e.ids), repr(e.attrs)))
        ordered += run
    return ordered


def span(
    name: str, layer: str, t0: float, t1: float,
    ids: Optional[Mapping[str, Any]] = None,
    attrs: Optional[Mapping[str, Any]] = None,
) -> TraceEvent:
    """Build a span event covering ``[t0, t1]``."""
    return TraceEvent(
        t0, name, layer, KIND_SPAN, max(0.0, t1 - t0),
        dict(ids or ()), dict(attrs or ()),
    )


def point(
    name: str, layer: str, t: float,
    ids: Optional[Mapping[str, Any]] = None,
    attrs: Optional[Mapping[str, Any]] = None,
) -> TraceEvent:
    """Build an instantaneous point event."""
    return TraceEvent(
        t, name, layer, KIND_POINT, None, dict(ids or ()), dict(attrs or ())
    )

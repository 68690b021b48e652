"""Trace exporters: flat JSONL (round-trippable) and Chrome ``trace_event``.

JSONL is the persistence format — one compact, key-sorted JSON object per
event, written in the deterministic :meth:`TraceEvent.sort_key` order so
two runs of the same seed produce byte-identical dumps.  The Chrome format
loads directly in Perfetto / ``chrome://tracing``: spans become complete
("X") events and points become instants ("i"), with one track per layer.
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.trace.events import (
    KIND_POINT, KIND_SPAN, LAYERS, TraceEvent, sort_events,
)


# ----------------------------------------------------------------------
# Flat JSONL
# ----------------------------------------------------------------------

def event_to_dict(event: TraceEvent) -> dict:
    """Plain-dict form of one event (stable keys, dict-valued ids/attrs)."""
    out: dict = {
        "t": event.t,
        "name": event.name,
        "layer": event.layer,
        "kind": event.kind,
    }
    if event.dur is not None:
        out["dur"] = event.dur
    ids, attrs = event.id_dict(), event.attr_dict()
    if ids:
        out["ids"] = ids
    if attrs:
        out["attrs"] = attrs
    return out


def event_from_dict(data: dict) -> TraceEvent:
    """Inverse of :func:`event_to_dict`."""
    return TraceEvent(
        t=data["t"],
        name=data["name"],
        layer=data["layer"],
        kind=data.get("kind", KIND_POINT),
        dur=data.get("dur"),
        ids=data.get("ids"),
        attrs=data.get("attrs"),
    )


def to_jsonl(events: Iterable[TraceEvent]) -> str:
    """Serialize events to deterministic JSON-lines text."""
    lines = [
        json.dumps(event_to_dict(e), sort_keys=True, separators=(",", ":"))
        for e in sort_events(events)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def from_jsonl(text: str) -> list[TraceEvent]:
    """Parse JSON-lines text back into events (blank lines ignored)."""
    events = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            events.append(event_from_dict(json.loads(line)))
    return events


# ----------------------------------------------------------------------
# Chrome trace_event JSON (Perfetto / chrome://tracing)
# ----------------------------------------------------------------------

def _tid(layer: str) -> int:
    try:
        return LAYERS.index(layer)
    except ValueError:
        return len(LAYERS)


def to_chrome_trace(events: Iterable[TraceEvent]) -> dict:
    """Build a Chrome ``trace_event`` document from the event stream.

    Virtual seconds map to trace microseconds; each layer gets its own
    thread track, named via ``thread_name`` metadata.
    """
    ordered = sort_events(events)
    trace_events: list[dict] = []
    seen_layers: set[str] = set()
    for event in ordered:
        seen_layers.add(event.layer)
        record: dict = {
            "name": event.name,
            "cat": event.layer,
            "ts": event.t * 1e6,
            "pid": 1,
            "tid": _tid(event.layer),
            "args": {**event.id_dict(), **event.attr_dict()},
        }
        if event.kind == KIND_SPAN:
            record["ph"] = "X"
            record["dur"] = (event.dur or 0.0) * 1e6
        else:
            record["ph"] = "i"
            record["s"] = "t"
        trace_events.append(record)
    metadata = [
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 1,
            "tid": _tid(layer),
            "args": {"name": layer},
        }
        for layer in LAYERS
        if layer in seen_layers
    ]
    return {
        "traceEvents": metadata + trace_events,
        "displayTimeUnit": "ms",
    }


def write_chrome_trace(events: Iterable[TraceEvent], path: str) -> None:
    """Write a Perfetto-loadable trace file to ``path``."""
    document = to_chrome_trace(events)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, indent=1, sort_keys=True)
        fh.write("\n")

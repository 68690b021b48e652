"""Micro-batch streaming: windowed map_reduce over arriving objects.

Serverless "streaming" on a COS substrate is micro-batching: a source
appends objects to a bucket on a schedule (virtual time makes the schedule
exact and free), and a driver turns every window of event time into one
DAG — map nodes per source object, one reduce node per window — submitted
the moment the *watermark* passes the window's end.

The pieces:

* :class:`StreamSource` — a pre-planned sequence of ``(arrival, key,
  event_time, payload)`` batches; :meth:`StreamSource.synthetic` builds a
  deterministic one with configurable out-of-orderness and late stragglers;
* :func:`windowed_map_reduce` — the driver.  Windows are
  ``[k*slide, k*slide + window)``; the watermark trails the maximum event
  time seen by ``allowed_lateness_s``.  An object arriving for a window
  that already fired is *late*: policy ``"drop"`` records it,
  ``"refire"`` resubmits the window with the straggler included (a
  revised :class:`WindowResult`);
* **partial reuse** — with ``slide < window`` consecutive windows share
  source objects.  Each object's map partial is computed once and adopted
  into later window DAGs as an external node, so overlapping windows
  re-read the same small result object — which the ``cached-cos``
  exchange tier serves from memory
  (``tests/bench/test_workloads_smoke.py`` pins the hit counts).

Ingests, fires, and late events are stamped on the ``stream`` trace layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.core import context as ambient
from repro.core import serializer
from repro.vtime import now, sleep


@dataclass(frozen=True)
class StreamBatch:
    """One object the source will append."""

    arrival_s: float
    key: str
    event_time_s: float
    payload: Any


@dataclass
class WindowResult:
    """The outcome of one fired window."""

    index: int
    start_s: float
    end_s: float
    value: Any
    keys: tuple[str, ...]
    reused_partials: int
    late_dropped: tuple[str, ...] = ()
    revision: int = 0


def windows_for(
    event_time_s: float, window_s: float, slide_s: float
) -> list[int]:
    """Indices ``k`` with ``k*slide <= t < k*slide + window`` (k >= 0)."""
    if event_time_s < 0:
        raise ValueError("event time must be non-negative")
    k_max = int(event_time_s // slide_s)
    k_min = max(0, int((event_time_s - window_s) // slide_s) + 1)
    # floor() via int() mis-rounds exact boundaries: correct both ends
    while k_min * slide_s + window_s <= event_time_s:
        k_min += 1
    while (k_max + 1) * slide_s <= event_time_s:
        k_max += 1
    return list(range(k_min, k_max + 1))


class StreamSource:
    """A virtual-time object source: appends ``batches`` to ``bucket``."""

    def __init__(self, bucket: str, batches: list[StreamBatch]) -> None:
        self.bucket = bucket
        self.batches = sorted(
            batches, key=lambda b: (b.arrival_s, b.key)
        )
        keys = [b.key for b in self.batches]
        if len(set(keys)) != len(keys):
            raise ValueError("stream batch keys must be unique")

    @staticmethod
    def synthetic(
        n_objects: int,
        period_s: float,
        *,
        bucket: str = "stream",
        seed: int = 7,
        values_per_object: int = 32,
        jitter_s: float = 0.0,
        late_every: int = 0,
        late_by_s: float = 0.0,
    ) -> "StreamSource":
        """A deterministic synthetic stream.

        Object ``i`` has event time ``i * period_s`` and payload
        ``values_per_object`` seeded random ints.  Arrival is event time
        plus uniform jitter in ``[0, jitter_s]``; every ``late_every``-th
        object (when > 0) additionally arrives ``late_by_s`` late — the
        stragglers the watermark machinery exists for.
        """
        import hashlib
        import random

        batches = []
        for i in range(n_objects):
            digest = hashlib.sha256(f"stream:{seed}:{i}".encode()).digest()
            rng = random.Random(digest)
            event_time = i * period_s
            arrival = event_time + (rng.random() * jitter_s)
            if late_every > 0 and i > 0 and i % late_every == 0:
                arrival += late_by_s
            batches.append(
                StreamBatch(
                    arrival_s=arrival,
                    key=f"events/{i:06d}.bin",
                    event_time_s=event_time,
                    payload=[rng.randint(0, 1000) for _ in range(values_per_object)],
                )
            )
        return StreamSource(bucket, batches)


def _make_stream_map(bucket: str, map_function: Callable[[Any], Any]):
    def stream_map(key: str):
        ctx = ambient.require_context()
        data = ctx.execution_context.cos.get_object(bucket, key)
        return map_function(serializer.deserialize(data))

    return stream_map


class _Window:
    __slots__ = (
        "index", "keys", "fired", "future", "reused",
        "late_dropped", "revision",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.keys: list[str] = []
        self.fired = False
        self.future = None
        self.reused = 0
        self.late_dropped: list[str] = []
        self.revision = -1  # first fire is revision 0


def windowed_map_reduce(
    executor,
    source: StreamSource,
    map_function: Callable[[Any], Any],
    reduce_function: Callable[[list[Any]], Any],
    *,
    window_s: float,
    slide_s: Optional[float] = None,
    allowed_lateness_s: float = 0.0,
    late_policy: str = "drop",
    reuse_partials: bool = True,
    retries: Optional[int] = None,
) -> list[WindowResult]:
    """Consume a :class:`StreamSource` as windowed micro-batches.

    Blocks (in virtual time) until the source is exhausted and every
    window's DAG has completed; returns :class:`WindowResult` objects in
    window order.  Windows that never saw an object are not reported.

    With ``reuse_partials=True`` (default) each object's map partial is
    computed by the first window that fires over it; later overlapping
    windows adopt the already-submitted future as an external DAG node
    instead of re-running the map.
    """
    if late_policy not in ("drop", "refire"):
        raise ValueError("late_policy must be 'drop' or 'refire'")
    if window_s <= 0:
        raise ValueError("window_s must be positive")
    slide = slide_s if slide_s is not None else window_s
    if slide <= 0:
        raise ValueError("slide_s must be positive")
    tracer = executor.tracer
    if tracer is not None and not tracer.enabled:
        tracer = None

    executor.environment.storage.create_bucket(source.bucket, exist_ok=True)
    stream_map = _make_stream_map(source.bucket, map_function)
    windows: dict[int, _Window] = {}
    partial_futures: dict[str, Any] = {}
    max_event_time = float("-inf")

    def _fire(win: _Window) -> None:
        from repro.dag import DagBuilder, DagScheduler

        builder = DagBuilder()
        inputs = []
        reused = 0
        fresh: list[tuple[str, Any]] = []
        for key in win.keys:
            if reuse_partials and key in partial_futures:
                inputs.append(
                    builder.external(
                        partial_futures[key], name=f"partial:{key}", stage="map"
                    )
                )
                reused += 1
            else:
                node = builder.call(
                    stream_map, key, name=f"map:{key}", stage="map",
                    fusable=False,
                )
                inputs.append(node)
                fresh.append((key, node))
        reduce_node = builder.reduce(
            reduce_function,
            inputs,
            name=f"window:{win.index}",
            stage="reduce",
            fusable=False,
        )
        run = DagScheduler(executor, label="W", retries=retries).submit(
            builder.build(fuse=False)
        )
        if reuse_partials:
            for key, node in fresh:
                partial_futures[key] = run.expose(node)
        win.future = run.expose(reduce_node)
        win.fired = True
        win.reused = reused
        win.revision += 1
        if tracer is not None:
            tracer.point(
                "stream.fire",
                "stream",
                executor.kernel.now(),
                window=win.index,
                start=win.index * slide,
                end=win.index * slide + window_s,
                objects=len(win.keys),
                reused=reused,
                revision=win.revision,
            )

    def _fire_ready(watermark: float) -> None:
        for k in sorted(windows):
            win = windows[k]
            if not win.fired and win.keys and k * slide + window_s <= watermark:
                _fire(win)

    cos = executor._cos
    for batch in source.batches:
        delay = batch.arrival_s - now()
        if delay > 0:
            sleep(delay)
        cos.put_object(
            source.bucket,
            batch.key,
            serializer.serialize(batch.payload),
            metadata={"event_time": repr(batch.event_time_s)},
        )
        max_event_time = max(max_event_time, batch.event_time_s)
        watermark = max_event_time - allowed_lateness_s
        if tracer is not None:
            tracer.point(
                "stream.ingest",
                "stream",
                executor.kernel.now(),
                key=batch.key,
                event_time=batch.event_time_s,
                watermark=watermark,
            )
        for k in windows_for(batch.event_time_s, window_s, slide):
            win = windows.setdefault(k, _Window(k))
            if win.fired:
                if tracer is not None:
                    tracer.point(
                        "stream.late",
                        "stream",
                        executor.kernel.now(),
                        key=batch.key,
                        window=k,
                        event_time=batch.event_time_s,
                        watermark=watermark,
                        policy=late_policy,
                    )
                if late_policy == "drop":
                    win.late_dropped.append(batch.key)
                else:
                    win.keys.append(batch.key)
                    _fire(win)  # refire with the straggler included
            else:
                win.keys.append(batch.key)
        _fire_ready(watermark)

    # source exhausted: the watermark advances past every open window
    _fire_ready(float("inf"))

    results = []
    for k in sorted(windows):
        win = windows[k]
        if win.future is None:
            continue
        value = executor.get_result(win.future)
        results.append(
            WindowResult(
                index=win.index,
                start_s=win.index * slide,
                end_s=win.index * slide + window_s,
                value=value,
                keys=tuple(win.keys),
                reused_partials=win.reused,
                late_dropped=tuple(win.late_dropped),
                revision=win.revision,
            )
        )
    return results

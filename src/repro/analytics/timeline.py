"""Execution-timeline rendering, in the style of the paper's Figs. 2 and 3.

Given activation records, trace events, or raw ``(start, end)`` intervals,
renders an SVG with one horizontal gray line per function execution,
stacked by start order, plus the black total-concurrency curve on a
secondary axis — the exact visual language of Fig. 3.
"""

from __future__ import annotations

from html import escape
from typing import Iterable, Optional, Sequence

_WIDTH = 900
_HEIGHT = 520
_MARGIN = 48


def concurrency_timeline(
    intervals: Iterable[tuple[float, float]],
    *,
    t0: Optional[float] = None,
) -> list[tuple[float, int]]:
    """Concurrent-execution counts over time from (start, end) intervals.

    This is how Figs. 2 and 3's black "total concurrent" lines are computed
    from activation records.  Sweeps the sorted start/end events directly —
    one output sample per time the level changes — so the cost scales with
    the number of intervals, not the horizon, and no float drift accumulates
    the way fixed-step sampling does.

    Returns ``(t - origin, level)`` pairs: the level at the origin (``t0``
    or the earliest event), then one pair per subsequent change point.
    """
    intervals = list(intervals)
    if not intervals:
        return []
    deltas: dict[float, int] = {}
    for start, end in intervals:
        deltas[start] = deltas.get(start, 0) + 1
        deltas[end] = deltas.get(end, 0) - 1
    changes = sorted(deltas.items())
    origin = t0 if t0 is not None else changes[0][0]
    level = 0
    timeline: list[tuple[float, int]] = []
    for t, delta in changes:
        level += delta
        if t <= origin:
            # everything at or before the origin folds into the first sample
            if timeline:
                timeline[0] = (0.0, level)
            else:
                timeline.append((0.0, level))
        else:
            if not timeline:
                timeline.append((0.0, 0))
            timeline.append((t - origin, level))
    return timeline


#: per-stage line colors for the DAG-grouped timeline, cycled in order
_STAGE_COLORS = ("#2563eb", "#16a34a", "#ca8a04", "#dc2626", "#7c3aed", "#0891b2")


def _render(
    bands: Sequence[tuple[Optional[str], str, int, Sequence[tuple[float, float]]]],
    heading: str,
) -> str:
    """The one SVG timeline: stacked bands of rows + the concurrency curve.

    ``bands`` is an ordered list of ``(label, color, stroke_width,
    intervals)``; rows are stacked band by band in each band's sorted
    order, a non-empty band with a label gets it printed at its top row,
    and the black total-concurrency curve spans all bands.  ``heading`` is
    the (already escaped) title line.
    """
    bands = [(label, color, width, sorted(ivs)) for label, color, width, ivs in bands]
    all_intervals = [iv for *_band, ivs in bands for iv in ivs]
    header = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">'
        f'<rect width="100%" height="100%" fill="#ffffff"/>'
        f'<text x="{_MARGIN}" y="24" font-size="15" '
        f'font-family="sans-serif">{heading}</text>'
    )
    if not all_intervals:
        return header + "</svg>"

    t0 = min(start for start, _ in all_intervals)
    t1 = max(end for _, end in all_intervals)
    span = (t1 - t0) or 1.0
    n = len(all_intervals)

    def _x(t: float) -> float:
        return _MARGIN + (t - t0) / span * (_WIDTH - 2 * _MARGIN)

    def _y_row(i: int) -> float:
        return _HEIGHT - _MARGIN - (i + 1) / n * (_HEIGHT - 2 * _MARGIN)

    parts: list[str] = []
    row = 0
    for label, color, width, intervals in bands:
        for start, end in intervals:
            y = _y_row(row)
            parts.append(
                f'<line x1="{_x(start):.1f}" y1="{y:.1f}" '
                f'x2="{_x(end):.1f}" y2="{y:.1f}" '
                f'stroke="{color}" stroke-width="{width}"/>'
            )
            row += 1
        if label is not None and intervals:
            parts.append(
                f'<text x="4" y="{_y_row(row - 1) + 4:.1f}" font-size="11" '
                f'fill="{color}" font-family="sans-serif">'
                f"{escape(str(label), quote=False)}</text>"
            )

    timeline = concurrency_timeline(all_intervals, t0=t0)
    peak = max(level for _t, level in timeline) or 1

    def _xy(t: float, level: int) -> str:
        return (
            f"{_x(t0 + t):.1f},"
            f"{_HEIGHT - _MARGIN - level / peak * (_HEIGHT - 2 * _MARGIN):.1f}"
        )

    # step curve: hold each level until the next change point
    vertices = [_xy(*timeline[0])]
    for (_t, held), (t, level) in zip(timeline, timeline[1:]):
        vertices += [_xy(t, held), _xy(t, level)]
    curve = (
        f'<polyline points="{" ".join(vertices)}" fill="none" stroke="#111111" '
        f'stroke-width="2"/>'
    )
    axis = (
        f'<line x1="{_MARGIN}" y1="{_HEIGHT - _MARGIN}" x2="{_WIDTH - _MARGIN}" '
        f'y2="{_HEIGHT - _MARGIN}" stroke="#333333"/>'
        f'<text x="{_MARGIN}" y="{_HEIGHT - 14}" font-size="12" '
        f'font-family="sans-serif">0s</text>'
        f'<text x="{_WIDTH - _MARGIN - 40}" y="{_HEIGHT - 14}" font-size="12" '
        f'font-family="sans-serif">{span:.0f}s</text>'
        f'<text x="{_WIDTH - _MARGIN - 120}" y="40" font-size="12" '
        f'font-family="sans-serif">peak concurrency: {peak}</text>'
    )
    return header + "".join(parts) + curve + axis + "</svg>"


def render_execution_timeline(
    intervals: Sequence[tuple[float, float]],
    title: str = "Function executions",
) -> str:
    """Render execution intervals + concurrency curve as an SVG document.

    One unlabelled gray band.
    """
    intervals = list(intervals)
    return _render(
        [(None, "#bbbbbb", 1, intervals)],
        f"{escape(str(title), quote=False)} ({len(intervals)} functions)",
    )


def render_staged_timeline(
    groups: Sequence[tuple[str, Sequence[tuple[float, float]]]],
    title: str = "DAG execution",
) -> str:
    """Fig. 3-style timeline with rows grouped (and colored) by DAG stage.

    ``groups`` is an ordered list of ``(stage_name, intervals)``; rows are
    stacked stage by stage with a label per band, and the black total-
    concurrency curve spans all stages.  This is what ``python -m repro
    trace --svg`` renders when the trace carries ``dag.node`` spans.
    """
    groups = [(name, list(intervals)) for name, intervals in groups]
    nodes = sum(len(intervals) for _name, intervals in groups)
    return _render(
        [
            (name, _STAGE_COLORS[index % len(_STAGE_COLORS)], 2, intervals)
            for index, (name, intervals) in enumerate(groups)
        ],
        f"{escape(str(title), quote=False)} ({nodes} nodes, {len(groups)} stages)",
    )


def dag_stage_groups(events: Iterable) -> list[tuple[str, list[tuple[float, float]]]]:
    """Stage-grouped ``(start, end)`` windows from ``dag.node`` trace spans.

    Stages are ordered by earliest node start; returns ``[]`` when the
    trace has no DAG spans (callers fall back to the flat timeline).
    """
    by_stage: dict[str, list[tuple[float, float]]] = {}
    for event in events:
        if event.name != "dag.node" or event.kind != "span":
            continue
        stage = str(event.get_attr("stage", "dag"))
        by_stage.setdefault(stage, []).append((event.t, event.end))
    return sorted(
        ((stage, ivs) for stage, ivs in by_stage.items()),
        key=lambda item: min(start for start, _ in item[1]),
    )


def intervals_from_records(records: Iterable, action_prefix: Optional[str] = None):
    """Extract (start, end) pairs from finished activation records."""
    out = []
    for record in records:
        if action_prefix is not None and not record.action_name.startswith(
            action_prefix
        ):
            continue
        if record.start_time is not None and record.end_time is not None:
            out.append((record.start_time, record.end_time))
    return out

"""Graph rendering: Graphviz DOT text and a self-contained SVG layout.

The SVG needs no graphviz binary: nodes are laid out on a grid by
topological level (one row per level, builder order within a row), which
is exact for the stage-shaped graphs the builder produces.

Fused linear-chain groups (``build(fuse=True)``) render annotated: the
node label carries a ``⊕ fused ×N`` line and the box gets a double
border, so a collapsed ``f -> g -> h`` chain is visibly one activation.
Given a swarm trace (``invoked_by`` from :func:`swarm_invoked_by`), DOT
edges are additionally colored by the *invoking site* — the invoker node
whose worker fired the dependent — with the firing edge drawn bold, so
"who invoked whom" is readable straight off the graph.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from html import escape

from repro.dag.graph import Dag
from repro.dag.node import DagNode

#: fill colors cycled per topological level (matches the trace SVG accents)
_LEVEL_FILLS = ("#dbeafe", "#dcfce7", "#fef9c3", "#fde2e2", "#ede9fe", "#e0f2fe")

#: edge colors cycled per invoking site (invoker node id) in swarm renders
_SITE_COLORS = (
    "#2563eb", "#16a34a", "#d97706", "#dc2626", "#7c3aed", "#0891b2",
    "#be185d", "#65a30d",
)


def _fill(level: int) -> str:
    return _LEVEL_FILLS[level % len(_LEVEL_FILLS)]


def _site_color(invoker_id: int) -> str:
    return _SITE_COLORS[invoker_id % len(_SITE_COLORS)]


def _dot_quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def swarm_invoked_by(events: Iterable[Any]) -> dict[str, dict[str, Any]]:
    """Extract "who invoked whom" from a swarm trace.

    Accepts :class:`~repro.trace.events.TraceEvent` objects (e.g. from
    ``repro.trace.export.from_jsonl``) and returns
    ``{node_display_name: {"by": firing_node_name, "invoker_id": site}}``
    for every ``swarm.invoke`` span — the mapping :func:`to_dot` takes to
    color edges by invoking site.
    """
    invoked: dict[str, dict[str, Any]] = {}
    for event in events:
        if event.layer != "swarm" or event.name != "swarm.invoke":
            continue
        node = event.get_attr("node")
        if node is None:
            continue
        invoked[node] = {
            "by": event.get_attr("by"),
            "invoker_id": event.get_attr("invoker_id"),
        }
    return invoked


def _edge_attrs(
    dep: DagNode, node: DagNode, invoked_by: Optional[dict[str, dict[str, Any]]]
) -> str:
    if not invoked_by:
        return ""
    entry = invoked_by.get(node.display_name)
    if entry is None or entry.get("invoker_id") is None:
        return ""
    invoker = entry["invoker_id"]
    attrs = [f'color="{_site_color(invoker)}"']
    if entry.get("by") == dep.display_name:
        # the edge whose worker actually fired this node
        attrs.append("penwidth=2.2")
        attrs.append(f'label={_dot_quote(f"inv{invoker}")}')
        attrs.append(f'fontcolor="{_site_color(invoker)}"')
    else:
        attrs.append('style="dashed"')
    return " [" + ", ".join(attrs) + "]"


def to_dot(
    dag: Dag,
    invoked_by: Optional[dict[str, dict[str, Any]]] = None,
) -> str:
    """Graphviz source for ``dag``; stages become same-rank clusters.

    ``invoked_by`` (see :func:`swarm_invoked_by`) colors each in-edge of
    a worker-fired node by its invoking site and bolds the firing edge.
    """
    lines = [
        "digraph dag {",
        "  rankdir=TB;",
        '  node [shape=box, style="rounded,filled", fontname="Helvetica"];',
    ]
    for level_nodes in dag.levels():
        for node in level_nodes:
            label = f"{node.display_name}\\n[{dag.stage_name(node)}]"
            extra = ""
            if len(node.fns) > 1:
                label += f"\\n⊕ fused ×{len(node.fns)}"
                extra = ", peripheries=2"
            lines.append(
                f"  n{node.node_id} [label={_dot_quote(label)}"
                f', fillcolor="{_fill(node.level)}"{extra}];'
            )
        if len(level_nodes) > 1:
            rank = " ".join(f"n{n.node_id};" for n in level_nodes)
            lines.append(f"  {{ rank=same; {rank} }}")
    for node in dag.nodes:
        for dep in node.deps:
            attrs = _edge_attrs(dep, node, invoked_by)
            lines.append(f"  n{dep.node_id} -> n{node.node_id}{attrs};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_svg(dag: Dag) -> str:
    """Standalone SVG of the graph, one row per topological level."""
    box_w, box_h = 150, 44
    gap_x, gap_y = 30, 56
    margin = 24
    levels = dag.levels()
    widest = max((len(row) for row in levels), default=0)
    width = margin * 2 + max(widest, 1) * box_w + max(widest - 1, 0) * gap_x
    height = margin * 2 + len(levels) * box_h + max(len(levels) - 1, 0) * gap_y

    centers: dict[int, tuple[float, float]] = {}
    boxes: list[str] = []
    for row_index, row in enumerate(levels):
        row_width = len(row) * box_w + (len(row) - 1) * gap_x
        x0 = (width - row_width) / 2
        y = margin + row_index * (box_h + gap_y)
        for col, node in enumerate(row):
            x = x0 + col * (box_w + gap_x)
            centers[node.node_id] = (x + box_w / 2, y + box_h / 2)
            title = escape(
                f"{node.display_name} [{dag.stage_name(node)}]", quote=False
            )
            stroke_w = ""
            if len(node.fns) > 1:
                title = escape(
                    f"{node.display_name} [{dag.stage_name(node)}]"
                    f" — fused ×{len(node.fns)}",
                    quote=False,
                )
                stroke_w = ' stroke-width="2.5"'
            boxes.append(
                f'<g><rect x="{x:.1f}" y="{y:.1f}" width="{box_w}" '
                f'height="{box_h}" rx="8" fill="{_fill(node.level)}" '
                f'stroke="#64748b"{stroke_w}/>'
                f'<text x="{x + box_w / 2:.1f}" y="{y + box_h / 2 - 3:.1f}" '
                f'text-anchor="middle" font-size="12" '
                f'font-family="Helvetica,sans-serif">'
                f"{escape(_clip(node.display_name), quote=False)}</text>"
                f'<text x="{x + box_w / 2:.1f}" y="{y + box_h / 2 + 13:.1f}" '
                f'text-anchor="middle" font-size="10" fill="#475569" '
                f'font-family="Helvetica,sans-serif">'
                f"{escape(dag.stage_name(node), quote=False)}</text>"
                f"<title>{title}</title></g>"
            )

    edges: list[str] = []
    for node in dag.nodes:
        x1, y1 = centers[node.node_id]
        for dep in node.deps:
            x0, y0 = centers[dep.node_id]
            edges.append(
                f'<line x1="{x0:.1f}" y1="{y0 + box_h / 2:.1f}" '
                f'x2="{x1:.1f}" y2="{y1 - box_h / 2:.1f}" '
                f'stroke="#94a3b8" marker-end="url(#arrow)"/>'
            )

    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">'
        "<defs><marker id=\"arrow\" viewBox=\"0 0 10 10\" refX=\"9\" "
        "refY=\"5\" markerWidth=\"7\" markerHeight=\"7\" orient=\"auto\">"
        '<path d="M0,0 L10,5 L0,10 z" fill="#94a3b8"/></marker></defs>'
        f'<rect width="{width}" height="{height}" fill="white"/>'
        + "".join(edges)
        + "".join(boxes)
        + "</svg>"
    )


def _clip(text: str, limit: int = 20) -> str:
    return text if len(text) <= limit else text[: limit - 1] + "…"


def describe(dag: Dag) -> str:
    """One-line-per-node text rendering (used by the CLI)."""
    lines = []
    for row_index, row in enumerate(dag.levels()):
        names = ", ".join(_node_desc(dag, node) for node in row)
        lines.append(f"level {row_index}: {names}")
    return "\n".join(lines)


def _node_desc(dag: Dag, node: DagNode) -> str:
    deps = (
        "(" + ",".join(str(d.node_id) for d in node.deps) + ")"
        if node.deps
        else ""
    )
    return f"#{node.node_id} {node.display_name}{deps}"

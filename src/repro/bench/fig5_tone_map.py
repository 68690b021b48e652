"""Fig. 5 — the New York City tone map.

"Tone analysis of the airbnb reviews of the city of New York.  Green
points are good comments, blue points are neutral comments and red points
are bad comments."  We regenerate the artifact: run the §6.4 map/reduce
over the New York object only and render its SVG scatter map.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analytics.geoplot import TONE_COLORS, render_city_map
from repro.analytics.tone import NEGATIVE, NEUTRAL, POSITIVE, ToneStats
from repro.bench.reporting import Table
from repro.bench.table3_airbnb import make_tone_map
from repro.config import InvokerMode
from repro.core.environment import CloudEnvironment
from repro.datasets import airbnb
from repro.net.latency import LatencyModel
from repro.utils.sizes import format_size, parse_size

CITY = "new-york"

#: the paper's legend: "Green points are good comments, blue points are
#: neutral comments and red points are bad comments"
PAPER_LEGEND = {POSITIVE: "green", NEUTRAL: "blue", NEGATIVE: "red"}


@dataclass
class ToneMapResult:
    """The rendered figure plus its summary statistics."""

    city: str
    svg: str
    points: int
    comments_estimated: int
    tone_counts: dict[str, int]
    map_executors: int
    exec_time_s: float


def run_fig5(
    chunk_size="16MB", sample_cap: int = 32_768, seed: int = 42
) -> ToneMapResult:
    """Analyze the New York reviews and render the Fig. 5 map."""
    env = CloudEnvironment.create(client_latency=LatencyModel.wan(), seed=seed)
    airbnb.load_dataset(env.storage)
    chunk = parse_size(chunk_size)

    def reduce_to_map(results: list[dict]) -> dict:
        merged = ToneStats()
        points: list[tuple[float, float, str]] = []
        for partial in results:
            merged.merge(partial["stats"])
            points.extend(partial["points"])
        svg = render_city_map(CITY, points)
        return {
            "svg": svg,
            "points": len(points),
            "comments": merged.comments,
            "counts": dict(merged.counts),
        }

    def main():
        import repro

        executor = repro.ibm_cf_executor(invoker_mode=InvokerMode.MASSIVE)
        t0 = env.now()
        reducer = executor.map_reduce(
            make_tone_map(sample_cap),
            f"cos://{airbnb.DEFAULT_BUCKET}/reviews/{CITY}.csv",
            reduce_to_map,
            chunk_size=chunk,
        )
        summary = executor.get_result(reducer)
        elapsed = env.now() - t0
        maps = sum(1 for f in executor.futures if f.callset_id.startswith("M"))
        return summary, maps, elapsed

    summary, maps, elapsed = env.run(main)
    return ToneMapResult(
        city=CITY,
        svg=summary["svg"],
        points=summary["points"],
        comments_estimated=summary["comments"],
        tone_counts=summary["counts"],
        map_executors=maps,
        exec_time_s=elapsed,
    )


def report(result: ToneMapResult) -> Table:
    table = Table(["quantity", "measured", "paper"])
    table.add_row(
        "review object", format_size(airbnb.city_sizes()[result.city]), None
    )
    table.add_row("map executors", result.map_executors, None)
    table.add_row("exec. time (s)", f"{result.exec_time_s:.1f}", None)
    table.add_row("comments (est.)", f"{result.comments_estimated:,}", None)
    table.add_row("plotted points", result.points, None)
    total = sum(result.tone_counts.values()) or 1
    for tone, label in ((POSITIVE, "good"), (NEUTRAL, "neutral"), (NEGATIVE, "bad")):
        share = 100.0 * result.tone_counts.get(tone, 0) / total
        table.add_row(
            f"{label} comments",
            f"{share:.1f}% ({TONE_COLORS[tone]})",
            f"{PAPER_LEGEND[tone]} points",
        )
    return table

"""Table 3 — the real MapReduce job (§6.4).

33 city review datasets (1.9 GB total) in COS are tone-analyzed with
``map_reduce`` + ``reducer_one_per_object=True`` (one reducer renders one
city map), sweeping the partitioner chunk size 64 MB → 2 MB.  Reproduced
columns: concurrency (number of map executors, a pure function of the
city-size distribution), execution time, and speedup over the sequential
Watson-Studio-notebook baseline (5,160 s in the paper).

Map functions really read (a sample of) their partition and really classify
review lines; the partition's full-size compute cost is charged through the
calibrated model (DESIGN.md §5), so the *shape* of the table — sub-linear
concurrency growth, >100x top speedup, diminishing returns per halving —
emerges from the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.bench.reporting import Table
from repro.config import InvokerMode
from repro.core import cost
from repro.core.environment import CloudEnvironment
from repro.datasets import airbnb
from repro.faas.limits import SystemLimits
from repro.net.latency import LatencyModel
from repro.utils.sizes import parse_size

#: Table 3's chunk-size sweep
CHUNK_SIZES_MB = (64, 32, 16, 8, 4, 2)

#: paper-reported rows: chunk MB -> (concurrency, exec seconds, speedup)
PAPER_ROWS = {
    64: (47, 471, 10.95),
    32: (72, 297, 17.37),
    16: (129, 181, 28.51),
    8: (242, 112, 46.07),
    4: (471, 63, 81.90),
    2: (923, 38, 135.79),
}

#: paper's sequential baseline: "1 hour and 26 minutes"
PAPER_SEQUENTIAL_S = 5160.0

#: bytes of real content each map function samples for classification
DEFAULT_SAMPLE_CAP = 16_384


def make_tone_map(sample_cap: int = DEFAULT_SAMPLE_CAP):
    """Build the map function: tone-analyze one partition.

    Reads up to ``sample_cap`` real bytes (the rest of the partition is
    charged to the virtual clock by the cost model) and extrapolates the
    tone counts to the partition size.
    """

    def tone_map(partition) -> dict:
        import repro
        from repro.analytics.tone import analyze_csv_reviews as _analyze
        from repro.core import cost as _cost

        data = partition.read(materialize_cap=sample_cap)
        stats, points = _analyze(data)
        sampled = min(partition.size, sample_cap)
        scale = partition.size / sampled if sampled else 0.0
        repro.sleep(_cost.tone_map_seconds(partition.size))
        return {
            "key": partition.key,
            "bytes": partition.size,
            "stats": stats.scaled(scale),
            # a bounded sample of points for the city map
            "points": points[:150],
        }

    return tone_map


def tone_reduce(results: list[dict]) -> dict:
    """Reduce function: merge one city's partials and render its map."""
    import repro
    from repro.analytics.geoplot import render_city_map as _render
    from repro.analytics.tone import ToneStats as _ToneStats
    from repro.core import cost as _cost

    merged = _ToneStats()
    points: list[tuple[float, float, str]] = []
    total_bytes = 0
    key = results[0]["key"]
    for partial in results:
        merged.merge(partial["stats"])
        points.extend(partial["points"])
        total_bytes += partial["bytes"]
    svg = _render(key, points)
    repro.sleep(_cost.render_seconds(1))
    return {
        "key": key,
        "bytes": total_bytes,
        "comments": merged.comments,
        "counts": dict(merged.counts),
        "dominant": merged.dominant(),
        "svg_bytes": len(svg),
    }


@dataclass
class AirbnbRow:
    """One measured row of Table 3."""

    chunk_size: Optional[int]  # bytes; None = sequential baseline
    concurrency: int
    exec_time_s: float
    speedup: float
    cities: int = 33
    comments: int = 0


def run_sequential_baseline(seed: int = 42) -> AirbnbRow:
    """The non-PyWren baseline: a Watson Studio notebook (4 vCPU / 16 GB)
    processes each city sequentially, exactly like §6.4's first test.

    One notebook cell per city; compute is charged through the calibrated
    notebook rate + per-city render cost, on the same virtual clock as the
    parallel runs.
    """
    env = CloudEnvironment.create(seed=seed)
    from repro.studio import WatsonStudio

    studio = WatsonStudio(env)
    notebook = studio.create_notebook(
        "airbnb-sequential", vcpus=4, memory_gb=16
    )

    def make_city_cell(size: int):
        def cell(_namespace) -> int:
            import repro

            repro.sleep(cost.notebook_tone_seconds(size))
            repro.sleep(cost.render_seconds(1))
            return size

        return cell

    for city, size in airbnb.city_sizes().items():
        notebook.add_cell(make_city_cell(size), label=city)
    cells = notebook.run()
    assert all(cell.ok for cell in cells)
    seconds = sum(cell.duration for cell in cells)
    return AirbnbRow(
        chunk_size=None,
        concurrency=0,
        exec_time_s=seconds,
        speedup=1.0,
        comments=airbnb.TOTAL_COMMENTS,
    )


def run_airbnb(
    chunk_size,
    sample_cap: int = DEFAULT_SAMPLE_CAP,
    seed: int = 42,
    sequential_s: Optional[float] = None,
) -> AirbnbRow:
    """One parallel row: map_reduce the full dataset at ``chunk_size``."""
    chunk = parse_size(chunk_size)
    limits = SystemLimits(max_concurrent=1000)
    env = CloudEnvironment.create(
        client_latency=LatencyModel.wan(), limits=limits, seed=seed
    )
    airbnb.load_dataset(env.storage)

    def main() -> tuple[int, float, int]:
        import repro

        executor = repro.ibm_cf_executor(invoker_mode=InvokerMode.MASSIVE)
        t0 = env.now()
        reducers = executor.map_reduce(
            make_tone_map(sample_cap),
            f"cos://{airbnb.DEFAULT_BUCKET}",
            tone_reduce,
            chunk_size=chunk,
            reducer_one_per_object=True,
        )
        summaries = executor.get_result(reducers)
        elapsed = env.now() - t0
        n_maps = sum(
            1 for f in executor.futures if f.callset_id.startswith("M")
        )
        assert len(summaries) == 33, f"expected 33 city maps, got {len(summaries)}"
        comments = sum(s["comments"] for s in summaries)
        return n_maps, elapsed, comments

    concurrency, elapsed, comments = env.run(main)
    baseline = sequential_s if sequential_s is not None else PAPER_SEQUENTIAL_S
    return AirbnbRow(
        chunk_size=chunk,
        concurrency=concurrency,
        exec_time_s=elapsed,
        speedup=baseline / elapsed,
        comments=comments,
    )


def run_table3(
    chunk_sizes_mb=CHUNK_SIZES_MB,
    sample_cap: int = DEFAULT_SAMPLE_CAP,
    seed: int = 42,
) -> list[AirbnbRow]:
    """The full Table 3: sequential baseline + chunk-size sweep."""
    sequential = run_sequential_baseline(seed=seed)
    rows = [sequential]
    for chunk_mb in chunk_sizes_mb:
        rows.append(
            run_airbnb(
                f"{chunk_mb}MB",
                sample_cap=sample_cap,
                seed=seed,
                sequential_s=sequential.exec_time_s,
            )
        )
    return rows


def report(rows: list[AirbnbRow]) -> Table:
    table = Table(
        [
            "chunk size",
            "concurrency",
            "exec. time (s)",
            "speedup",
            "paper conc.",
            "paper time (s)",
            "paper speedup",
        ],
    )
    for row in rows:
        if row.chunk_size is None:
            table.add_row(
                "No / Sequential",
                "0 executors",
                round(row.exec_time_s),
                "1.00× (base)",
                "0 executors",
                round(PAPER_SEQUENTIAL_S),
                "(base)",
            )
            continue
        chunk_mb = row.chunk_size // (1024 * 1024)
        paper = PAPER_ROWS.get(chunk_mb)
        table.add_row(
            f"{chunk_mb}MB",
            row.concurrency,
            round(row.exec_time_s),
            f"{row.speedup:.2f}×",
            *((paper[0], paper[1], f"{paper[2]:.2f}×") if paper else (None,) * 3),
        )
    return table

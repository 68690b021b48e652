"""User functions the benchmark workloads ship to the emulated cloud.

Every function here is a module-level function of this one module, which
the benchmark always imports under the name ``userfuncs``: the program's
serializer then ships it *by reference*.  A by-value function is shipped
as ``marshal.dumps(fn.__code__)``, which embeds the absolute
``co_filename`` of the checkout — and pickled size feeds the modelled
transfer time, so modelled seconds would depend on where the repository
sits on disk.

Program code is reached through module attributes (``tone.analyze_…``,
never ``from … import analyze_…``) so the boundary wrappers of
``boundaries.py`` see these calls too.
"""

from __future__ import annotations

import repro as pw
from repro.analytics import geoplot, tone
from repro.core import cost
from repro.vtime import vsleep

# ------------------------------------------------------------- map_fanout
def fanout_step(x):
    """Fig. 3's ~60 s function as a steps generator: threadless while it
    sleeps, so 10,000 of them are 10,000 model tasks, not OS threads."""
    yield vsleep(cost.FIG3_TASK_SECONDS)
    return x + 1


# ------------------------------------------------------- airbnb_mapreduce
#: bytes of real content each map function samples for classification
#: (Table 3's default); the rest of the partition is charged to the
#: virtual clock by the calibrated cost model
SAMPLE_CAP = 16_384

#: review points each map call forwards to its city's reducer
POINTS_PER_PARTITION = 150


def tone_map(partition) -> dict:
    """Table 3's map function: tone-analyze one partition."""
    data = partition.read(materialize_cap=SAMPLE_CAP)
    stats, points = tone.analyze_csv_reviews(data)
    sampled = min(partition.size, SAMPLE_CAP)
    scale = partition.size / sampled if sampled else 0.0
    pw.sleep(cost.tone_map_seconds(partition.size))
    return {
        "key": partition.key,
        "bytes": partition.size,
        "stats": stats.scaled(scale),
        "points": points[:POINTS_PER_PARTITION],
    }


def tone_reduce(results: list) -> dict:
    """Table 3's reduce function: merge one city's partials, render its map."""
    merged = tone.ToneStats()
    points: list = []
    total_bytes = 0
    key = results[0]["key"]
    for partial in results:
        merged.merge(partial["stats"])
        points.extend(partial["points"])
        total_bytes += partial["bytes"]
    svg = geoplot.render_city_map(key, points)
    pw.sleep(cost.render_seconds(1))
    return {
        "key": key,
        "bytes": total_bytes,
        "comments": merged.comments,
        "counts": dict(merged.counts),
        "dominant": merged.dominant(),
        "svg_bytes": len(svg),
    }


# ------------------------------------------------------ shuffle_wordcount
def emit_pairs(doc: str) -> list:
    return [(word, 1) for word in doc.split()]


def count_values(key, values) -> int:
    del key
    return sum(values)


# ----------------------------------------------------------- dag_pipeline
def chain_step(x):
    """One 2 s pipeline stage: cheap on purpose, so per-level scheduling
    hand-off (client round trips and poll staleness, or marker/token
    traffic under swarm) is what the makespan measures."""
    pw.sleep(2)
    return x + 1


def chunk_sort(spec):
    """Sort one chunk; per-leaf skew models uneven input splits (Fig. 4)."""
    pw.sleep(5 + spec["skew"] * 15)
    return sorted(spec["chunk"])


def merge_pair(parts):
    left, right = parts
    pw.sleep(10)
    merged, i, j = [], 0, 0
    while i < len(left) and j < len(right):
        if left[i] <= right[j]:
            merged.append(left[i])
            i += 1
        else:
            merged.append(right[j])
            j += 1
    return merged + left[i:] + right[j:]


def extract_features(spec):
    """Wide phase: skewed per-shard feature extraction."""
    pw.sleep(4 + (spec["shard"] % 3) * 3)
    return spec["shard"] + 1


def aggregate_features(counts):
    pw.sleep(3)
    return sum(counts)


def train_epoch(value):
    pw.sleep(2)
    return value + 1

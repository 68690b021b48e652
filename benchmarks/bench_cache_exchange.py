"""Cache exchange benchmark: COS-only vs memory-tier cached intermediates.

The two Fig. 4-shaped workloads of ``bench_dag_pipeline`` — the DAG
mergesort and the shuffle wordcount — run twice each from the same seed:

* **cos-only** — the baseline exchange path.  The ``cached-cos`` backend
  runs with a zero byte budget, so nothing is ever resident and every
  intermediate read goes to COS *through the instrumented path*: timings
  are identical to a direct-COS run, and the backend's counters measure
  exactly how much virtual time the workload spends reading
  intermediates from object storage.
* **cached** — the full tier (default 64 MiB/node LRU, peer fetch via
  the holder directory, a copy left with every reader).  Producers write
  through their node's memory cache; consumers resolve local → peer → COS.

The metric under test is **intermediate-read time** (virtual seconds spent
in shuffle-partition and result-blob reads by in-cloud readers), which is
what the cache tier exists to cut; makespans ride along for context.

Acceptance: cached beats cos-only on intermediate-read time for both
workloads, and same-seed runs are reproducible in *both* modes — two
traced cached runs export byte-identical JSONL, and so do two traced
cos-only runs (after normalizing the process-global executor id).

Run via ``make bench-cache``; writes ``BENCH_cache_exchange.json``
(:func:`build_report` computes the same report without writing it).
"""

from __future__ import annotations

import json
import os

import repro as pw
from repro.core.environment import CloudEnvironment
from repro.core.shuffle import merge_shuffle_results
from repro.dag import DagBuilder, DagScheduler

SEED = 123
N_LEAVES = 8
CHUNK = 512
N_DOCS = 12
N_REDUCERS = 4
OUTPUT = os.path.join(
    os.path.dirname(__file__), "..", "BENCH_cache_exchange.json"
)


def exchange_config(mode: str) -> pw.ExchangeConfig:
    """The exchange configuration for one benchmark mode.

    ``cos-only`` keeps the tier attached but inert: budget 0 means
    nothing is ever resident, so every local probe and directory lookup
    misses for free — the timing is byte-for-byte the COS-only exchange,
    with the read counters running.
    """
    if mode == "cached":
        return pw.ExchangeConfig(backend="cached-cos")
    return pw.ExchangeConfig(backend="cached-cos", cache_node_budget_bytes=0)


def _exchange_stats(env: CloudEnvironment) -> dict:
    stats = env.exchange.stats()
    return {
        "intermediate_read_s": round(stats["read_seconds_total"], 4),
        "intermediate_reads": stats["intermediate_reads"],
        "local_hits": stats["local_hits"],
        "peer_hits": stats["peer_hits"],
        "cos_misses": stats["cos_misses"],
        "bytes_from_memory": stats["bytes_from_memory"],
        "bytes_from_peers": stats["bytes_from_peers"],
        "bytes_from_cos": stats["bytes_from_cos"],
    }


# ---------------------------------------------------------------- mergesort
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


def _array():
    import random

    rng = random.Random(7)
    return [rng.randrange(1_000_000) for _ in range(N_LEAVES * CHUNK)]


def _leaf_specs(array):
    return [
        {"chunk": array[i * CHUNK:(i + 1) * CHUNK], "skew": i % 4}
        for i in range(N_LEAVES)
    ]


def _build_merge_tree(builder, array):
    level = [
        builder.call(chunk_sort, spec, name=f"sort[{i}]", stage="sort")
        for i, spec in enumerate(_leaf_specs(array))
    ]
    height = 1
    while len(level) > 1:
        level = [
            builder.reduce(
                merge_pair,
                [level[i], level[i + 1]],
                name=f"merge{height}[{i // 2}]",
                stage=f"merge{height}",
            )
            for i in range(0, len(level), 2)
        ]
        height += 1
    return level[0]


def run_mergesort(mode: str, trace: bool = False):
    env = CloudEnvironment.create(
        seed=SEED, trace=trace, exchange=exchange_config(mode)
    )
    array = _array()

    def main():
        executor = pw.ibm_cf_executor()
        builder = DagBuilder()
        root = _build_merge_tree(builder, array)
        run = DagScheduler(executor).submit(builder.build())
        result = run.expose(root).result()
        jsonl = executor.trace_jsonl() if trace else ""
        return result, executor.executor_id, jsonl

    result, executor_id, jsonl = env.run(main)
    assert result == sorted(array), f"mergesort ({mode}) mismatch"
    report = {"makespan_s": round(env.now(), 1), **_exchange_stats(env)}
    return report, jsonl.replace(executor_id, "EXEC")


# ---------------------------------------------------------------- wordcount
def word_pairs(text):
    return [(word, 1) for word in text.split()]


def count_values(key, values):
    del key
    return sum(values)


def _docs():
    words = ["cloud", "serverless", "data", "shuffle", "cos", "pywren"]
    return [
        " ".join(words[(i + j) % len(words)] for j in range(20 + i))
        for i in range(N_DOCS)
    ]


def _expected_counts(docs):
    counts: dict[str, int] = {}
    for doc in docs:
        for word in doc.split():
            counts[word] = counts.get(word, 0) + 1
    return counts


def run_wordcount(mode: str):
    env = CloudEnvironment.create(seed=SEED, exchange=exchange_config(mode))
    docs = _docs()

    def main():
        executor = pw.ibm_cf_executor()
        reducers = executor.map_reduce_shuffle(
            word_pairs, docs, count_values, n_reducers=N_REDUCERS
        )
        return merge_shuffle_results(executor.get_result(reducers))

    merged = env.run(main)
    assert merged == _expected_counts(docs), f"wordcount ({mode}) mismatch"
    return {"makespan_s": round(env.now(), 1), **_exchange_stats(env)}


def build_report() -> dict:
    """Run both modes of both workloads; the report ``main`` writes."""
    sort_cos, sort_cos_trace_a = run_mergesort("cos-only", trace=True)
    _same, sort_cos_trace_b = run_mergesort("cos-only", trace=True)
    sort_cached, sort_cached_trace_a = run_mergesort("cached", trace=True)
    _same, sort_cached_trace_b = run_mergesort("cached", trace=True)
    wc_cos = run_wordcount("cos-only")
    wc_cached = run_wordcount("cached")

    def _speedup(cos, cached):
        return round(
            cos["intermediate_read_s"]
            / max(cached["intermediate_read_s"], 1e-9),
            2,
        )

    report = {
        "seed": SEED,
        "chaos": "none",
        "mergesort": {
            "shape": f"{N_LEAVES} uneven sort leaves -> binary merge tree (DAG)",
            "cos_only": sort_cos,
            "cached": sort_cached,
            "intermediate_read_speedup": _speedup(sort_cos, sort_cached),
        },
        "shuffle_wordcount": {
            "shape": f"{N_DOCS} docs, {N_REDUCERS} reducers over shuffle",
            "cos_only": wc_cos,
            "cached": wc_cached,
            "intermediate_read_speedup": _speedup(wc_cos, wc_cached),
        },
        "criteria": {
            "cached_beats_cos_mergesort_reads": bool(
                sort_cached["intermediate_read_s"]
                < sort_cos["intermediate_read_s"]
            ),
            "cached_beats_cos_wordcount_reads": bool(
                wc_cached["intermediate_read_s"]
                < wc_cos["intermediate_read_s"]
            ),
            "cached_run_has_memory_hits": bool(
                sort_cached["local_hits"] + sort_cached["peer_hits"] > 0
                and wc_cached["local_hits"] + wc_cached["peer_hits"] > 0
            ),
            "cos_only_trace_byte_identical": bool(
                sort_cos_trace_a == sort_cos_trace_b and sort_cos_trace_a != ""
            ),
            "cached_trace_byte_identical": bool(
                sort_cached_trace_a == sort_cached_trace_b
                and sort_cached_trace_a != ""
            ),
        },
    }
    report["criteria_met"] = all(report["criteria"].values())
    return report


def main() -> int:
    report = build_report()
    path = os.path.abspath(OUTPUT)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")
    print(json.dumps(report, indent=2))
    print(f"wrote {path}")
    return 0 if report["criteria_met"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

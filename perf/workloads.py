"""The four benchmark workloads: seeded inputs, jobs, reference answers.

A workload is ``prepare(seed, scale) -> list[Job]``.  ``prepare`` generates
every input from the seed and computes the reference answers; a
:class:`Job`'s ``run(seed, trace)`` is exactly what one user would do and
what the benchmark times: build a fresh :class:`CloudEnvironment` from the
seed, load the inputs into COS, submit, collect the results.  ``scale``
only exists for the warm-up job (≈1/10 size); measured iterations always
run at ``scale=1``, the sizes ``README.md`` argues for.

Nothing here imports ``benchmarks/``, ``tests/`` or ``repro.bench``: the
DAG shape builders, the wordcount generator and Table 3's job are copies,
so the old bench scripts can be deleted without touching this benchmark.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional

import repro as pw
import userfuncs
from repro.analytics import tone
from repro.core.shuffle import merge_shuffle_results
from repro.datasets import airbnb
from repro.faas import SystemLimits
from repro.net import LatencyModel


class JobRun(NamedTuple):
    """What one timed job leaves behind."""

    env: pw.CloudEnvironment
    #: virtual time at which the client, its executor created, submitted
    t0: float
    #: virtual seconds until the submitting call returned
    submit_s: float
    #: virtual seconds until the results were in the client's hands
    makespan_s: float
    answer: Any


@dataclass(frozen=True)
class Job:
    name: str
    #: user-function calls this job makes (fixed by the seed)
    calls: int
    run: Callable[[int, bool], JobRun]
    check: Callable[[Any], bool]
    #: the paper's execution time for this job, where it reports one
    paper_s: Optional[float] = None
    #: the shape of a job that is one DAG: "chain", "tree" or "wide"
    dag_shape: Optional[str] = None


def _run_client(
    env: pw.CloudEnvironment,
    submit: Callable[[Any], Any],
    collect: Callable[[Any, Any], Any],
    **executor_kwargs: Any,
) -> JobRun:
    """Drive ``collect(executor, submit(executor))`` as ``env``'s client."""

    def main():
        executor = pw.ibm_cf_executor(**executor_kwargs)
        t0 = env.now()
        submitted = submit(executor)
        t1 = env.now()
        answer = collect(executor, submitted)
        return t0, t1 - t0, env.now() - t0, answer

    return JobRun(env, *env.run(main))


def _get_result(executor, futures):
    return executor.get_result(futures)


# ------------------------------------------------------------- map_fanout
FANOUT_CALLS = 10_000
_INVOKER_MEMORY_MB = 102_400
_ACTION_MEMORY_MB = 256


def prepare_map_fanout(seed: int, scale: float) -> list[Job]:
    n = int(FANOUT_CALLS * scale)
    rng = random.Random(f"fanout:{seed}")
    items = [rng.randrange(1000) for _ in range(n)]
    expected = [item + 1 for item in items]
    # cluster sized so the whole fan-out runs at once: n x 256 MB actions
    per_node = _INVOKER_MEMORY_MB // _ACTION_MEMORY_MB
    limits = SystemLimits(
        max_concurrent=n + 64,
        invoker_count=-(-n // per_node) + 2,
        invoker_memory_mb=_INVOKER_MEMORY_MB,
    )

    def run(seed: int, trace: bool) -> JobRun:
        env = pw.CloudEnvironment.create(
            client_latency=LatencyModel.wan(), limits=limits, seed=seed,
            trace=trace,
        )
        return _run_client(
            env,
            lambda ex: ex.map(userfuncs.fanout_step, items),
            _get_result,
            invoker_mode=pw.InvokerMode.MASSIVE,
        )

    return [Job("fanout", n, run, lambda answer: answer == expected)]


# ------------------------------------------------------- airbnb_mapreduce
#: Table 3 rows run here: chunk MB -> the paper's execution time (s)
PAPER_ROWS = {64: 471.0, 8: 112.0, 2: 38.0}
_MB = 1024 * 1024


def _airbnb_reference(sizes: dict[str, int], chunk: int) -> dict[str, tuple]:
    """Per city object: (bytes, comments, tone counts) the job must return,
    computed straight from the dataset's content functions."""
    reference = {}
    for city, size in sizes.items():
        content = airbnb.make_review_content_fn(city)
        merged = tone.ToneStats()
        for start in range(0, size, chunk):
            length = min(size, start + chunk) - start
            sampled = min(length, userfuncs.SAMPLE_CAP)
            stats, _points = tone.analyze_csv_reviews(
                content(start, start + sampled)
            )
            merged.merge(stats.scaled(length / sampled))
        reference[f"reviews/{city}.csv"] = (
            size, merged.comments, dict(merged.counts)
        )
    return reference


def prepare_airbnb_mapreduce(seed: int, scale: float) -> list[Job]:
    del seed  # the dataset is the paper's; the seed reaches the environment
    total_size = int(airbnb.TOTAL_SIZE * scale)
    sizes = airbnb.city_sizes(total_size)

    def job(chunk_mb: int) -> Job:
        chunk = chunk_mb * _MB
        reference = _airbnb_reference(sizes, chunk)
        n_maps = sum(-(-size // chunk) for size in sizes.values())

        def run(seed: int, trace: bool) -> JobRun:
            env = pw.CloudEnvironment.create(
                client_latency=LatencyModel.wan(),
                limits=SystemLimits(max_concurrent=1000),
                seed=seed, trace=trace,
            )
            airbnb.load_dataset(env.storage, total_size=total_size)
            return _run_client(
                env,
                lambda ex: ex.map_reduce(
                    userfuncs.tone_map,
                    f"cos://{airbnb.DEFAULT_BUCKET}",
                    userfuncs.tone_reduce,
                    chunk_size=chunk,
                    reducer_one_per_object=True,
                ),
                _get_result,
                invoker_mode=pw.InvokerMode.MASSIVE,
            )

        def check(summaries: Any) -> bool:
            got = {
                s["key"]: (s["bytes"], s["comments"], s["counts"])
                for s in summaries
            }
            return len(summaries) == len(reference) and got == reference

        return Job(f"{chunk_mb}MB", n_maps + len(sizes), run, check,
                   paper_s=PAPER_ROWS[chunk_mb])

    return [job(chunk_mb) for chunk_mb in PAPER_ROWS]


# ------------------------------------------------------ shuffle_wordcount
N_DOCS = 32
WORDS_PER_DOC = 100_000
VOCABULARY = 20_000
N_REDUCERS = 8


def _documents(seed: int, words_per_doc: int) -> list[str]:
    """Seeded documents whose word frequencies follow a Pareto (power-law)
    rank distribution: a few hot keys and a long tail, like real text."""
    rng = random.Random(f"wordcount:{seed}")
    vocabulary = [f"w{rank:05d}" for rank in range(VOCABULARY)]
    cum_weights = list(itertools.accumulate(
        1.0 / (rank + 1) for rank in range(VOCABULARY)
    ))
    return [
        " ".join(rng.choices(vocabulary, cum_weights=cum_weights,
                             k=words_per_doc))
        for _ in range(N_DOCS)
    ]


def prepare_shuffle_wordcount(seed: int, scale: float) -> list[Job]:
    docs = _documents(seed, int(WORDS_PER_DOC * scale))
    expected = Counter()
    for doc in docs:
        expected.update(doc.split())

    def run(seed: int, trace: bool) -> JobRun:
        env = pw.CloudEnvironment.create(seed=seed, trace=trace)
        return _run_client(
            env,
            lambda ex: ex.map_reduce_shuffle(
                userfuncs.emit_pairs, docs, userfuncs.count_values,
                n_reducers=N_REDUCERS,
            ),
            lambda ex, reducers: merge_shuffle_results(ex.get_result(reducers)),
            poll_interval=0.05,
        )

    return [Job("wordcount", N_DOCS + N_REDUCERS, run,
                lambda answer: answer == expected)]


# ----------------------------------------------------------- dag_pipeline
CHAIN_DEPTH = 200
TREE_LEAVES = 512
TREE_CHUNK = 64
WIDE_SHARDS = 256
WIDE_EPOCHS = 32
SCHEDULERS = ("centralized", "swarm")


def build_chain(builder, depth: int):
    """A ``depth``-level chain of *non-fusable* stages (fused, the chain
    would be one node and there would be nothing to schedule): the
    critical path crosses ``depth`` scheduling decisions."""
    node = builder.call(userfuncs.chain_step, 0, name="step[0]",
                        stage="chain", fusable=False)
    for index in range(1, depth):
        node = node.then(userfuncs.chain_step, name=f"step[{index}]",
                         stage="chain", fusable=False)
    return node


def build_merge_tree(builder, array: list[int], leaves: int):
    """Fig. 4's shape: uneven sort leaves feeding a binary merge tree."""
    chunk = len(array) // leaves
    level = [
        builder.call(
            userfuncs.chunk_sort,
            {"chunk": array[i * chunk:(i + 1) * chunk], "skew": i % 4},
            name=f"sort[{i}]", stage="sort",
        )
        for i in range(leaves)
    ]
    height = 1
    while len(level) > 1:
        level = [
            builder.reduce(
                userfuncs.merge_pair, [level[i], level[i + 1]],
                name=f"merge{height}[{i // 2}]", stage=f"merge{height}",
            )
            for i in range(0, len(level), 2)
        ]
        height += 1
    return level[0]


def build_wide_deep(builder, width: int, depth: int):
    """Wide-then-deep ML-style graph: ``width`` skewed shards reduce into
    one aggregate that feeds a ``depth``-long non-fusable epoch chain."""
    shards = [
        builder.call(userfuncs.extract_features, {"shard": index},
                     name=f"extract[{index}]", stage="extract")
        for index in range(width)
    ]
    node = builder.reduce(userfuncs.aggregate_features, shards,
                          name="aggregate", stage="aggregate", fusable=False)
    for index in range(depth):
        node = node.then(userfuncs.train_epoch, name=f"epoch[{index}]",
                         stage="train", fusable=False)
    return node


def prepare_dag_pipeline(seed: int, scale: float) -> list[Job]:
    depth = int(CHAIN_DEPTH * scale)
    # the merge tree pairs nodes level by level: leaves stay a power of two
    leaves = 1 << round(math.log2(TREE_LEAVES * scale))
    width, epochs = int(WIDE_SHARDS * scale), int(WIDE_EPOCHS * scale)
    rng = random.Random(f"dag:{seed}")
    array = [rng.randrange(1_000_000) for _ in range(leaves * TREE_CHUNK)]
    sorted_array = sorted(array)
    shapes = {
        # name: (builder, nodes, expected value at the root)
        "chain": (lambda b: build_chain(b, depth), depth, depth),
        "tree": (lambda b: build_merge_tree(b, array, leaves),
                 2 * leaves - 1, sorted_array),
        "wide": (lambda b: build_wide_deep(b, width, epochs),
                 width + 1 + epochs, sum(range(1, width + 1)) + epochs),
    }

    def job(shape: str, scheduler: str) -> Job:
        build, nodes, expected = shapes[shape]

        def run(seed: int, trace: bool) -> JobRun:
            env = pw.CloudEnvironment.create(seed=seed, trace=trace)
            dag_runs = []

            def submit(executor):
                builder = pw.DagBuilder()
                root = build(builder)
                dag_runs.append(builder.submit(executor, scheduler=scheduler))
                return dag_runs[0].expose(root)

            done = _run_client(env, submit, lambda ex, future: future.result())
            # env.run() returns after the watcher task drained, so every
            # node must have reached a terminal state by now
            return done._replace(answer=(dag_runs[0].finished, done.answer))

        return Job(f"{shape}.{scheduler}", nodes, run,
                   lambda answer: answer == (True, expected),
                   dag_shape=shape)

    return [job(shape, scheduler)
            for shape in shapes for scheduler in SCHEDULERS]


#: name -> prepare(seed, scale); BENCHMARK.json says why each is here
WORKLOADS: dict[str, Callable[[int, float], list[Job]]] = {
    "map_fanout": prepare_map_fanout,
    "airbnb_mapreduce": prepare_airbnb_mapreduce,
    "shuffle_wordcount": prepare_shuffle_wordcount,
    "dag_pipeline": prepare_dag_pipeline,
}
